"""The three phases: closed loop, open loop at a fixed rate, rate search.

*closed*: every connection starts with a fixed number of operations in
flight and tops back up to it once half of them have completed (the
pipelining rule of ``repro.service.loadgen``); throughput is the median
over one-second slices after a short ramp.

*open*: Poisson arrivals at an absolute rate; each operation is timed
from its scheduled send, so a stalled gateway also charges the requests
queued behind the stall.  How late the generator itself ran is kept.
One phase may run as several blocks, whose statistics are pooled.

*search*: open-loop probes that bracket, then bisect, the highest rate
whose p99 meets the workload's limit and whose last quarter's p99 meets
it too (no growing backlog); a failed operation counts as one that
missed the limit.

Slices of time in which the hypervisor stole CPU time from the host are
void (``config.VOID_STEAL``): the medians of the closed and rated phases
are over their quiet slices, or the least-stolen half of them, and a
stolen probe is repeated.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import math
import random
import statistics
from typing import Awaitable, Callable, Dict, List, Optional, Tuple

import config
from procs import host_cpu_ticks, steal_share
from wire import Link, Op, PhaseLog, perf


def quiesce() -> None:
    """Collect the load process's garbage before a timed phase.

    The load process runs with automatic collection off (``run.py``), so
    a collector pause over its pre-built inputs never shows up as
    gateway latency; it collects here, outside every timed window.
    """
    gc.collect()


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def slice_steals(marks: List[Tuple[float, dict]]) -> List[float]:
    """Steal share of each slice between consecutive ``(time, host
    ticks)`` samples."""
    return [steal_share(a, b) for (_ta, a), (_tb, b) in zip(marks, marks[1:])]


def quiet_slices(steals: List[float]) -> List[int]:
    """The slices kept: those the hypervisor stole at most
    ``config.VOID_STEAL`` from when they are at least half, else the
    least-stolen half."""
    kept = [i for i, stolen in enumerate(steals) if stolen <= config.VOID_STEAL]
    if 2 * len(kept) < len(steals):
        ranked = sorted(range(len(steals)), key=steals.__getitem__)
        kept = sorted(ranked[:(len(steals) + 1) // 2])
    return kept


async def drain(links: List[Link], log: PhaseLog, timeout_s: float = config.DRAIN_TIMEOUT_S) -> None:
    """Wait for the phase's outstanding replies; give up after the timeout."""
    deadline = perf() + timeout_s
    while log.outstanding > 0:
        if all(link.closed for link in links) or perf() >= deadline:
            for link in links:
                link.abandon()
            return
        await asyncio.sleep(0.002)


async def run_closed(
    links: List[Link],
    ops: List[List[Op]],
    inflight: int,
    duration_s: float,
    log: PhaseLog,
    sample_cpu: Callable[[], Dict[str, float]],
    ramp_s: float = config.CLOSED_RAMP_S,
) -> Dict[str, float]:
    """Closed loop over pre-built per-link ops; returns the measured
    window's throughput and CPU.

    Each connection starts with ``inflight`` operations and sends as many
    as have completed once that is at least half of them.  The window
    ends after ``duration_s`` or at the last whole slice before a
    connection ran out of inputs, whichever is first; fewer than
    ``config.MIN_SLICES`` whole slices fail the run.
    """
    quiesce()
    sources = [iter(link_ops) for link_ops in ops]
    stop_at = [math.inf]
    exhausted_at = [math.inf]
    owed = [0] * len(links)
    top_up = max(1, inflight // 2)

    def refill(link: Link, count: int) -> None:
        now = perf()
        if now >= stop_at[0]:
            return
        owed[link.index] += count
        if owed[link.index] < top_up:
            return
        count, owed[link.index] = owed[link.index], 0
        source = sources[link.index]
        for _ in range(count):
            op = next(source, None)
            if op is None:
                exhausted_at[0] = min(exhausted_at[0], now)
                return
            op.log = log
            op.t0 = now
            link.queue(op, op.first_frame(), now)
            log.attempted += 1

    started = perf()
    for link in links:
        link.on_done = refill
        refill(link, inflight)
        link.flush()
    await asyncio.sleep(ramp_s)
    # one-second slices: the phase reports the median over its quiet
    # slices, so a burst of host contention in a few does not move it
    samples = [(perf(), sample_cpu(), host_cpu_ticks())]
    slices = max(1, round(duration_s / config.SLICE_S))
    for index in range(1, slices + 1):
        await asyncio.sleep(max(0.0, samples[0][0] + index * duration_s / slices - perf()))
        if exhausted_at[0] < perf():
            break
        samples.append((perf(), sample_cpu(), host_cpu_ticks()))
    t0, t1 = samples[0][0], samples[-1][0]
    stop_at[0] = perf()
    for link in links:
        link.on_done = None
    await drain(links, log)
    log.window = (started, perf())
    if len(samples) - 1 < min(slices, config.MIN_SLICES):
        raise RuntimeError(
            f"closed phase: inputs ran out after {len(samples) - 1} of {slices} "
            "slices; raise the workload's closed_cap_rps"
        )
    done_times = sorted(done for _t0, done, _lat in log.done if t0 <= done < t1)
    rates, cpu_per_op = [], []
    for (a, cpu_a, _host_a), (b, cpu_b, _host_b) in zip(samples, samples[1:]):
        count = bisect.bisect_left(done_times, b) - bisect.bisect_left(done_times, a)
        rates.append(count / (b - a))
        used = (cpu_b["gateway"] - cpu_a["gateway"]) + (cpu_b["workers"] - cpu_a["workers"])
        cpu_per_op.append(used / count if count else math.inf)
    steals = slice_steals([(t, host) for t, _cpu, host in samples])
    kept = quiet_slices(steals)
    cpu0, cpu1 = samples[0][1], samples[-1][1]
    return {
        "ops_per_s": statistics.median(rates[i] for i in kept),
        "cpu_s_per_op": statistics.median(cpu_per_op[i] for i in kept),
        "slices_kept": len(kept),
        "slice_rates": [round(r, 1) for r in rates],
        "slice_steal": [round(stolen, 4) for stolen in steals],
        "window_s": t1 - t0,
        "completed": len(done_times),
        "mean_ops_per_s": len(done_times) / (t1 - t0),
        "cpu": {k: cpu1[k] - cpu0[k] for k in cpu0},
        "inputs_ran_out": exhausted_at[0] < math.inf,
    }


def poisson_offsets(rate: float, duration_s: float, rng: random.Random) -> List[float]:
    """Arrival offsets (s) of a Poisson process over [0, duration)."""
    offsets = []
    t = rng.expovariate(1.0) / rate
    while t < duration_s:
        offsets.append(t)
        t += rng.expovariate(1.0) / rate
    return offsets


async def run_open(
    links: List[Link],
    arrivals: List[Tuple[float, int, Op]],
    log: PhaseLog,
) -> None:
    """Send each op at its scheduled offset, then wait for every reply.

    Each call is one block of ``log``'s phase.  Host ticks are sampled
    about every ``config.OPEN_SLICE_S`` of the schedule (a new list in
    ``log.host_marks``), so :func:`open_stats` can tell stolen slices.
    """
    quiesce()
    t_base = perf() + 0.005
    marks = [(t_base, host_cpu_ticks())]
    log.host_marks.append(marks)
    n = len(arrivals)
    index = 0
    while index < n:
        now = perf()
        if now >= marks[-1][0] + config.OPEN_SLICE_S:
            marks.append((now, host_cpu_ticks()))
        while index < n and t_base + arrivals[index][0] <= now:
            offset, link_index, op = arrivals[index]
            op.log = log
            op.t0 = t_base + offset
            links[link_index].queue(op, op.first_frame(), now)
            log.late_ms.append((now - op.t0) * 1e3)
            log.attempted += 1
            index += 1
        for link in links:
            link.flush()
        if index < n:
            delay = t_base + arrivals[index][0] - perf()
            await asyncio.sleep(delay if delay > 0 else 0)
    if len(marks) > 1 and perf() < marks[-1][0] + config.OPEN_SLICE_S / 2:
        marks.pop()  # fold a short last slice into the one before
    marks.append((perf(), host_cpu_ticks()))
    await drain(links, log)
    log.window = (t_base, perf())


def open_stats(log: PhaseLog, duration_s: float) -> Dict[str, float]:
    """Latency summary of an open-loop phase (from scheduled sends).

    ``p50_ms`` is over the operations scheduled in the quiet slices
    (:func:`quiet_slices`) of all the phase's blocks; the p99 figures are
    over all of them, a failed one counting as infinitely late.  The
    last quarter is that of the last block, ``duration_s`` long.
    """
    latencies = [lat for _t0, _done, lat in log.done]
    missed = [math.inf] * log.failed
    start = log.window[0]
    tail_from = start + 0.75 * duration_s
    tail = [lat for t0, _done, lat in log.done if t0 >= tail_from]
    tail += [math.inf for t0 in log.failed_t0 if t0 >= tail_from]
    blocks = log.host_marks
    steals: List[float] = []
    firsts = []  # (block start, index of its first slice)
    edges = []  # inner slice edges per block
    for marks in blocks:
        firsts.append((marks[0][0], len(steals)))
        edges.append([t for t, _ticks in marks[1:-1]])
        steals += slice_steals(marks)
    quiet = set(quiet_slices(steals))
    starts = [t for t, _first in firsts]

    def slice_of(t0: float) -> int:
        block = max(0, bisect.bisect_right(starts, t0) - 1)
        return firsts[block][1] + bisect.bisect_right(edges[block], t0)

    kept_latencies = [lat for t0, _done, lat in log.done if slice_of(t0) in quiet]
    stolen = sum(m[-1][1]["steal"] - m[0][1]["steal"] for m in blocks)
    ticks = sum(m[-1][1]["total"] - m[0][1]["total"] for m in blocks)
    return {
        "n": len(latencies),
        "p50_ms": percentile(kept_latencies, 50),
        "p50_n": len(kept_latencies),
        "steal": stolen / max(1, ticks),
        "slices_kept": len(quiet),
        "slice_steal": [round(share, 4) for share in steals],
        "p99_ms": percentile(latencies + missed, config.LIMIT_PCT),
        "last_quarter_p99_ms": percentile(tail, config.LIMIT_PCT),
        "late_p99_ms": percentile(log.late_ms, 99),
        "failed": log.failed,
    }


async def run_search(
    links: List[Link],
    make_arrivals: Callable[[float, float, int], List[Tuple[float, int, Op]]],
    start_rps: float,
    limit_ms: float,
    probes: int,
    step: float,
    probe_s: float,
    traced: bool,
    mark: Callable[[str], Awaitable[None]],
) -> Tuple[float, List[dict], List[PhaseLog]]:
    """Bracket then bisect the highest rate meeting the latency limit.

    A probe during which the hypervisor stole more than
    ``config.VOID_STEAL`` of the host's CPU time is void: it moves
    neither bracket and the same rate is probed again, at most
    ``config.VOID_PROBES`` times.  When the probes have not bracketed
    the limit (none passed, or none failed), up to
    ``config.RESCUE_PROBES`` more follow, each at half the lowest failing
    or twice the highest passing rate, until one does.
    """
    passed: Optional[float] = None
    failed: Optional[float] = None
    rate = start_rps
    voided = 0
    results = []
    logs = []
    probe = 0
    while probe < probes or (
        (passed is None or failed is None) and probe < probes + config.RESCUE_PROBES
    ):
        log = PhaseLog(f"search{probe}", traced)
        arrivals = make_arrivals(rate, probe_s, probe)
        await mark(f"{log.name}/start")
        await run_open(links, arrivals, log)
        await mark(f"{log.name}/end")
        stats = open_stats(log, probe_s)
        ok = (
            log.wrong == 0
            and stats["n"] > 0
            and stats["p99_ms"] <= limit_ms
            and stats["last_quarter_p99_ms"] <= limit_ms
        )
        void = stats["steal"] > config.VOID_STEAL and voided < config.VOID_PROBES and probe < probes - 1
        results.append({"rate": rate, "pass": ok, "void": void, **stats})
        logs.append(log)
        probe += 1
        await asyncio.sleep(config.SETTLE_S)
        if void:
            voided += 1
            continue
        if ok:
            passed = rate if passed is None else max(passed, rate)
        else:
            failed = rate if failed is None else min(failed, rate)
        if failed is None:
            rate = rate * step if probe < probes else passed * 2
        elif passed is None:
            rate = rate / step if probe < probes else failed / 2
        else:
            rate = math.sqrt(passed * failed)
    return (passed or 0.0), results, logs
