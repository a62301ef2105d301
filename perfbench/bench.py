"""One benchmark run of one workload: launch, set up, phases, report.

``run.py`` is the command; this module holds the orchestration it and
the traced run (:mod:`traced`) share.
"""

from __future__ import annotations

import asyncio
import os
import platform
import random
import statistics
import time
from pathlib import Path

from repro.service import protocol

import config
import phases
from procs import Gateway, host_cpu_ticks, self_cpu_seconds, steal_share
from wire import Link, PhaseLog, reply_payload, round_trips
from workloads import TRAFFIC, Client, TraceIds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; empty
    when the tree is not a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return ""


async def _launch(bench, *, trace_dir=None):
    """Launch a gateway, connect, wait for every worker; returns the parts
    and the seconds from spawn until the gateway answered ready."""
    gateway = await Gateway.launch(
        ROOT,
        curve=bench.curve,
        backend=bench.backend,
        workers=bench.workers,
        require_kernel=not bench.smoke,
        trace_dir=trace_dir,
    )
    links = [await Link.open(gateway.port, i) for i in range(bench.workers)]
    while True:
        stats = await fetch_stats(links)
        workers = stats.get("pool", {}).get("workers", [])
        if workers and all(w["state"] == "ready" for w in workers):
            break
        await asyncio.sleep(0.01)
    ready_s = time.perf_counter() - gateway.spawned
    return gateway, links, ready_s


async def fetch_stats(links) -> dict:
    """One STATS round trip on the first link."""
    frame = protocol.encode_frame(protocol.encode_request(protocol.Opcode.STATS))
    (body,) = await round_trips(links[:1], [frame])
    return protocol.decode_json_payload(reply_payload(body, "STATS"))


def cpu_sample(gateway) -> dict:
    """CPU seconds so far of the gateway's parts and of this process."""
    sample = gateway.cpu_seconds()
    sample["load"] = self_cpu_seconds()
    return sample


def supervision(stats: dict) -> dict:
    """Worker-pool health from a STATS reply (restarts void CPU splits)."""
    pool = stats.get("pool", {})
    return {"supervisor": pool.get("supervisor", {}),
            "log": pool.get("supervision_log", [])[-8:]}


async def close(gateway, links) -> None:
    for link in links:
        await link.close()
    code = await gateway.stop()
    if code != 0:
        raise RuntimeError(f"gateway exited with code {code}")


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, args):
        self.args = args
        self.smoke = args.smoke
        workload = config.WORKLOADS[args.workload]
        self.w = config.smoke_variant(workload) if args.smoke else workload
        self.curve = config.SMOKE_CURVE if args.smoke else "bn254"
        self.backend = "native"
        self.workers = len(os.sched_getaffinity(0))
        self.seconds = float(args.seconds)
        self.detail: dict = {}

    def environment(self, ready: dict) -> dict:
        """The environment block every result carries."""
        cpu_model = ""
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("model name"):
                        cpu_model = line.split(":", 1)[1].strip()
                        break
        except OSError:
            pass
        return {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model,
            "python": platform.python_version(),
            "curve": self.curve,
            "backend": ready.get("backend", ""),
            "kernel_active": bool(ready.get("kernel_active")),
            "workers": self.workers,
            "seed": self.args.seed,
            "git_commit": _git_commit(),
        }

    def phase_seconds(self):
        closed, rated, search = self.w.split
        return closed * self.seconds, rated * self.seconds, search * self.seconds

    async def setup_round(self, traffic, trace_dir=None, boundary=None):
        """Launch a gateway and run the workload's set-up on it.

        Returns the gateway, its links, the set-up log and the timings
        (``ready_s`` plus the workload's round trips).  ``boundary`` is
        awaited around the set-up round trips, as in :meth:`phases`.
        """
        gateway, links, ready_s = await _launch(self, trace_dir=trace_dir)
        client = await Client.connect(links)
        log = PhaseLog("setup", trace_dir is not None)
        if boundary is not None:
            await boundary("setup/start", gateway, links)
        timings = await traffic.setup(client, log)
        if boundary is not None:
            await boundary("setup/end", gateway, links)
        timings["ready_s"] = ready_s
        return gateway, links, log, timings

    async def closed_phase(self, traffic, gateway, links, traced: bool, mark):
        """The closed loop; returns its summary and log."""
        w = self.w
        closed_s = self.phase_seconds()[0]
        log = PhaseLog("closed", traced)
        capacity = int(w.closed_cap_rps / len(links) * (closed_s + config.CLOSED_RAMP_S)) + config.INFLIGHT
        started = time.perf_counter()
        ops = [traffic.closed_ops(link.index, capacity) for link in links]
        inputs_s = time.perf_counter() - started
        await mark("closed/start")
        summary = await phases.run_closed(
            links, ops, config.INFLIGHT, closed_s, log, lambda: cpu_sample(gateway)
        )
        summary["inputs_s"] = inputs_s
        await mark("closed/end")
        return summary, log

    async def phases(self, traffic, gateway, links, traced: bool, boundary=None):
        """Closed, rated and search phases on a set-up gateway.

        The rated phase runs in three equal blocks: before the closed
        phase, between it and the search, and after the search.  Its
        quiet slices (see ``phases.open_stats``) are so picked from most
        of the run, not from one stretch of it that the hypervisor may
        have stolen from throughout.  ``boundary(label, gateway, links)``,
        when given, is awaited just before and just after each phase,
        rated block and probe (the traced run snapshots there).
        """
        w = self.w
        _closed_s, rated_s, search_s = self.phase_seconds()
        out = {"logs": {}}

        async def mark(label):
            if boundary is not None:
                await boundary(label, gateway, links)

        block_s = rated_s / 3
        offsets = phases.poisson_offsets(
            w.rated_rps, rated_s, random.Random(f"{self.args.seed}/rated")
        )
        blocks = [[], [], []]
        for off in offsets:
            k = min(int(off // block_s), 2)
            blocks[k].append(off - k * block_s)
        rated = PhaseLog("rated", traced)

        async def rated_block(offs):
            # inputs made just before sending, so session sequence
            # numbers reach the gateway in order
            arrivals = [(off, li, op) for off, (li, op) in zip(offs, traffic.open_ops(len(offs)))]
            await mark("rated/start")
            await phases.run_open(links, arrivals, rated)
            await mark("rated/end")
            await asyncio.sleep(config.SETTLE_S)

        await rated_block(blocks[0])
        out["closed"], out["logs"]["closed"] = await self.closed_phase(
            traffic, gateway, links, traced, mark
        )
        await asyncio.sleep(config.SETTLE_S)
        await rated_block(blocks[1])

        probe_s = search_s / config.SEARCH_PROBES

        def make_arrivals(rate, duration, probe):
            offs = phases.poisson_offsets(
                rate, duration, random.Random(f"{self.args.seed}/search/{probe}")
            )
            ops = traffic.open_ops(len(offs))
            return [(off, li, op) for off, (li, op) in zip(offs, ops)]

        slo, probes, logs = await phases.run_search(
            links, make_arrivals, w.search_start_rps, w.limit_ms,
            config.SEARCH_PROBES, config.SEARCH_STEP, probe_s, traced, mark,
        )
        out["search"] = {"slo_rps": slo, "probes": probes}
        for log in logs:
            out["logs"][log.name] = log
        await rated_block(blocks[2])
        out["rated"] = phases.open_stats(rated, block_s)
        out["logs"]["rated"] = rated
        return out

    async def run(self) -> dict:
        traffic = TRAFFIC[self.w.name](self.w, self.args.seed, TraceIds(False))
        setups = []
        gateway = links = None
        ticks0 = host_cpu_ticks()
        try:
            for round_index in range(config.SETUP_LAUNCHES):
                gateway, links, _log, timings = await self.setup_round(traffic)
                setups.append(timings)
                if round_index < config.SETUP_LAUNCHES - 1:
                    await close(gateway, links)
                    gateway = links = None
            result = await self.phases(traffic, gateway, links, traced=False)
            rss_mb = gateway.peak_rss_mb()
            ready = gateway.ready
            result["pool_health"] = supervision(await fetch_stats(links))
            result["host_steal_share"] = steal_share(ticks0, host_cpu_ticks())
        finally:
            if gateway is not None:
                await close(gateway, links)
        return self._untraced_report(result, setups, rss_mb, ready)

    def _untraced_report(self, result, setups, rss_mb, ready) -> dict:
        logs = result.pop("logs")
        closed = result["closed"]
        cpu = closed["cpu"]
        counted = [logs["closed"], logs["rated"]]
        attempted = sum(log.attempted for log in counted)
        failed = sum(log.failed for log in counted)
        wrong = sum(log.wrong for log in logs.values())
        unanswered = sum(log.attempted - log.answered - log.failed for log in logs.values())
        metrics = {
            "setup_s": (statistics.median(sum(t.values()) for t in setups), "s"),
            "peak_rps": (closed["ops_per_s"], "ops/s"),
            "slo_rps": (result["search"]["slo_rps"], "ops/s"),
            "p50_ms": (result["rated"]["p50_ms"], "ms"),
            "cpu_ms_per_op": (closed["cpu_s_per_op"] * 1e3, "ms"),
            "rss_mb": (rss_mb, "MB"),
        }
        self.detail = {
            "workload": self.w.name,
            "environment": self.environment(ready),
            "error_rate": failed / attempted if attempted else 0.0,
            "setups": setups,
            "closed": closed,
            "closed_load_cpu_share": cpu["load"] / closed["window_s"],
            "rated": dict(result["rated"], rate=self.w.rated_rps),
            "search": result.get("search"),
            "pool_health": result["pool_health"],
            "host_steal_share": result["host_steal_share"],
            "failures": {name: dict(log.fail_reasons) for name, log in logs.items() if log.failed},
            "wrong": {name: log.wrong_details for name, log in logs.items() if log.wrong},
        }
        correct = wrong == 0 and unanswered == 0
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
