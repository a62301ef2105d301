"""Per-layer metrics of a traced run, from the recorded spans.

Each metric is computed per phase over the wall windows between the
phase's start and end marks (``setup``, ``closed``, ``rated``, and the
search probe at ``slo_rps``; the rated phase has one window per block).
Per-operation ratios divide by the operations the phase completed.
Durations are means unless the name says p50/p99; a layer's *self* time
is its span minus the wrapped calls inside it.

``trace.unattributed_share`` is ``1 - covered / client latency`` summed
over the phase: *covered* is the server-side request time (enqueue to
reply ready: queue wait, loop work, pool round trip, crypto) of every
round trip plus how late the load generator sent against the schedule.
The rest is socket, framing and event-loop time outside every span.
"""

from __future__ import annotations

import bisect
import marshal
from pathlib import Path
from typing import Dict, List, Tuple

from phases import percentile
from spans import OP_SLOTS

#: (name, unit, better) of every per-phase metric, in report order
PHASE_METRICS: List[Tuple[str, str, str]] = [
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("loadgen.cpu_share", "ratio", "lower"),
    ("server.loop_cpu_share", "ratio", "lower"),
    ("server.queue_wait_p50_ms", "ms", "lower"),
    ("server.queue_wait_p99_ms", "ms", "lower"),
    ("server.batch_size_mean", "requests", "higher"),
    ("server.request_p50_ms", "ms", "lower"),
    ("server.outside_p50_ms", "ms", "lower"),
    ("server.busy_rejections", "count", "lower"),
    ("protocol.decode_request_us", "us", "lower"),
    ("protocol.decode_verify_payload_us", "us", "lower"),
    ("pool.submit_p50_ms", "ms", "lower"),
    ("pool.submit_p99_ms", "ms", "lower"),
    ("pool.worker_crypto_p50_ms", "ms", "lower"),
    ("pool.hop_p50_ms", "ms", "lower"),
    ("pool.items_per_job", "items", "higher"),
    ("pool.worker_cpu_share", "ratio", "lower"),
    ("pool.jobs_failed", "count", "lower"),
    ("pool.restarts", "count", "lower"),
    ("batch.fold_ms", "ms", "lower"),
    ("batch.items_per_fold", "items", "higher"),
    ("batch.bisection_share", "ratio", "lower"),
    ("batch.admissions_per_op", "count", "lower"),
    ("mccls.verify_ms", "ms", "lower"),
    ("mccls.verify_calls_per_op", "count", "lower"),
    ("pairing.miller_loops_per_op", "count", "lower"),
    ("pairing.final_exps_per_op", "count", "lower"),
    ("pairing.fp_mul_per_op", "count", "lower"),
    ("pairing.cache_hit_ratio.miller", "ratio", "higher"),
    ("pairing.cache_hit_ratio.fixed_bases", "ratio", "higher"),
    ("pairing.cache_hit_ratio.hash_g2", "ratio", "higher"),
    ("pairing.prediction_gap", "ratio", "lower"),
    ("kgc.enroll_ms", "ms", "lower"),
    ("session.respond_ms", "ms", "lower"),
    ("session.mac_ok_us", "us", "lower"),
    ("session.table_evictions", "count", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
]

#: phases whose metrics the result line carries (every workload has them;
#: ``setup`` is where enrollment and handshakes run)
REPORTED_PHASES = ("setup", "closed", "rated")

#: whole-run metrics
RUN_METRICS: List[Tuple[str, str, str]] = [
    ("trace.overhead_share", "ratio", "lower"),
]

#: span names whose outermost calls are the crypto the op model predicts
CRYPTO_LAYERS = ("mccls.", "batch.", "kgc.", "session.respond", "pairing.")


def per_layer_catalogue() -> List[Tuple[str, str, str]]:
    """Every per-layer metric a traced result line reports."""
    names = [(f"{phase}.{name}", unit, better)
             for phase in REPORTED_PHASES for name, unit, better in PHASE_METRICS]
    return names + RUN_METRICS


def load_dumps(trace_dir: Path) -> List[dict]:
    dumps = []
    for path in sorted(trace_dir.glob("*.marshal")):
        with open(path, "rb") as handle:
            dumps.append(marshal.load(handle))
    return dumps


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _delta(after: dict, before: dict, *path: str) -> float:
    for key in path:
        after = after.get(key, {}) if isinstance(after, dict) else 0
        before = before.get(key, {}) if isinstance(before, dict) else 0
    return float(after or 0) - float(before or 0)


class Windows:
    """A phase's wall windows, each with the load process's snapshots
    (``t``, ``cpu``, ``stats``) at its start and end."""

    def __init__(self, marks: List[dict]):
        self.marks = marks
        self.starts = [m["start"]["t"] for m in marks]
        self.ends = [m["end"]["t"] for m in marks]
        self.wall = sum(b - a for a, b in zip(self.starts, self.ends))

    def __contains__(self, t: float) -> bool:
        i = bisect.bisect_right(self.starts, t) - 1
        return i >= 0 and t < self.ends[i]

    def delta(self, snapshot: str, *path: str) -> float:
        """Change of one ``cpu`` or ``stats`` value, summed over the windows."""
        return sum(_delta(m["end"][snapshot], m["start"][snapshot], *path) for m in self.marks)


def _hit_ratio(windows: Windows, cache: str) -> float:
    hits = windows.delta("stats", "cache", cache, "hits")
    misses = windows.delta("stats", "cache", cache, "misses")
    return hits / (hits + misses) if hits + misses > 0 else 0.0


class Trace:
    """All processes' records, indexed for per-window queries.

    ``workers`` is how many worker processes the gateway started,
    restarted ones included; each must have written its records.
    """

    def __init__(self, dumps: List[dict], workers: int):
        gateways = [d for d in dumps if d["role"] == "gateway"]
        if len(gateways) != 1:
            raise RuntimeError(f"expected one gateway trace, found {len(gateways)}")
        gateway = gateways[0]
        self.workers = [d for d in dumps if d["role"] == "worker"]
        if len(self.workers) != workers:
            raise RuntimeError(
                f"expected {workers} worker traces, found {len(self.workers)}"
            )
        self.queue_waits = [(start, ms) for name, _tid, start, ms in gateway["sink"]
                            if name == "server.queue_wait"]
        self.enqueued = {tid: start for name, tid, start, _ms in gateway["sink"]
                         if name == "server.queue_wait"}
        self.jobs = gateway["jobs"]
        self.server_end: Dict[int, float] = {}
        for _mode, _start, end, _job, tids, _crypto, _items, _ok in self.jobs:
            for tid in tids:
                if tid:
                    self.server_end[tid] = end
        for tid, when in gateway["replies"]:
            self.server_end[tid] = when
        #: (name, start, end, self_s, depth, info) over every process
        self.spans = [span for d in dumps for span in d["spans"]]
        #: per process: outermost spans' (end, cumulative op totals)
        self.op_marks = [
            sorted((span[2], span[5][1]) for span in d["spans"] if span[4] == 0)
            for d in dumps
        ]

    def ops_within(self, windows: Windows) -> Dict[str, int]:
        """Operations counted in every process within the windows."""
        totals = [0] * len(OP_SLOTS)
        for a, b in zip(windows.starts, windows.ends):
            for marks in self.op_marks:
                before = after = (0,) * len(OP_SLOTS)
                for end, ops in marks:
                    if end < a:
                        before = ops
                    if end <= b:
                        after = ops
                    else:
                        break
                for i in range(len(OP_SLOTS)):
                    totals[i] += after[i] - before[i]
        return dict(zip(OP_SLOTS, totals))

    def server_seconds(self, tid: int):
        start = self.enqueued.get(tid)
        end = self.server_end.get(tid)
        if start is None or end is None or end < start:
            return None
        return end - start


def phase_metrics(trace: Trace, windows: Windows, log, costs: Dict[str, float], workers: int) -> Dict[str, float]:
    """The PHASE_METRICS values of one phase."""
    wall = max(windows.wall, 1e-9)
    ops = max(log.answered, 1)
    spans: Dict[str, list] = {}
    for span in trace.spans:
        if span[1] in windows:
            spans.setdefault(span[0], []).append(span)

    def durations(name, scale=1e3):
        return [(s[2] - s[1]) * scale for s in spans.get(name, ())]

    jobs = [j for j in trace.jobs if j[1] in windows]
    job_ms = [(j[2] - j[1]) * 1e3 for j in jobs]
    folds = spans.get("batch.verify_cross_signer", [])
    server_ms = []
    for tid, _sent, _recv in log.rtts:
        seconds = trace.server_seconds(tid)
        if seconds is not None:
            server_ms.append(seconds * 1e3)
    rtt_ms = [(recv - sent) * 1e3 for _tid, sent, recv in log.rtts]
    # less each window's end STATS request
    batch_count = windows.delta("stats", "batch", "size", "count") - len(windows.marks)
    batch_sum = windows.delta("stats", "batch", "size", "sum") - len(windows.marks)
    counted = trace.ops_within(windows)
    predicted = sum(counted[name] * costs.get(name, 0.0) for name in OP_SLOTS)
    measured = sum(
        s[2] - s[1] for name, group in spans.items() if name.startswith(CRYPTO_LAYERS)
        for s in group if s[4] == 0
    )
    latency_s = sum(lat for _t0, _done, lat in log.done) / 1e3
    covered_s = (sum(server_ms) + sum(log.late_ms)) / 1e3
    waits = [ms for start, ms in trace.queue_waits if start in windows]
    return {
        "loadgen.late_p99_ms": percentile(log.late_ms, 99),
        "loadgen.cpu_share": windows.delta("cpu", "load") / wall,
        "server.loop_cpu_share": windows.delta("cpu", "loop") / wall,
        "server.queue_wait_p50_ms": percentile(waits, 50),
        "server.queue_wait_p99_ms": percentile(waits, 99),
        "server.batch_size_mean": batch_sum / batch_count if batch_count > 0 else 0.0,
        "server.request_p50_ms": percentile(server_ms, 50),
        "server.outside_p50_ms": percentile(rtt_ms, 50) - percentile(server_ms, 50),
        "server.busy_rejections": windows.delta("stats", "counters", "busy_rejections"),
        "protocol.decode_request_us": _mean(durations("protocol.decode_request", 1e6)),
        "protocol.decode_verify_payload_us": _mean(
            durations("protocol.decode_verify_payload", 1e6)
            + durations("protocol.decode_verify_fast_payload", 1e6)),
        "pool.submit_p50_ms": percentile(job_ms, 50),
        "pool.submit_p99_ms": percentile(job_ms, 99),
        "pool.worker_crypto_p50_ms": percentile([j[5] * 1e3 for j in jobs], 50),
        "pool.hop_p50_ms": percentile([(j[2] - j[1] - j[5]) * 1e3 for j in jobs], 50),
        "pool.items_per_job": _mean(j[6] for j in jobs),
        "pool.worker_cpu_share": windows.delta("cpu", "workers") / (wall * max(workers, 1)),
        "pool.jobs_failed": windows.delta("stats", "pool", "counters", "jobs_failed"),
        "pool.restarts": windows.delta("stats", "pool", "supervisor", "restarts"),
        "batch.fold_ms": _mean(durations("batch.verify_cross_signer")),
        "batch.items_per_fold": _mean(s[5][0][0] for s in folds),
        "batch.bisection_share": _mean(1.0 if s[5][0][1] else 0.0 for s in folds),
        "batch.admissions_per_op": sum(s[5][0][2] for s in folds) / ops,
        "mccls.verify_ms": _mean(durations("mccls.verify")),
        "mccls.verify_calls_per_op": len(spans.get("mccls.verify", ())) / ops,
        "pairing.miller_loops_per_op": counted["miller_loops"] / ops,
        "pairing.final_exps_per_op": counted["final_exps"] / ops,
        "pairing.fp_mul_per_op": counted["fp_mul"] / ops,
        "pairing.cache_hit_ratio.miller": _hit_ratio(windows, "miller"),
        "pairing.cache_hit_ratio.fixed_bases": _hit_ratio(windows, "fixed_bases"),
        "pairing.cache_hit_ratio.hash_g2": _hit_ratio(windows, "hash_g2"),
        "pairing.prediction_gap": 1.0 - predicted / measured if measured > 0 else 0.0,
        "kgc.enroll_ms": _mean(durations("kgc.enroll")),
        "session.respond_ms": _mean(durations("session.respond")),
        "session.mac_ok_us": _mean(durations("session.mac_ok", 1e6)),
        "session.table_evictions": windows.delta("stats", "sessions", "evictions"),
        "trace.unattributed_share": 1.0 - covered_s / latency_s if latency_s > 0 else 0.0,
    }


def ops_per_op(trace: Trace, windows: Windows, log) -> Dict[str, float]:
    """Counted pairing-layer operations per completed operation."""
    counted = trace.ops_within(windows)
    return {name: round(count / max(log.answered, 1), 4) for name, count in counted.items()}


def layer_split(trace: Trace, windows: Windows) -> Dict[str, float]:
    """Self seconds per layer in a phase (the split behind the metrics)."""
    split: Dict[str, float] = {}
    for span in trace.spans:
        if span[1] in windows:
            layer = span[0].split(".")[0]
            split[layer] = split.get(layer, 0.0) + span[3]
    jobs = [j for j in trace.jobs if j[1] in windows]
    split["pool.hop"] = sum(j[2] - j[1] - j[5] for j in jobs)
    split["server.queue_wait"] = sum(ms for start, ms in trace.queue_waits if start in windows) / 1e3
    return {k: round(v, 6) for k, v in sorted(split.items())}
