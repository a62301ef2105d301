"""The traced run (``--trace 1``): where each workload's time goes.

1. An *untraced* gateway runs the closed phase alone, the reference for
   ``trace.overhead_share``.
2. A gateway started with span recording (see :mod:`spans`) runs every
   phase.  At each phase (or rated block) boundary the load process
   takes a STATS reply and samples ``/proc`` CPU, so counters and CPU
   split per phase.
3. Per-operation crypto costs are calibrated in this process
   (:mod:`calibrate`) for the op-count prediction.
4. The spans every process wrote at exit are read back and split per
   phase by :mod:`layers`.
"""

from __future__ import annotations

import time

import calibrate
import layers
from bench import close, cpu_sample, fetch_stats, supervision
from workloads import TRAFFIC, TraceIds


async def run(bench, trace_dir) -> dict:
    w = bench.w
    traffic = TRAFFIC[w.name](w, bench.args.seed, TraceIds(False))
    gateway, links, _log, _timings = await bench.setup_round(traffic)
    try:
        reference, _log = await bench.closed_phase(
            traffic, gateway, links, False, _no_mark
        )
    finally:
        await close(gateway, links)

    traffic = TRAFFIC[w.name](w, bench.args.seed, TraceIds(True))
    marks: dict = {}

    async def boundary(label: str, gateway, links) -> None:
        phase, edge = label.split("/")
        if edge == "end":
            when, cpu = time.perf_counter(), cpu_sample(gateway)
        stats = await fetch_stats(links)
        if edge == "start":
            when, cpu = time.perf_counter(), cpu_sample(gateway)
        windows = marks.setdefault(phase, [])
        if edge == "start":
            windows.append({})
        windows[-1][edge] = {"t": when, "cpu": cpu, "stats": stats}

    gateway, links, setup_log, _timings = await bench.setup_round(
        traffic, trace_dir=trace_dir, boundary=boundary
    )
    try:
        result = await bench.phases(traffic, gateway, links, traced=True, boundary=boundary)
        result["logs"]["setup"] = setup_log
        ready = gateway.ready
        health = supervision(await fetch_stats(links))
    finally:
        await close(gateway, links)

    costs = calibrate.per_op_seconds(traffic.client.curve)
    started = bench.workers + int(health["supervisor"].get("restarts", 0))
    trace = layers.Trace(layers.load_dumps(trace_dir), started)
    logs = result["logs"]
    slo = result["search"]["slo_rps"]
    at_slo = next((f"search{i}" for i, probe in enumerate(result["search"]["probes"])
                   if probe["pass"] and not probe["void"] and probe["rate"] == slo), None)
    per_phase = {}
    splits = {}
    op_counts = {}
    for phase in [*layers.REPORTED_PHASES, at_slo]:
        if phase is None:
            continue
        windows = layers.Windows(marks[phase])
        per_phase[phase] = layers.phase_metrics(
            trace, windows, logs[phase], costs, bench.workers
        )
        splits[phase] = layers.layer_split(trace, windows)
        op_counts[phase] = layers.ops_per_op(trace, windows, logs[phase])
    overhead = 1.0 - result["closed"]["ops_per_s"] / reference["ops_per_s"]

    metrics = {}
    units = {name: unit for name, unit, _better in layers.PHASE_METRICS}
    for phase in layers.REPORTED_PHASES:
        for name, value in per_phase[phase].items():
            metrics[f"{phase}.{name}"] = {"value": value, "unit": units[name]}
    metrics["trace.overhead_share"] = {"value": overhead, "unit": "ratio"}

    counted = [logs["closed"], logs["rated"]]
    wrong = sum(log.wrong for log in logs.values())
    unanswered = sum(log.outstanding for log in logs.values())
    bench.detail = {
        "workload": w.name,
        "traced": True,
        "environment": bench.environment(ready),
        "untraced_closed_ops_per_s": reference["ops_per_s"],
        "traced_closed_ops_per_s": result["closed"]["ops_per_s"],
        "slo_rps": slo,
        "search_probe_at_slo": at_slo,
        "per_phase": per_phase,
        "self_seconds_by_layer": splits,
        "ops_per_op_by_phase": op_counts,
        "op_costs_s": costs,
        "pool_health": health,
        "failures": {name: dict(log.fail_reasons) for name, log in logs.items() if log.failed},
        "wrong": {name: log.wrong_details for name, log in logs.items() if log.wrong},
    }
    return {
        "correct": wrong == 0 and unanswered == 0,
        "attempted": sum(log.attempted for log in counted),
        "failed": sum(log.failed for log in counted),
        "metrics": metrics,
    }


async def _no_mark(_label: str) -> None:
    return None
