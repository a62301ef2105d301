"""The gateway benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload fleet_verify --seed 1 --seconds 36 --trace 0

Launches the verification gateway as its own process (BN254, compiled
``native`` kernel, ``workers = nproc``), drives the workload from this
single asyncio process over at most ``nproc`` connections, checks every
verdict, and prints a human summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
separately instrumented gateway and reports the per-layer split.
``--smoke`` runs the same code on a toy curve for a few seconds.  See
``perfbench/README.md`` for workloads, metrics and limits.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import asyncio
import gc
import json
import os
import shutil
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return target if target.is_absolute() else ROOT / target


def _print_human(bench, result: dict) -> None:
    detail = bench.detail
    env = detail.get("environment", {})
    print(f"workload {bench.w.name}  seed {bench.args.seed}  "
          f"curve {env.get('curve')} backend {env.get('backend')} "
          f"kernel_active {env.get('kernel_active')}  workers {env.get('workers')}  "
          f"nproc {env.get('nproc')}  python {env.get('python')}")
    print(f"cpu {env.get('cpu_model')}  commit {env.get('git_commit') or '-'}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<48} {metric['value']:>14.4f} {metric['unit']}")
    if "rated" in detail:
        rated = detail["rated"]
        print(f"  rated {rated['rate']} ops/s: p50 {rated['p50_ms']:.2f} ms  "
              f"p99 {rated['p99_ms']:.2f} ms  n {rated['n']}  "
              f"steal {rated['steal']:.3f}")
        print(f"  error_rate {detail['error_rate']:.6f} "
              f"({result['failed']} failed of {result['attempted']} attempted)")
    if detail.get("search"):
        for probe in detail["search"]["probes"]:
            print(f"  probe {probe['rate']:9.1f} ops/s  pass {str(probe['pass']):5}  "
                  f"{'void' if probe['void'] else '    '} steal {probe['steal']:.3f}  "
                  f"p99 {probe['p99_ms']:8.2f} ms  "
                  f"last quarter {probe['last_quarter_p99_ms']:8.2f} ms  "
                  f"n {probe['n']}  failed {probe['failed']}")
    print("detail " + json.dumps(detail, default=str, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy curve, no kernel requirement: a correctness check")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: repro sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    build = _build_dir()
    os.environ["REPRO_KERNEL_CACHE"] = str(build / "kernel")
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

    import config
    from bench import Bench

    if args.workload not in config.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    bench = Bench(args)
    gc.disable()  # collected between phases instead (phases.quiesce)
    try:
        if args.trace:
            import traced

            trace_dir = build / f"trace-{os.getpid()}"
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
            try:
                result = asyncio.run(traced.run(bench, trace_dir))
            finally:
                shutil.rmtree(trace_dir, ignore_errors=True)
        else:
            result = asyncio.run(bench.run())
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    _print_human(bench, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
