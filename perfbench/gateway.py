"""The benchmark's gateway process.

Starts a :class:`~repro.service.server.VerificationGateway` with a
supervised worker pool and serves until its standard input closes::

    python perfbench/gateway.py --curve bn254 --backend native --workers 2

(``python -m repro serve`` cannot select BN254, hence this launcher.)
Once every worker is ready it prints one JSON line -
``{"ready": true, "port": ..., "pid": ..., "kernel_active": ...}`` - and
the load process connects.  On end of input it drains, stops the pool
and exits 0.  With ``--require-kernel`` it refuses to serve (exit 3)
when the compiled pairing kernel is not active: BN254 on the pure-Python
field is a different program.

With ``PERFBENCH_TRACE_DIR`` set, :mod:`spans` wraps the measured layers
at import time - in this process and, because spawn re-imports this
module as ``__mp_main__``, in every crypto worker - and each process
writes its spans into that directory.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys

sys.dont_write_bytecode = True

TRACE_DIR = os.environ.get("PERFBENCH_TRACE_DIR")
RECORDER = None
if TRACE_DIR:
    import spans

    RECORDER = spans.install(TRACE_DIR)


def _curve(name: str, backend: str):
    from repro.pairing.bn import bn254, toy_curve

    if name == "bn254":
        return bn254(backend=backend)
    if name.startswith("toy"):
        return toy_curve(int(name[3:]), backend=backend)
    raise SystemExit(f"unknown curve {name!r}")


async def _serve(args) -> int:
    from repro.core.mccls import McCLS
    from repro.core.params import KeyGenerationCenter
    from repro.pairing._kernel import kernel_availability
    from repro.service.server import VerificationGateway

    curve = _curve(args.curve, args.backend)
    # Fixed KGC seed: the deployment is identical for every run; the
    # benchmark's seed only shapes the frames the load process sends.
    kgc = KeyGenerationCenter(McCLS, curve=curve, seed=0, backend=args.backend)
    backend = kgc.ctx.backend.name
    kernel_active, kernel_detail = kernel_availability()
    kernel_active = kernel_active and backend == "native"
    if args.require_kernel and not kernel_active:
        print(json.dumps({"ready": False, "error": "compiled pairing kernel "
                          f"not active (backend {backend}: {kernel_detail})"}),
              flush=True)
        return 3
    sink = spans.MemorySink(RECORDER) if RECORDER is not None else None
    gateway = VerificationGateway(kgc, workers=args.workers, sink=sink, seed=0)
    await gateway.start()
    try:
        print(json.dumps({
            "ready": True,
            "port": gateway.port,
            "pid": os.getpid(),
            "backend": backend,
            "kernel_active": kernel_active,
            "workers": args.workers,
        }), flush=True)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, sys.stdin.buffer.read)
    finally:
        await gateway.stop(drain=True, drain_timeout_s=5.0)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--curve", default="bn254")
    parser.add_argument("--backend", default="native")
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--require-kernel", action="store_true")
    args = parser.parse_args()
    code = asyncio.run(_serve(args))
    if RECORDER is not None:
        RECORDER.dump()
    return code


if __name__ == "__main__":
    sys.exit(main())
