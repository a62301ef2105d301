"""In-process per-operation costs, for the traced run's crypto cross-check.

Times each operation kind the traced gateway counts, on the same curve
and field backend, in this process: a Miller loop, a final
exponentiation, one term of a 64-term G1 MSM, a G1 multiplication of the
generator (comb table) and of another point, and a G2 multiplication on
the trusted (GLS) and the untrusted (plain wNAF) path.  Each cost is the
median of several timed calls.  ``layers.py`` multiplies these by the
counted operations and compares the sum with the measured crypto time.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable, Dict

from repro.pairing.groups import PairingContext
from repro.pairing.pairing import final_exponentiation, miller_loop


def _median_s(call: Callable[[], object], repeats: int, per_call: int = 1) -> float:
    call()  # warm caches and lazily built tables
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        samples.append((time.perf_counter() - started) / per_call)
    return statistics.median(samples)


def per_op_seconds(curve, repeats: int = 7) -> Dict[str, float]:
    """Median seconds per operation kind (keys match spans.OP_SLOTS)."""
    rng = random.Random(20240917)
    ctx = PairingContext(curve, rng, backend=curve.spec.backend)
    n = ctx.order
    p = ctx.g1_mul(ctx.g1, rng.randrange(1, n))
    q = ctx.g2_mul(ctx.g2, rng.randrange(1, n), in_subgroup=True)
    raw = miller_loop(curve, p, q)
    terms = [(ctx.g1_mul(ctx.g1, rng.randrange(1, n)), rng.randrange(1, 1 << 80))
             for _ in range(64)]
    ctx.fixed_base(ctx.g1, pin=True)
    return {
        "miller_loops": _median_s(lambda: miller_loop(curve, p, q), repeats),
        "final_exps": _median_s(lambda: final_exponentiation(curve, raw), repeats),
        "g1_msm_terms": _median_s(lambda: ctx.g1_msm(terms), repeats, len(terms)),
        "g1_mul_generator": _median_s(
            lambda: ctx.g1_mul(ctx.g1, rng.randrange(1, n)), repeats),
        "g1_mul_other": _median_s(lambda: ctx.g1_mul(p, rng.randrange(1, n)), repeats),
        "g2_mul_trusted": _median_s(
            lambda: ctx.g2_mul(q, rng.randrange(1, n), in_subgroup=True), repeats),
        "g2_mul_untrusted": _median_s(lambda: ctx.g2_mul(q, rng.randrange(1, n)), repeats),
    }
