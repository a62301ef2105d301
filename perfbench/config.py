"""Fixed deployment and workload parameters of the gateway benchmark.

Every later performance claim names a workload and a metric defined
here, so these numbers change only in a change that redefines the
benchmark.  The rated-phase rates are absolute (ops/s), set from the
benchmark's first measurements on a 2-vCPU host: about a quarter of
``slo_rps`` for ``fleet_verify`` and a twenty-fifth for ``session_fast``.
At half of ``slo_rps`` the gateway's queues are busy enough that rated
p50 follows host contention (it rose by half at 10% CPU steal), so the
rates sit lower.  ``session_fast`` runs at 1000 rather than 2500 ops/s:
under 7-20% steal its rated p50 rose by up to 49% at 2500 ops/s and by
up to 19% at 1000 ops/s in the same, interleaved phases.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

#: gateway launches per run; ``setup_s`` is the median over them
SETUP_LAUNCHES = 3

#: idle gap between phases and probes, so one's backlog never leaks into
#: the next
SETTLE_S = 0.3

#: closed-phase ramp not counted (the first windows of a fresh loop)
CLOSED_RAMP_S = 0.5

#: closed-phase slice length; throughput and CPU per op are slice medians
SLICE_S = 1.0

#: open-loop slice length for telling stolen from quiet time: short, so
#: an operation scheduled in a quiet slice (latencies are 1-20 ms) mostly
#: ran in quiet time, yet 50 /proc/stat ticks long on 2 CPUs
OPEN_SLICE_S = 0.25

#: fewest complete closed-phase slices a run needs; the phase ends early
#: when a connection's pre-built inputs run out (``Workload.closed_cap_rps``)
MIN_SLICES = 3

#: the latency percentile every search probe is judged on
LIMIT_PCT = 99.0

#: closed phase: operations in flight on each connection after every
#: top-up (a top-up follows once half of them have completed)
INFLIGHT = 64

#: search phase: number of probes, and the factor between probe rates
#: until the limit is bracketed (then bisection)
SEARCH_PROBES = 5
SEARCH_STEP = 1.2

#: length of every signed or MACed message, in bytes
MESSAGE_BYTES = 48

#: the toy curve smoke mode runs on
SMOKE_CURVE = "toy32"

#: longest wait for a phase's outstanding replies before they fail
DRAIN_TIMEOUT_S = 10.0

#: host contention: a measuring window during which the hypervisor stole
#: more than this share of the host's CPU time is void.  On a shared
#: 2-vCPU host a few seconds of steal otherwise cut a closed-loop slice
#: by a fifth, add a third to rated p50 or fail a search probe far below
#: the gateway's knee.  The closed and rated medians are over the quiet
#: seconds, or over the least-stolen half of the seconds when fewer are
#: quiet; a void search probe is repeated at the same rate, at most
#: VOID_PROBES times per search (the probe count stays fixed).
VOID_STEAL = 0.03
VOID_PROBES = 2

#: when the search probes have not bracketed the limit (none passed
#: because the host was busy throughout, or none failed because the
#: gateway outran them), up to this many more probes, each at half the
#: lowest failing or twice the highest passing rate, so ``slo_rps`` is
#: neither 0 for a busy host nor capped by the probe budget
RESCUE_PROBES = 5


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the phases it runs."""

    name: str
    why: str
    #: enrolled population
    devices: int
    #: share of requests whose expected verdict is False
    bad_share: float
    #: search phase: latency limit (ms) on the p99 (``LIMIT_PCT``)
    limit_ms: float
    #: rated phase: fixed Poisson arrival rate (ops/s)
    rated_rps: float
    #: search phase: rate of the first probe (ops/s)
    search_start_rps: float
    #: closed phase: ops/s the pre-built inputs cover for the whole phase
    #: (about twice the measured ``peak_rps``); a faster gateway runs out
    #: of them early and is measured over the slices before that
    closed_cap_rps: float
    #: share of --seconds spent in the closed, rated and search phases
    split: Tuple[float, float, float]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fleet_verify",
            why=(
                "pool and core.batch: the closed phase folds mixed-signer "
                "windows pairing-free, open-loop phases are one-item windows "
                "that pay McCLS.verify; 2% forged keeps bisection live"
            ),
            devices=256,
            bad_share=0.02,
            limit_ms=250.0,
            rated_rps=40.0,
            search_start_rps=140.0,
            closed_cap_rps=2800.0,
            split=(0.4, 0.2, 0.4),
        ),
        Workload(
            name="session_fast",
            why=(
                "no curve arithmetic: framing, event loop, pool hop and HMAC "
                "are the whole cost, so crypto changes predict no movement"
            ),
            devices=64,
            bad_share=0.01,
            limit_ms=50.0,
            rated_rps=1000.0,
            search_start_rps=24000.0,
            closed_cap_rps=60000.0,
            split=(0.25, 0.25, 0.5),
        ),
    )
}


def smoke_variant(workload: Workload) -> Workload:
    """The same workload shrunk for a few-second toy-curve check (whose
    verifies run faster than on BN254)."""
    return replace(
        workload,
        devices=min(workload.devices, 16),
        closed_cap_rps=2 * workload.closed_cap_rps,
        rated_rps=min(workload.rated_rps, 20.0),
        search_start_rps=min(workload.search_start_rps, 40.0),
        bad_share=max(workload.bad_share, 0.1),
    )
