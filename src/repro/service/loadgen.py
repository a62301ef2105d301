"""Load harness for the verification gateway (``python -m repro loadgen``).

Starts an in-process gateway on a loopback port (or targets an external
one), enrolls K identities, and drives N verify requests across M
pipelined connections in same-signer bursts - the traffic shape the
server's micro-batcher exists for.  A fraction of requests carry a
tampered message (signature valid, message mismatched) so the invalid
path is exercised under load.  BUSY sheds are retried after a jittered
exponential backoff (never a hot-loop re-queue), reads are bounded by a
timeout, and a dropped connection is re-dialled with the unanswered
window replayed - verify is idempotent, so replay can only cost work,
never correctness.

With ``workers > 0`` the in-process gateway runs its supervised crypto
worker pool; ``kill_worker_after`` then murders one worker mid-load
(``SIGKILL``, no goodbye) and the run asserts the supervisor restarted
it.  With a ``chaos`` plan the load connections are driven through the
wire-level :class:`~repro.service.chaosproxy.ChaosProxy` (resets,
stalls, latency, mid-frame truncation) while the control plane (enroll,
rekey, stats) keeps a direct connection.  Chaos runs enforce the hard
invariant of this service: **zero incorrect verdicts** - a request may
fail, it may never lie - plus a bounded error rate.

After the main phase the harness rekeys the KGC, re-enrolls a probe
identity and checks - through the STATS endpoint's cache accounting -
that the first post-rekey verify misses the pairing cache exactly once
and the second hits it: the bounded caches were invalidated, not leaked
(with a worker pool the accounting is the merged worker view, so this
also proves rekey propagation reached the workers).

Results (throughput, latency percentiles, server-side stage latency,
cache/eviction accounting, chaos and supervision reports) are written to
``benchmarks/results/BENCH_service.json``, stamped with a schema version
and run timestamp so ``python -m repro benchdiff`` can key on them.

With ``trace_out`` set, every request carries a wire trace id and the
run emits a JSONL span trace: the client's ``client.rtt`` root span plus
the gateway's ``server.request``/``queue_wait``/``batch_fold``/
``pairing``/``serialize`` stage spans, all nested under the request's
trace id.
"""

from __future__ import annotations

import asyncio
import datetime
import heapq
import itertools
import json
import random
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs.events import NULL_EVENT_SINK, open_sink
from repro.obs.trace import NULL_TRACER, Tracer
from repro.pairing.bn import toy_curve
from repro.service import protocol
from repro.service.chaosproxy import ChaosPlan, ChaosProxy
from repro.service.client import (
    IDEMPOTENT_OPCODES,
    RetryPolicy,
    ServiceClient,
)
from repro.service.protocol import Opcode, Status
from repro.service.server import VerificationGateway

#: default output location, next to BENCH_pairing.json
DEFAULT_OUT = "benchmarks/results/BENCH_service.json"

#: BENCH_service.json document version (bumped on shape changes so
#: ``repro benchdiff`` can key its comparisons on it); v3 added the
#: top-level ``backend`` field naming the gateway's field backend; v4
#: added the top-level ``p50_ms`` headline, the ``batch`` section
#: (cross-signer folds, bisections, fold-size histogram) and the
#: ``zipf`` identity-skew knob in the recorded config; v5 added the
#: ``session`` section (CL-AKA handshakes + MAC fast-path throughput,
#: its zero-pairing accounting and the post-rekey re-handshake probe)
BENCH_SCHEMA_VERSION = 5

#: a job is retried (BUSY, replay, retryable ERR) at most this often
#: before it is recorded as a hard error against the run's budget
MAX_JOB_ATTEMPTS = 6

#: consecutive re-dial failures before a connection driver gives up
MAX_REDIAL_FAILURES = 8


@dataclass(frozen=True)
class LoadgenConfig:
    """One load run, fully specified."""

    requests: int = 10_000
    identities: int = 1_000
    connections: int = 8
    burst: int = 16  # consecutive same-signer requests (batcher feed)
    #: Zipf exponent for identity skew (None -> uniform round-robin).
    #: With ``--zipf s`` each burst's signer is drawn with probability
    #: proportional to 1/rank**s, the traffic shape of a real fleet where
    #: a few chatty gateways dominate - the signer-anchor reuse that
    #: round-robin understates.
    zipf: Optional[float] = None
    invalid_every: int = 53  # every k-th request carries a tampered message
    window: int = 64  # per-connection pipelining depth
    bits: int = 32  # toy-curve size for the in-process gateway
    #: field-arithmetic backend for the in-process gateway (None -> env/default)
    backend: Optional[str] = None
    cache_size: int = 512  # pairing-cache bound (< identities -> evictions)
    queue_size: int = 4096
    max_batch: int = 64
    message_bytes: int = 48
    seed: int = 7
    rekey_check: bool = True
    out: Optional[str] = DEFAULT_OUT
    #: target an already-running gateway instead of an in-process one
    host: Optional[str] = None
    port: int = 0
    #: JSONL span-trace output; enables wire trace ids on every request
    trace_out: Optional[str] = None
    #: supervised crypto worker processes for the in-process gateway
    workers: int = 0
    #: per-request deadline budget stamped on every verify frame
    deadline_ms: Optional[int] = None
    #: SIGKILL one ready worker this many seconds into the main phase
    kill_worker_after: Optional[float] = None
    #: chaos-plan spec (see ChaosPlan.from_spec) for the load connections
    chaos: Optional[dict] = None
    #: max fraction of requests allowed to end in a hard error (chaos runs)
    error_budget: float = 0.01
    #: read timeout per pipelined reply batch (None -> 5s under chaos)
    call_timeout_s: Optional[float] = None
    #: run the session phase: CL-AKA handshakes, then MAC-authenticated
    #: VERIFY_FAST traffic (zero pairings warm) plus the post-rekey
    #: session-invalidation probe
    sessions: bool = False
    #: total fast-path requests the session phase drives
    session_requests: int = 4096


@dataclass
class _Job:
    """One pre-encoded verify request and its expectation."""

    frame: bytes
    expect_valid: bool
    trace_id: Optional[int] = None
    attempts: int = 0  # BUSY retries + replays consumed so far
    opcode: Opcode = Opcode.VERIFY


@dataclass
class _WorkerStats:
    latencies: List[float] = field(default_factory=list)
    valid: int = 0
    invalid: int = 0
    busy: int = 0
    reconnects: int = 0
    deadline_errors: int = 0
    worker_lost: int = 0
    errors: List[str] = field(default_factory=list)
    mismatches: int = 0  # verdict != expectation


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


class _ConnectionDropped(Exception):
    """Internal: the driver's connection died; replay the window."""


async def _drive_connection(
    host: str,
    port: int,
    jobs: deque,
    stats: _WorkerStats,
    window: int,
    tracer: Tracer = NULL_TRACER,
    retry: Optional[RetryPolicy] = None,
    read_timeout_s: Optional[float] = None,
    rng_seed: str = "loadgen/conn",
) -> None:
    """Pipeline one connection's share of the load.

    BUSY sheds re-enter the stream after a jittered exponential backoff
    (a deferred heap, so the connection keeps pumping other work instead
    of hot-looping on a shed request).  A read timeout or connection
    loss re-dials and replays every unanswered request until a job
    exhausts :data:`MAX_JOB_ATTEMPTS` and is recorded as a hard error.
    Only a job whose opcode is in
    :data:`~repro.service.client.IDEMPOTENT_OPCODES` is ever re-sent: a
    VERIFY_FAST sequence number is consumed server-side, so its replay
    would be judged a replay, and such a job is recorded as an error
    instead.
    """
    retry = retry if retry is not None else RetryPolicy()
    rng = random.Random(rng_seed)
    deferred: List = []  # (ready_at, tiebreak, job) min-heap
    tiebreak = 0

    def defer(job: _Job, reason: str) -> None:
        nonlocal tiebreak
        job.attempts += 1
        if job.opcode not in IDEMPOTENT_OPCODES:
            stats.errors.append(f"{job.opcode.name} not re-sent: {reason}")
            return
        if job.attempts >= MAX_JOB_ATTEMPTS:
            stats.errors.append(
                f"gave up after {job.attempts} attempts: {reason}"
            )
            return
        ready_at = time.perf_counter() + retry.delay_s(job.attempts - 1, rng)
        tiebreak += 1
        heapq.heappush(deferred, (ready_at, tiebreak, job))

    def pending() -> bool:
        return bool(jobs or deferred)

    redial_failures = 0
    while pending():
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except OSError as exc:
            redial_failures += 1
            if redial_failures >= MAX_REDIAL_FAILURES:
                while jobs:
                    stats.errors.append(f"connect failed: {exc}")
                    jobs.popleft()
                while deferred:
                    stats.errors.append(f"connect failed: {exc}")
                    heapq.heappop(deferred)
                return
            await asyncio.sleep(retry.delay_s(redial_failures - 1, rng))
            continue
        redial_failures = 0
        outstanding: deque = deque()

        async def read_exactly(n: int) -> bytes:
            if read_timeout_s is None:
                return await reader.readexactly(n)
            return await asyncio.wait_for(reader.readexactly(n), read_timeout_s)

        async def pump(count: int) -> None:
            for _ in range(count):
                header = await read_exactly(4)
                body = await read_exactly(protocol.frame_length(header))
                started, job = outstanding.popleft()
                elapsed = time.perf_counter() - started
                stats.latencies.append(elapsed)
                if job.trace_id is not None and tracer.enabled:
                    tracer.record(
                        "client.rtt",
                        trace_id=job.trace_id,
                        span_id=f"t{job.trace_id}",
                        start_s=started,
                        dur_s=elapsed,
                    )
                status, payload = protocol.decode_reply(body)
                if status == Status.BUSY:
                    stats.busy += 1
                    defer(job, "BUSY")
                elif status == Status.ERR:
                    detail = payload.decode("utf-8", "replace")
                    if detail.startswith("deadline exceeded"):
                        stats.deadline_errors += 1
                        defer(job, detail)
                    elif detail.startswith("worker-lost"):
                        stats.worker_lost += 1
                        defer(job, detail)
                    else:
                        stats.errors.append(detail)
                else:
                    valid = protocol.decode_verify_verdict(payload)
                    if valid:
                        stats.valid += 1
                    else:
                        stats.invalid += 1
                    if valid != job.expect_valid:
                        stats.mismatches += 1

        try:
            try:
                while pending() or outstanding:
                    now = time.perf_counter()
                    while deferred and deferred[0][0] <= now:
                        jobs.append(heapq.heappop(deferred)[2])
                    while jobs and len(outstanding) < window:
                        job = jobs.popleft()
                        outstanding.append((time.perf_counter(), job))
                        writer.write(job.frame)
                    if not outstanding:
                        # Nothing in flight: everything left is deferred
                        # into the future; sleep until the head matures.
                        if deferred:
                            await asyncio.sleep(
                                max(0.0, deferred[0][0] - time.perf_counter())
                            )
                        continue
                    await writer.drain()
                    await pump(min(len(outstanding), max(1, window // 2)))
            except (
                asyncio.IncompleteReadError,
                asyncio.TimeoutError,
                ConnectionError,
                OSError,
            ) as exc:
                raise _ConnectionDropped(
                    f"{type(exc).__name__}: {exc}"
                ) from exc
        except _ConnectionDropped as drop:
            # The reply stream is gone; every unanswered request in the
            # window is replayed on a fresh connection (if idempotent).
            stats.reconnects += 1
            while outstanding:
                _started, job = outstanding.popleft()
                defer(job, str(drop))
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


async def _session_phase(
    host: str,
    port: int,
    control: ServiceClient,
    identities: List[str],
    keys: Dict,
    config: LoadgenConfig,
) -> Dict:
    """Handshakes, the MAC fast path under pairing accounting, and the
    post-rekey invalidation probe.

    The fast-path window runs with a live obs registry installed, so the
    report can state - not estimate - how many Miller loops / final
    exponentiations the steady state cost (zero, or the run fails its
    ``session_zero_pairings`` check).
    """
    from repro.obs.registry import Registry, set_registry

    n_conns = max(1, min(config.connections, len(identities)))
    chosen = identities[:n_conns]
    clients: List[ServiceClient] = []
    handshake_started = time.perf_counter()
    for identity in chosen:
        session_client = ServiceClient(host, port)
        await session_client.connect()
        await session_client.params()
        await session_client.start_session(keys[identity])
        clients.append(session_client)
    handshake_seconds = time.perf_counter() - handshake_started

    # pre-encode every frame (MACs included) outside the timed window,
    # mirroring the verify phase's pre-signed request stream
    message = b"S" * config.message_bytes
    per_conn = max(1, config.session_requests // n_conns)
    shares: List[deque] = []
    for session_client in clients:
        session = session_client.session
        jobs: deque = deque()
        for seq in range(1, per_conn + 1):
            mac = session.mac(
                *protocol.fast_verify_mac_bytes(
                    session.session_id, seq, session.client_identity, message
                )
            )
            payload = protocol.encode_verify_fast_payload(
                session.client_identity,
                session.session_id,
                seq,
                message,
                mac,
            )
            jobs.append(
                _Job(
                    frame=protocol.encode_frame(
                        protocol.encode_request(Opcode.VERIFY_FAST, payload)
                    ),
                    expect_valid=True,
                    opcode=Opcode.VERIFY_FAST,
                )
            )
        shares.append(jobs)
    requests = sum(len(jobs) for jobs in shares)
    workers = [_WorkerStats() for _ in shares]

    registry = Registry()
    previous = set_registry(registry)
    try:
        before = registry.field_ops.snapshot()
        fast_started = time.perf_counter()
        await asyncio.gather(
            *(
                _drive_connection(host, port, jobs, stats, config.window)
                for jobs, stats in zip(shares, workers)
            )
        )
        fast_seconds = time.perf_counter() - fast_started
        pairing_delta = registry.field_ops.diff(before)
    finally:
        set_registry(previous)

    # -- rekey kills every session: the probe's first fast request must
    # be rejected (unknown session) and transparently re-handshaken
    stats_before = await control.stats()
    await control.rekey()
    probe = clients[0]
    try:
        rekey_verify_ok = bool(await probe.verify_fast(b"post-rekey probe"))
    except Exception as exc:  # recorded, judged by the checks below
        rekey_verify_ok = False
        workers[0].errors.append(f"post-rekey fast verify failed: {exc}")
    stats_after = await control.stats()
    for session_client in clients:
        await session_client.close()

    counters_before = stats_before["counters"]
    counters_after = stats_after["counters"]
    latencies = sorted(lat for stats in workers for lat in stats.latencies)
    errors = [err for stats in workers for err in stats.errors]
    valid = sum(stats.valid for stats in workers)
    invalid = sum(stats.invalid for stats in workers)
    return {
        "connections": n_conns,
        "handshakes": n_conns,
        "handshake_seconds": round(handshake_seconds, 3),
        "handshakes_per_second": round(n_conns / handshake_seconds, 1),
        "requests": requests,
        "seconds": round(fast_seconds, 3),
        "throughput_rps": round(requests / fast_seconds, 1),
        "valid": valid,
        "invalid": invalid,
        "errors": len(errors),
        "error_samples": errors[:5],
        "latency_ms": {
            "p50": round(_percentile(latencies, 0.50) * 1e3, 3),
            "p99": round(_percentile(latencies, 0.99) * 1e3, 3),
        },
        "fast_path_pairings": {
            "miller_loops": pairing_delta.get("miller_loops", 0),
            "final_exps": pairing_delta.get("final_exps", 0),
        },
        "rekey": {
            "first_rejected": (
                counters_after.get("fast_verify_unknown_session", 0)
                > counters_before.get("fast_verify_unknown_session", 0)
            ),
            "rehandshake_verify_ok": rekey_verify_ok,
            "sessions_killed": (
                counters_after.get("sessions_killed_by_rekey", 0)
                - counters_before.get("sessions_killed_by_rekey", 0)
            ),
        },
    }


async def _run(config: LoadgenConfig) -> Dict:
    sink = open_sink(config.trace_out)
    tracer = Tracer(sink) if sink.enabled else NULL_TRACER
    chaos_plan = (
        ChaosPlan.from_spec(config.chaos) if config.chaos is not None else None
    )
    gateway = None
    proxy = None
    if config.host is None:
        gateway = VerificationGateway(
            curve=toy_curve(config.bits, backend=config.backend),
            backend=config.backend,
            seed=config.seed,
            cache_size=config.cache_size,
            queue_size=config.queue_size,
            max_batch=config.max_batch,
            sink=sink if sink.enabled else None,
            workers=config.workers,
        )
        await gateway.start()
        host, port = gateway.host, gateway.port
    else:
        host, port = config.host, config.port

    # The load connections go through the chaos proxy (when planned);
    # the control plane below keeps a direct, calm connection.
    load_host, load_port = host, port
    if chaos_plan is not None and not chaos_plan.empty:
        proxy = ChaosProxy(host, port, chaos_plan)
        await proxy.start()
        load_host, load_port = proxy.host, proxy.port
    read_timeout_s = config.call_timeout_s
    if read_timeout_s is None and proxy is not None:
        read_timeout_s = max(5.0, 2 * chaos_plan.stall_s + 1.0)

    client = ServiceClient(host, port)
    await client.connect()
    try:
        params_doc = await client.params()
        # The PARAMS document names the gateway's field backend; a remote
        # gateway from before the backend field reports "unspecified".
        backend_name = params_doc.get("backend") or "unspecified"

        # -- enrollment phase ---------------------------------------------
        enroll_started = time.perf_counter()
        identities = [f"node-{i:05d}" for i in range(config.identities)]
        keys = {}
        for identity in identities:
            keys[identity] = await client.enroll(identity)
        enroll_seconds = time.perf_counter() - enroll_started

        # -- pre-sign and pre-encode the request stream -------------------
        curve = client.curve
        message = b"M" * config.message_bytes
        tampered = b"X" * config.message_bytes
        signatures = {
            identity: client.sign(message, keys[identity])
            for identity in identities
        }
        jobs: List[_Job] = []
        index = 0
        # Cap the burst length so the request budget still cycles through
        # every identity at least once (the cache-bounding demo needs all
        # K distinct (P_pub, Q_ID) pairs to hit the verifier).
        burst = max(1, min(config.burst, config.requests // config.identities))
        zipf_rng = None
        zipf_cum_weights = None
        if config.zipf is not None:
            zipf_rng = random.Random(f"loadgen/{config.seed}/zipf")
            weights = [
                1.0 / (rank ** config.zipf)
                for rank in range(1, len(identities) + 1)
            ]
            zipf_cum_weights = list(itertools.accumulate(weights))
        while len(jobs) < config.requests:
            if zipf_rng is not None:
                identity = zipf_rng.choices(
                    identities, cum_weights=zipf_cum_weights
                )[0]
            else:
                identity = identities[index % len(identities)]
            index += 1
            for _ in range(min(burst, config.requests - len(jobs))):
                bad = (len(jobs) + 1) % config.invalid_every == 0
                payload = protocol.encode_verify_payload(
                    curve,
                    identity,
                    keys[identity].public_key,
                    tampered if bad else message,
                    signatures[identity],
                )
                trace_id = len(jobs) + 1 if tracer.enabled else None
                frame = protocol.encode_frame(
                    protocol.encode_request(
                        Opcode.VERIFY,
                        payload,
                        trace_id,
                        deadline_ms=config.deadline_ms,
                    )
                )
                jobs.append(
                    _Job(
                        frame=frame,
                        expect_valid=not bad,
                        trace_id=trace_id,
                    )
                )

        # -- main phase: M pipelined connections --------------------------
        shares = [deque() for _ in range(config.connections)]
        chunk = (len(jobs) + config.connections - 1) // config.connections
        for i, job in enumerate(jobs):
            shares[i // chunk].append(job)
        workers = [_WorkerStats() for _ in shares]
        assassin = None
        if (
            config.kill_worker_after is not None
            and gateway is not None
            and gateway.pool is not None
        ):
            assassin = asyncio.ensure_future(
                _kill_one_worker(gateway, config.kill_worker_after)
            )
        main_started = time.perf_counter()
        await asyncio.gather(
            *(
                _drive_connection(
                    load_host,
                    load_port,
                    share,
                    stats,
                    config.window,
                    tracer,
                    retry=RetryPolicy(attempts=MAX_JOB_ATTEMPTS),
                    read_timeout_s=read_timeout_s,
                    rng_seed=f"loadgen/{config.seed}/conn/{i}",
                )
                for i, (share, stats) in enumerate(zip(shares, workers))
            )
        )
        main_seconds = time.perf_counter() - main_started
        kill_report = None
        if assassin is not None:
            kill_report = await assassin
            if kill_report is not None:
                await _await_restart(client)

        latencies = sorted(
            lat for stats in workers for lat in stats.latencies
        )
        errors = [err for stats in workers for err in stats.errors]
        mismatches = sum(stats.mismatches for stats in workers)
        busy = sum(stats.busy for stats in workers)
        valid = sum(stats.valid for stats in workers)
        invalid = sum(stats.invalid for stats in workers)
        reconnects = sum(stats.reconnects for stats in workers)
        deadline_errors = sum(stats.deadline_errors for stats in workers)
        worker_lost = sum(stats.worker_lost for stats in workers)

        # -- session phase: CL-AKA handshakes + MAC fast path -------------
        # Runs before the rekey check: handshake hellos are signed with
        # the enrollment-phase keys, which any rekey would invalidate.
        session_report = None
        if config.sessions:
            session_report = await _session_phase(
                host, port, client, identities, keys, config
            )

        # -- rekey invalidation check -------------------------------------
        rekey_report = None
        if config.rekey_check:
            rekey_report = await _rekey_check(client)

        stats_doc = await client.stats()
        cache = stats_doc["cache"]
        pool_doc = stats_doc.get("pool")
        chaotic = proxy is not None
        answered = valid + invalid
        error_rate = len(errors) / max(1, config.requests)
        checks = {
            # a request may fail; it may never lie
            "verdicts_exact": mismatches == 0,
            "all_accounted": answered + len(errors) == config.requests,
            "error_budget": (
                error_rate <= config.error_budget if chaotic else not errors
            ),
            "cache_bounded": (
                cache["pairing"]["peak_size"] <= config.cache_size
                and cache["miller"]["peak_size"] <= config.cache_size
            ),
            "evictions_seen": (
                # A zipf-skewed run concentrates on few identities by
                # design, and a run whose windows folded cross-signer
                # batches skips the per-identity pairing cache for every
                # anchored verify; the cache-pressure demo only binds on
                # uniform per-item sweeps that visit every identity.
                config.zipf is not None
                or stats_doc["counters"].get("cross_signer_folds", 0) > 0
                or config.identities
                <= config.cache_size * max(1, config.workers)
                or cache["miller"]["evictions"] > 0
            ),
            "rekey": rekey_report is None or rekey_report["ok"],
            "worker_restarted": (
                kill_report is None
                or (
                    pool_doc is not None
                    and pool_doc["supervisor"]["restarts"] >= 1
                )
            ),
        }
        if session_report is not None:
            pairings = session_report["fast_path_pairings"]
            checks["session_zero_pairings"] = (
                pairings["miller_loops"] == 0 and pairings["final_exps"] == 0
            )
            checks["session_fast_path_clean"] = (
                session_report["invalid"] == 0
                and session_report["errors"] == 0
                and session_report["valid"] == session_report["requests"]
            )
            # the whole point of the MAC fast path: it must beat the
            # pairing-based verify phase by a wide margin
            checks["session_speedup"] = session_report[
                "throughput_rps"
            ] >= 3.0 * (config.requests / main_seconds)
            checks["session_rekey_rehandshake"] = (
                session_report["rekey"]["first_rejected"]
                and session_report["rekey"]["rehandshake_verify_ok"]
                and session_report["rekey"]["sessions_killed"] >= 1
            )
        result = {
            "schema_version": BENCH_SCHEMA_VERSION,
            "generated_at": datetime.datetime.now(
                datetime.timezone.utc
            ).isoformat(timespec="seconds"),
            "backend": backend_name,
            #: headline number dashboards key on without digging into
            #: the verify section
            "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
            "config": asdict(config),
            "enroll": {
                "identities": config.identities,
                "seconds": round(enroll_seconds, 3),
                "per_second": round(config.identities / enroll_seconds, 1),
            },
            "verify": {
                "requests": config.requests,
                "seconds": round(main_seconds, 3),
                "throughput_rps": round(config.requests / main_seconds, 1),
                "valid": valid,
                "invalid": invalid,
                "busy_retries": busy,
                "verdict_mismatches": mismatches,
                "connection_errors": len(errors),
                "reconnects": reconnects,
                "deadline_errors": deadline_errors,
                "worker_lost_errors": worker_lost,
                "deadline_expirations": stats_doc["counters"].get(
                    "deadline_expirations", 0
                ),
                "error_samples": errors[:5],
                "latency_ms": {
                    "p50": round(_percentile(latencies, 0.50) * 1e3, 3),
                    "p90": round(_percentile(latencies, 0.90) * 1e3, 3),
                    "p95": round(_percentile(latencies, 0.95) * 1e3, 3),
                    "p99": round(_percentile(latencies, 0.99) * 1e3, 3),
                    "max": round(latencies[-1] * 1e3, 3) if latencies else 0.0,
                },
            },
            "batch": {
                "cross_signer_folds": stats_doc["counters"].get(
                    "cross_signer_folds", 0
                ),
                "cross_signer_requests": stats_doc["counters"].get(
                    "cross_signer_requests", 0
                ),
                "bisections": stats_doc["counters"].get("cross_bisections", 0),
                "fold_size": stats_doc.get("batch", {}).get("fold_size"),
            },
            "cache": cache,
            "server_counters": stats_doc["counters"],
            "server_latency_ms": stats_doc.get("latency_ms"),
            "pool": pool_doc,
            "chaos": (
                {
                    "plan": chaos_plan.to_spec(),
                    "injected": proxy.summary(),
                    "error_rate": round(error_rate, 5),
                }
                if chaotic
                else None
            ),
            "worker_kill": kill_report,
            "trace": (
                {"path": config.trace_out, "spans": sink.emitted}
                if sink.enabled
                else None
            ),
            "rekey": rekey_report,
            "session": session_report,
            "checks": checks,
            "ok": all(checks.values()),
        }
        return result
    finally:
        await client.close()
        if proxy is not None:
            await proxy.stop()
        if gateway is not None:
            await gateway.stop()
        if sink is not NULL_EVENT_SINK:
            sink.close()


async def _kill_one_worker(
    gateway: VerificationGateway, after_s: float
) -> Optional[Dict]:
    """SIGKILL the first ready worker ``after_s`` into the main phase."""
    await asyncio.sleep(after_s)
    pool = gateway.pool
    if pool is None:
        return None
    for handle in pool.handles():
        if handle.state == "ready" and handle.process is not None:
            pid = handle.pid
            handle.process.kill()
            return {"worker": handle.index, "pid": pid, "after_s": after_s}
    return None


async def _await_restart(client: ServiceClient, timeout_s: float = 5.0) -> None:
    """Give the supervisor a moment to restart the murdered worker."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        stats_doc = await client.stats()
        pool_doc = stats_doc.get("pool")
        if pool_doc is not None and pool_doc["supervisor"]["restarts"] >= 1:
            return
        await asyncio.sleep(0.1)


async def _rekey_check(client: ServiceClient) -> Dict:
    """Post-rekey, a fresh verify must miss the cache once, then hit."""
    await client.rekey()
    probe_keys = await client.enroll("rekey-probe")
    message = b"post-rekey probe"
    signature = client.sign(message, probe_keys)

    def misses(doc):
        return doc["cache"]["miller"]["misses"] + doc["cache"]["pairing"]["misses"]

    def hits(doc):
        return doc["cache"]["miller"]["hits"] + doc["cache"]["pairing"]["hits"]

    before = await client.stats()
    first_ok = await client.verify(
        "rekey-probe", probe_keys.public_key, message, signature
    )
    after_first = await client.stats()
    second_ok = await client.verify(
        "rekey-probe", probe_keys.public_key, message, signature
    )
    after_second = await client.stats()

    first_misses = misses(after_first) - misses(before)
    first_hits = hits(after_first) - hits(before)
    second_misses = misses(after_second) - misses(after_first)
    second_hits = hits(after_second) - hits(after_first)
    return {
        "post_rekey_verify_ok": bool(first_ok and second_ok),
        "first_verify": {"misses": first_misses, "hits": first_hits},
        "second_verify": {"misses": second_misses, "hits": second_hits},
        "ok": bool(
            first_ok
            and second_ok
            and first_misses == 1
            and first_hits == 0
            and second_misses == 0
            and second_hits == 1
        ),
    }


def run_loadgen(config: LoadgenConfig) -> Dict:
    """Execute one load run and (optionally) write the BENCH file."""
    result = asyncio.run(_run(config))
    if config.out:
        path = Path(config.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result, indent=2) + "\n")
    return result


def summary_lines(result: Dict) -> List[str]:
    """Human-readable digest of one load run."""
    verify = result["verify"]
    cache = result["cache"]
    lines = [
        f"backend: {result.get('backend', 'unspecified')}",
        f"verify: {verify['requests']} requests in {verify['seconds']}s "
        f"({verify['throughput_rps']} req/s)",
        f"latency ms: p50={verify['latency_ms']['p50']} "
        f"p90={verify['latency_ms']['p90']} "
        f"p95={verify['latency_ms'].get('p95', 0.0)} "
        f"p99={verify['latency_ms']['p99']}",
        f"verdicts: {verify['valid']} valid, {verify['invalid']} invalid, "
        f"{verify['busy_retries']} busy retries, "
        f"{verify['connection_errors']} connection errors",
        f"miller cache: peak {cache['miller']['peak_size']}/"
        f"{result['config']['cache_size']}, "
        f"{cache['miller']['evictions']} evictions",
    ]
    batch = result.get("batch")
    if batch and batch.get("cross_signer_folds"):
        lines.append(
            f"cross-signer: {batch['cross_signer_folds']} folds over "
            f"{batch['cross_signer_requests']} requests, "
            f"{batch['bisections']} bisections"
        )
    pool = result.get("pool")
    if pool:
        supervisor = pool["supervisor"]
        ready = sum(1 for w in pool["workers"] if w["state"] == "ready")
        lines.append(
            f"workers: {ready}/{pool['size']} ready, "
            f"{supervisor['restarts']} restarts "
            f"({supervisor['crashes']} crashes, {supervisor['hangs']} hangs, "
            f"{supervisor['job_timeouts']} job timeouts)"
        )
    chaos = result.get("chaos")
    if chaos:
        injected = chaos["injected"]
        lines.append(
            f"chaos: {injected['resets']} resets, "
            f"{injected['truncations']} truncations, "
            f"{injected['stalls']} stalls over "
            f"{injected['forwarded_frames']} forwarded frames; "
            f"error rate {chaos['error_rate']:.4f} "
            f"(budget {result['config']['error_budget']})"
        )
    if result.get("worker_kill"):
        kill = result["worker_kill"]
        lines.append(
            f"worker kill: worker {kill['worker']} (pid {kill['pid']}) "
            f"SIGKILLed {kill['after_s']}s into the run"
        )
    if result.get("session"):
        session = result["session"]
        pairings = session["fast_path_pairings"]
        lines.append(
            f"session: {session['handshakes']} handshakes in "
            f"{session['handshake_seconds']}s, then {session['requests']} "
            f"fast verifies in {session['seconds']}s "
            f"({session['throughput_rps']} req/s, "
            f"{pairings['miller_loops']} miller loops, "
            f"{pairings['final_exps']} final exps)"
        )
        lines.append(
            f"session rekey: first_rejected={session['rekey']['first_rejected']} "
            f"rehandshake_ok={session['rekey']['rehandshake_verify_ok']} "
            f"killed={session['rekey']['sessions_killed']}"
        )
    if result.get("trace"):
        lines.append(
            f"trace: {result['trace']['spans']} spans -> "
            f"{result['trace']['path']}"
        )
    if result.get("rekey"):
        rekey = result["rekey"]
        lines.append(
            "rekey: first verify "
            f"misses={rekey['first_verify']['misses']} "
            f"hits={rekey['first_verify']['hits']}; second verify "
            f"misses={rekey['second_verify']['misses']} "
            f"hits={rekey['second_verify']['hits']}"
        )
    if not result["ok"]:
        failed = [name for name, passed in result["checks"].items() if not passed]
        lines.append(f"failed checks: {', '.join(failed)}")
    lines.append(f"result: {'OK' if result['ok'] else 'FAILED'}")
    return lines
