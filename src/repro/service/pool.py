"""Supervised crypto worker pool for the verification gateway.

The gateway's pairings are pure CPU; on the event loop they serialise
every connection behind one slow verify.  This module moves them into a
pool of **worker processes**, each holding a verifier view of the scheme
(public params only - the KGC master secret never crosses the process
boundary) plus its own bounded pairing caches:

* **Identity-affinity routing.**  A verify window is routed by its
  (dominant) signer's ``crc32(identity) % size``, so one worker's
  Miller/GT and anchor caches stay hot for its identity partition
  instead of every worker thrashing over the whole key population.  When
  the affine worker is dead or restarting, the window falls over to
  another live worker (correctness never depends on affinity).

* **Crash/hang containment.**  Each worker is watched by the
  :class:`~repro.service.supervisor.WorkerSupervisor`: process exits and
  pipe EOFs surface immediately, heartbeats catch silent hangs, and a
  per-job deadline bounds poisoned requests.  A lost worker fails its
  in-flight jobs with :class:`~repro.errors.WorkerLostError` - the
  gateway turns those into clean ``ERR`` replies, **never a hung
  future** - and is respawned under jittered backoff.

* **Rekey propagation.**  :meth:`VerifyWorkerPool.broadcast_params`
  ships the post-rekey params document to every live worker; the pipe's
  FIFO ordering guarantees any job submitted afterwards verifies under
  the new master public key.  Workers report *cumulative* cache stats
  across param generations, so invalidation probes (miss-once-then-hit)
  keep working through the pool.

Every job is one VERIFY window, and the worker answers it with
:func:`verify_window` - the function the gateway runs inline when it
has no pool - so both serving modes share one verify pipeline.
VERIFY_FAST never reaches a worker: the gateway answers it from its own
session table, the single authority over session TTL and eviction.

Wire format parent -> worker (pickled tuples over a duplex pipe):
``("job", id, [payload, ...])`` (one verify window, from one signer or
several), ``("params", doc)`` (rekey: rebuild the verifier view),
``("ping", seq)``, ``("sleep", seconds)`` (a chaos/test hook simulating
a hard hang) and ``("stop",)``.  Worker -> parent: ``("ready", pid)``,
``("pong", seq)``, ``("done", id, results, crypto_s, fallback,
cache_stats, fold_stats)`` (the last element is the fold's accounting,
``{}`` when nothing folded) and ``("failed", id, detail)``.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import threading
import time
import zlib
from typing import Dict, List, Optional, Tuple

from repro.core.batch import McCLSBatchVerifier
from repro.errors import ReproError, ServiceError, WorkerLostError
from repro.service import protocol
from repro.service.supervisor import RestartBackoff, WorkerSupervisor

#: one item's verdict from a worker: ("ok", bool) or ("err", detail)
ItemResult = Tuple[str, object]

#: (results, crypto seconds, fallback flag, fold stats) for one window
WindowResult = Tuple[List[ItemResult], float, bool, Dict[str, object]]

#: what hostile-but-decodable content can raise out of the verify math
_ARITHMETIC = (ReproError, ValueError, ZeroDivisionError, ArithmeticError)


def merge_cache_stats(*stats: Dict[str, Dict[str, int]]) -> Dict[str, Dict[str, int]]:
    """Merge per-context cache accounting documents.

    Monotonic counters (hits/misses/evictions) add; ``peak_size`` takes
    the max (every context respected its own bound, so the max is the
    honest "worst cache pressure seen anywhere"); ``size``/``maxsize``
    come from the last document naming them.
    """
    merged: Dict[str, Dict[str, int]] = {}
    for document in stats:
        for name, entry in document.items():
            into = merged.setdefault(name, {})
            for key in ("hits", "misses", "evictions"):
                if key in entry or key in into:
                    into[key] = into.get(key, 0) + entry.get(key, 0)
            into["peak_size"] = max(
                into.get("peak_size", 0), entry.get("peak_size", 0)
            )
            for key in ("size", "maxsize"):
                if key in entry:
                    into[key] = entry[key]
    return merged


# ---------------------------------------------------------------------------
# Verify windows and the worker process
# ---------------------------------------------------------------------------


def _verify_item(
    batcher: McCLSBatchVerifier, request: protocol.VerifyRequest
) -> ItemResult:
    try:
        return (
            "ok",
            bool(
                batcher.verify(
                    request.message,
                    request.signature,
                    request.identity,
                    request.public_key,
                )
            ),
        )
    except _ARITHMETIC as exc:
        return ("err", f"verification failed: {exc}")


def verify_window(
    batcher: McCLSBatchVerifier, payloads: List[bytes]
) -> WindowResult:
    """Verdicts for one window of raw VERIFY payloads, from any signers.

    A payload that does not decode becomes an ``("err", detail)`` item.
    When more than one item is live, or the lone live item's signer is
    already anchored, the window folds through
    :meth:`~repro.core.batch.McCLSBatchVerifier.verify_cross_signer`:
    once a signer's anchor W = x*P is admitted, its items settle with
    zero pairings, and a tampered item bisects down in pure G1 to an
    exact verdict.  A lone item of an unanchored (or unanchorable)
    signer pays exactly one ``McCLS.verify`` - never the costlier
    admission, so its constant pairing still comes from the Miller
    cache - and so does every item of a window the fold cannot weigh.

    Returns (results, crypto_s, fallback, fold_stats): per-item results
    in payload order, the crypto seconds, whether the fold was abandoned
    for per-item work, and the fold's accounting document
    (``folds``/``bisections``/..., ``{}`` when nothing folded).
    """
    curve = batcher.ctx.curve
    results: List[Optional[ItemResult]] = []
    live: List[Tuple[int, protocol.VerifyRequest]] = []
    for index, payload in enumerate(payloads):
        try:
            live.append((index, protocol.decode_verify_payload(curve, payload)))
            results.append(None)  # settled below
        except ReproError as exc:
            results.append(("err", str(exc)))
    started = time.perf_counter()
    fallback = False
    fold_stats: Dict[str, object] = {}
    verdicts: Optional[List[ItemResult]] = None
    fold = len(live) > 1
    if len(live) == 1:
        lone = live[0][1]
        fold = batcher.is_anchored(lone.identity, lone.public_key, lone.signature)
    if fold:
        try:
            flags, fold_stats = batcher.verify_cross_signer(
                [
                    (r.message, r.signature, r.identity, r.public_key)
                    for _index, r in live
                ]
            )
            verdicts = [("ok", bool(ok)) for ok in flags]
        except _ARITHMETIC:
            fallback = True
    if verdicts is None:
        verdicts = [_verify_item(batcher, request) for _index, request in live]
    for (index, _request), verdict in zip(live, verdicts):
        results[index] = verdict
    return results, time.perf_counter() - started, fallback, fold_stats


def _worker_main(conn, params_doc: dict, cache_size: Optional[int]) -> None:
    """Worker process entry: build a verifier view, answer jobs forever.

    The params document carries the gateway's field-backend name
    (``backend`` key), so a spawn-started worker - which inherits no
    parent interpreter state - reconstructs its verifier view on the SAME
    backend the gateway selected, kernel compilation and all, rather than
    silently falling back to the env/default precedence.
    """
    # imported here so the docstring-level import graph stays acyclic
    from repro.service.client import build_verifier_view

    try:
        _curve, view = build_verifier_view(params_doc, cache_size=cache_size)
        batcher = McCLSBatchVerifier(view)
        # cache accounting accumulated across params generations, so a
        # rekey (which rebuilds the context) does not reset the totals
        # the gateway's STATS report
        stats_base: Dict[str, Dict[str, int]] = {}
        conn.send(("ready", multiprocessing.current_process().pid))
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "stop":
                return
            if kind == "ping":
                conn.send(("pong", message[1]))
            elif kind == "params":
                stats_base = merge_cache_stats(
                    stats_base, view.ctx.cache_stats()
                )
                _curve, view = build_verifier_view(
                    message[1], cache_size=cache_size
                )
                batcher = McCLSBatchVerifier(view)
                conn.send(("ready", multiprocessing.current_process().pid))
            elif kind == "sleep":
                # chaos/test hook: a hard synchronous hang
                time.sleep(message[1])
            elif kind == "job":
                job_id, payloads = message[1], message[2]
                try:
                    results, crypto_s, fallback, fold_stats = verify_window(
                        batcher, payloads
                    )
                    conn.send(
                        (
                            "done",
                            job_id,
                            results,
                            crypto_s,
                            fallback,
                            merge_cache_stats(
                                stats_base, view.ctx.cache_stats()
                            ),
                            fold_stats,
                        )
                    )
                except Exception as exc:  # total: one bad job != one worker
                    conn.send(
                        ("failed", job_id, f"{type(exc).__name__}: {exc}")
                    )
    except (EOFError, OSError, KeyboardInterrupt):
        return  # parent went away (or killed us): just exit


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class _WorkerHandle:
    """Parent-side view of one worker slot (survives restarts)."""

    def __init__(self, index: int):
        self.index = index
        self.generation = 0
        self.state = "dead"  # dead -> starting -> ready
        self.process = None
        self.conn = None
        self.pending: Dict[int, Tuple[asyncio.Future, float]] = {}
        self.started_at = 0.0
        self.last_pong = 0.0
        self.restarts = 0  # lifetime respawns (stats)
        self.crash_streak = 0  # consecutive losses (backoff level)
        self.restart_at: Optional[float] = None
        self.cache_stats: Dict[str, Dict[str, int]] = {}
        self.jobs_done = 0

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    def oldest_job_age(self, now: float) -> Optional[float]:
        """Age of the oldest in-flight job, or None when idle."""
        if not self.pending:
            return None
        return now - min(started for _fut, started in self.pending.values())


class VerifyWorkerPool:
    """A supervised pool of verifier-view worker processes."""

    def __init__(
        self,
        params_doc: dict,
        size: int,
        *,
        cache_size: Optional[int] = None,
        job_timeout_s: float = 30.0,
        heartbeat_interval_s: float = 0.25,
        heartbeat_timeout_s: float = 2.0,
        backoff: Optional[RestartBackoff] = None,
        start_timeout_s: float = 60.0,
        submit_wait_s: float = 2.0,
        seed: int = 0,
        mp_start_method: str = "spawn",
    ):
        if size < 1:
            raise ServiceError("worker pool needs size >= 1")
        self.params_doc = params_doc
        self.size = size
        self.cache_size = cache_size
        self.start_timeout_s = start_timeout_s
        self.submit_wait_s = submit_wait_s
        self.supervisor = WorkerSupervisor(
            self,
            heartbeat_interval_s=heartbeat_interval_s,
            heartbeat_timeout_s=heartbeat_timeout_s,
            job_timeout_s=job_timeout_s,
            backoff=backoff,
            seed=seed,
        )
        self.counters: Dict[str, int] = {
            "jobs_done": 0,
            "jobs_failed": 0,
            "worker_lost_jobs": 0,
        }
        self._ctx = multiprocessing.get_context(mp_start_method)
        self._handles = [_WorkerHandle(i) for i in range(size)]
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._supervise_task: Optional[asyncio.Task] = None
        self._ready_event: Optional[asyncio.Event] = None
        self._ping_seq = 0
        self._next_job_id = 0
        self._closed = False

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> "VerifyWorkerPool":
        """Spawn every worker and wait until the pool can serve."""
        self._loop = asyncio.get_running_loop()
        self._ready_event = asyncio.Event()
        for handle in self._handles:
            self._spawn(handle)
        deadline = time.monotonic() + self.start_timeout_s
        while any(h.state != "ready" for h in self._handles):
            if time.monotonic() >= deadline:
                ready = sum(1 for h in self._handles if h.state == "ready")
                if ready == 0:
                    await self.stop()
                    raise ServiceError(
                        "worker pool failed to start: no worker became ready"
                    )
                break  # serve degraded; the supervisor keeps trying
            await asyncio.sleep(0.01)
        self._supervise_task = asyncio.create_task(self._supervise())
        return self

    async def stop(self) -> None:
        """Stop supervision, fail in-flight jobs, reap every worker."""
        if self._closed:
            return
        self._closed = True
        if self._supervise_task is not None:
            self._supervise_task.cancel()
            try:
                await self._supervise_task
            except asyncio.CancelledError:
                pass
            self._supervise_task = None
        for handle in self._handles:
            self._fail_pending(handle, "worker pool stopped")
            if handle.conn is not None:
                try:
                    handle.conn.send(("stop",))
                except (OSError, ValueError):
                    pass
            if handle.process is not None:
                handle.process.join(timeout=1.0)
                if handle.process.exitcode is None:
                    handle.process.terminate()
                    handle.process.join(timeout=1.0)
            if handle.conn is not None:
                handle.conn.close()
                handle.conn = None
            handle.state = "dead"

    # -- submission ---------------------------------------------------------
    async def submit(
        self, affinity_key: str, payloads: List[bytes]
    ) -> WindowResult:
        """Verify one window on the worker owning ``affinity_key``.

        Returns :func:`verify_window`'s (per-item results, crypto
        seconds, fallback flag, fold stats); raises
        :class:`~repro.errors.WorkerLostError` when the owning worker
        dies or overruns its job deadline with this window in flight,
        and when no worker is live within ``submit_wait_s``.
        """
        if self._closed:
            raise WorkerLostError("worker pool is stopped")
        handle = await self._acquire(affinity_key)
        job_id = self._next_job_id
        self._next_job_id += 1
        future = self._loop.create_future()
        handle.pending[job_id] = (future, time.monotonic())
        try:
            handle.conn.send(("job", job_id, payloads))
        except (OSError, ValueError) as exc:
            self.declare_lost(handle, f"pipe send failed: {exc}")
        return await future

    #: a window spanning several signers, submitted affine to its
    #: dominant signer; the job is the same, the name lets a tracer
    #: wrapping the pool tell mixed windows apart
    submit_cross = submit

    async def submit_fast(
        self, affinity_key: str, payloads: List[bytes]
    ) -> WindowResult:
        """Retired: VERIFY_FAST is answered from the gateway's session
        table and never reaches a worker.

        The name stays only because perfbench's traced run looks it up
        to wrap it (perfbench/spans.py:221).
        """
        raise ServiceError("VERIFY_FAST is answered by the gateway")

    async def _acquire(self, affinity_key: str) -> _WorkerHandle:
        """The affine worker if it is ready, else any ready worker; waits
        up to ``submit_wait_s`` through a full-pool restart storm."""
        deadline = time.monotonic() + self.submit_wait_s
        while True:
            handle = self._route(affinity_key)
            if handle is not None:
                return handle
            if self._closed:
                raise WorkerLostError("worker pool is stopped")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerLostError(
                    "no live worker available (all crashed or restarting)"
                )
            self._ready_event.clear()
            try:
                await asyncio.wait_for(self._ready_event.wait(), remaining)
            except asyncio.TimeoutError:
                pass

    def shard_of(self, affinity_key: str) -> int:
        """Stable shard index an identity prefers (ignores liveness).

        The gateway uses this to split a mixed-signer window along worker
        ownership lines before submitting: every worker then only admits
        and anchors its own identity partition instead of each worker
        slowly learning the entire population.  Dead-worker fallback still
        happens per submit in :meth:`_route`.
        """
        return zlib.crc32(affinity_key.encode("utf-8")) % self.size

    def _route(self, affinity_key: str) -> Optional[_WorkerHandle]:
        digest = zlib.crc32(affinity_key.encode("utf-8"))
        preferred = self._handles[digest % self.size]
        if preferred.state == "ready":
            return preferred
        ready = [h for h in self._handles if h.state == "ready"]
        if not ready:
            return None
        return ready[digest % len(ready)]

    # -- worker plumbing ----------------------------------------------------
    def _spawn(self, handle: _WorkerHandle) -> None:
        """(Re)start one worker slot."""
        handle.generation += 1
        generation = handle.generation
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.params_doc, self.cache_size),
            daemon=True,
            name=f"repro-verify-worker-{handle.index}",
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.state = "starting"
        now = time.monotonic()
        handle.started_at = now
        handle.last_pong = now
        handle.restart_at = None
        handle.pending = {}
        threading.Thread(
            target=self._reader_loop,
            args=(handle, parent_conn, generation),
            daemon=True,
            name=f"repro-worker-reader-{handle.index}",
        ).start()

    def respawn(self, handle: _WorkerHandle) -> None:
        """Supervisor callback: bring a dead slot back."""
        if self._closed:
            return
        if handle.process is not None:
            handle.process.join(timeout=0.1)
        handle.restarts += 1
        self._spawn(handle)

    def _reader_loop(self, handle: _WorkerHandle, conn, generation: int) -> None:
        """Reader thread: one blocking recv loop per live worker pipe."""
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if not self._post(self._on_message, handle, generation, message):
                return
        self._post(self._on_reader_eof, handle, generation)

    def _post(self, callback, *args) -> bool:
        """Schedule a callback on the loop thread (False once it is gone)."""
        try:
            self._loop.call_soon_threadsafe(callback, *args)
            return True
        except RuntimeError:
            return False  # event loop already closed (teardown)

    def _on_message(
        self, handle: _WorkerHandle, generation: int, message
    ) -> None:
        if generation != handle.generation or self._closed:
            return  # a previous incarnation's straggler
        kind = message[0]
        now = time.monotonic()
        if kind == "ready":
            handle.state = "ready"
            handle.last_pong = now
            handle.crash_streak = 0
            if self._ready_event is not None:
                self._ready_event.set()
        elif kind == "pong":
            handle.last_pong = now
        elif kind == "done":
            _, job_id, results, crypto_s, fallback, cache_stats, fold_stats = (
                message
            )
            handle.last_pong = now
            handle.cache_stats = cache_stats
            entry = handle.pending.pop(job_id, None)
            if entry is not None:
                future, _started = entry
                if not future.done():
                    handle.jobs_done += 1
                    self.counters["jobs_done"] += 1
                    future.set_result((results, crypto_s, fallback, fold_stats))
        elif kind == "failed":
            _, job_id, detail = message
            handle.last_pong = now
            entry = handle.pending.pop(job_id, None)
            if entry is not None:
                future, _started = entry
                if not future.done():
                    self.counters["jobs_failed"] += 1
                    future.set_exception(
                        ServiceError(f"worker job failed: {detail}")
                    )

    def _on_reader_eof(self, handle: _WorkerHandle, generation: int) -> None:
        if generation != handle.generation or self._closed:
            return
        self.declare_lost(handle, "worker pipe closed")

    def declare_lost(self, handle: _WorkerHandle, reason: str) -> None:
        """Mark a worker dead: fail its jobs, kill it, schedule respawn."""
        if handle.state == "dead" or self._closed:
            return
        handle.state = "dead"
        self.supervisor.note("lost", handle.index, reason=reason)
        self._fail_pending(handle, reason)
        if handle.process is not None and handle.process.exitcode is None:
            handle.process.terminate()
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:
                pass
            handle.conn = None
        handle.crash_streak += 1
        handle.restart_at = time.monotonic() + self.supervisor.restart_delay_s(
            handle.crash_streak - 1
        )

    def _fail_pending(self, handle: _WorkerHandle, reason: str) -> None:
        pending, handle.pending = handle.pending, {}
        for future, _started in pending.values():
            if not future.done():
                self.counters["worker_lost_jobs"] += 1
                future.set_exception(WorkerLostError(f"worker lost: {reason}"))

    def ping(self, handle: _WorkerHandle) -> None:
        """Supervisor callback: heartbeat one ready worker."""
        self._ping_seq += 1
        try:
            handle.conn.send(("ping", self._ping_seq))
        except (OSError, ValueError) as exc:
            self.declare_lost(handle, f"heartbeat send failed: {exc}")

    async def _supervise(self) -> None:
        while True:
            await asyncio.sleep(self.supervisor.heartbeat_interval_s)
            self.supervisor.sweep(time.monotonic())

    # -- rekey / introspection ----------------------------------------------
    async def broadcast_params(self, params_doc: dict) -> None:
        """Ship a fresh params document to every live worker.

        Pipe FIFO ordering guarantees any job submitted after this call
        verifies under the new parameters; dead workers pick the new
        document up at respawn.
        """
        self.params_doc = params_doc
        for handle in self._handles:
            if handle.state == "dead" or handle.conn is None:
                continue
            try:
                handle.conn.send(("params", params_doc))
            except (OSError, ValueError) as exc:
                self.declare_lost(handle, f"params send failed: {exc}")

    def handles(self) -> List[_WorkerHandle]:
        """The worker slots (supervisor's sweep surface)."""
        return self._handles

    def worker_cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Latest known cache accounting merged across workers."""
        return merge_cache_stats(
            *(h.cache_stats for h in self._handles if h.cache_stats)
        )

    def stats(self) -> dict:
        """Pool counters, supervision tallies and per-worker state."""
        return {
            "size": self.size,
            "counters": dict(self.counters),
            "supervisor": dict(self.supervisor.counters),
            "workers": [
                {
                    "index": h.index,
                    "pid": h.pid,
                    "state": h.state,
                    "restarts": h.restarts,
                    "pending": len(h.pending),
                    "jobs_done": h.jobs_done,
                }
                for h in self._handles
            ],
        }
