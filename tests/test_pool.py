"""Worker pool: verdict correctness, affinity, supervision, rekey.

The process tests spawn real ``spawn``-context workers over a toy curve,
so they exercise the actual pickle/pipe/reader-thread plumbing; the
policy tests drive :class:`WorkerSupervisor` against a fake pool so every
sweep branch is hit deterministically without a single fork.
"""

from __future__ import annotations

import asyncio
import random
import time

import pytest

from repro.core.batch import McCLSBatchVerifier
from repro.core.mccls import McCLS
from repro.errors import ServiceError, WorkerLostError
from repro.pairing.bn import toy_curve
from repro.pairing.groups import PairingContext
from repro.service import protocol
from repro.service.pool import (
    VerifyWorkerPool,
    merge_cache_stats,
    verify_window,
)
from repro.service.supervisor import RestartBackoff, WorkerSupervisor

CURVE = toy_curve(32)
MSG = b"pool message"


def _fresh_scheme(seed: int = 11) -> McCLS:
    return McCLS(PairingContext(CURVE, random.Random(seed)))


SCHEME = _fresh_scheme()
PARAMS = protocol.params_document(
    "mccls", CURVE, SCHEME.p_pub_g1, SCHEME.p_pub_g2
)
KEYS = SCHEME.generate_user_keys("pool-id")
GOOD = protocol.encode_verify_payload(
    CURVE, "pool-id", KEYS.public_key, MSG, SCHEME.sign(MSG, KEYS)
)


def _pool(size: int = 2, **kwargs) -> VerifyWorkerPool:
    kwargs.setdefault("heartbeat_interval_s", 0.05)
    kwargs.setdefault("heartbeat_timeout_s", 1.5)
    kwargs.setdefault(
        "backoff", RestartBackoff(base_s=0.05, max_s=0.1, jitter=0.0)
    )
    return VerifyWorkerPool(PARAMS, size, **kwargs)


class TestMergeCacheStats:
    def test_counters_add_peaks_max_bounds_latest(self):
        merged = merge_cache_stats(
            {"miller": {"hits": 2, "misses": 1, "evictions": 0,
                        "peak_size": 4, "size": 4, "maxsize": 8}},
            {"miller": {"hits": 3, "misses": 2, "evictions": 1,
                        "peak_size": 7, "size": 2, "maxsize": 16},
             "pairing": {"hits": 1, "misses": 0, "evictions": 0,
                         "peak_size": 1}},
        )
        assert merged["miller"]["hits"] == 5
        assert merged["miller"]["misses"] == 3
        assert merged["miller"]["evictions"] == 1
        assert merged["miller"]["peak_size"] == 7
        # size/maxsize reflect the latest document naming them
        assert merged["miller"]["size"] == 2
        assert merged["miller"]["maxsize"] == 16
        assert merged["pairing"]["hits"] == 1

    def test_empty_input_is_empty(self):
        assert merge_cache_stats() == {}
        assert merge_cache_stats({}, {}) == {}


class TestVerifyItems:
    """The verify window function, driven in-process (no fork)."""

    def _payload(self, message: bytes, forged: bool = False) -> bytes:
        signature = SCHEME.sign(b"forged" if forged else message, KEYS)
        return protocol.encode_verify_payload(
            CURVE, "pool-id", KEYS.public_key, message, signature
        )

    def test_clean_group_batches_without_fallback(self):
        batcher = McCLSBatchVerifier(SCHEME)
        payloads = [self._payload(b"m%d" % i) for i in range(3)]
        results, crypto_s, fallback, fold_stats = verify_window(
            batcher, payloads
        )
        assert results == [("ok", True)] * 3
        assert not fallback
        assert crypto_s >= 0
        assert fold_stats["bisections"] == 0

    def test_tampered_member_gets_exact_verdict_via_bisection(self):
        batcher = McCLSBatchVerifier(SCHEME)
        payloads = [
            self._payload(b"a"),
            self._payload(b"b", forged=True),
            self._payload(b"c"),
        ]
        results, _crypto_s, fallback, fold_stats = verify_window(
            batcher, payloads
        )
        # The anchored fold isolates the forged member by bisection —
        # exact per-item verdicts without a whole-group pairing fallback.
        assert not fallback
        assert fold_stats["bisections"] >= 1
        assert results == [("ok", True), ("ok", False), ("ok", True)]

    def test_malformed_payload_is_err_item_not_crash(self):
        batcher = McCLSBatchVerifier(SCHEME)
        results, _crypto_s, _fallback, _stats = verify_window(
            batcher, [b"\xff\x00", self._payload(b"ok")]
        )
        assert results[0][0] == "err"
        assert results[1] == ("ok", True)

    @staticmethod
    def _lone_signer(identity: str = "lone-id"):
        """A fresh scheme and batcher (cold caches) plus a payload maker."""
        scheme = _fresh_scheme(23)
        keys = scheme.generate_user_keys(identity)

        def payload(message: bytes, forged: bool = False) -> bytes:
            signature = scheme.sign(b"forged" if forged else message, keys)
            return protocol.encode_verify_payload(
                CURVE, identity, keys.public_key, message, signature
            )

        return scheme, McCLSBatchVerifier(scheme), payload

    def test_lone_item_of_anchored_signer_folds_without_pairing(self):
        scheme, batcher, payload = self._lone_signer()
        results, _s, _f, _st = verify_window(
            batcher, [payload(b"a"), payload(b"b")]
        )
        assert results == [("ok", True)] * 2  # admits the signer's anchor
        pairings = scheme.ctx.ops.pairings
        results, _s, fallback, fold_stats = verify_window(
            batcher, [payload(b"c")]
        )
        assert results == [("ok", True)]
        assert not fallback
        assert fold_stats["folds"] == 1
        assert scheme.ctx.ops.pairings == pairings

    def test_forged_lone_item_of_anchored_signer_is_false(self):
        _scheme, batcher, payload = self._lone_signer()
        verify_window(batcher, [payload(b"a"), payload(b"b")])
        results, _s, _f, fold_stats = verify_window(
            batcher, [payload(b"c", forged=True)]
        )
        assert results == [("ok", False)]
        assert fold_stats["exact_checks"] == 1

    def test_lone_item_of_fresh_signer_pays_one_verify(self):
        scheme, batcher, payload = self._lone_signer("fresh-id")
        misses = scheme.ctx.cache_stats()["miller"]["misses"]
        results, _s, _f, fold_stats = verify_window(batcher, [payload(b"a")])
        assert results == [("ok", True)]
        assert fold_stats == {}  # no admission for a lone unanchored item
        assert scheme.ctx.cache_stats()["miller"]["misses"] == misses + 1


class TestPoolProcesses:
    def test_verify_affinity_and_rekey_end_to_end(self):
        async def main():
            pool = await _pool(size=2).start()
            try:
                results, _crypto_s, fallback, _stats = await pool.submit(
                    "pool-id", [GOOD] * 3
                )
                assert results == [("ok", True)] * 3
                assert not fallback

                forged = protocol.encode_verify_payload(
                    CURVE, "pool-id", KEYS.public_key, b"other",
                    SCHEME.sign(MSG, KEYS),
                )
                results, _s, _f, _st = await pool.submit("pool-id", [forged])
                assert results == [("ok", False)]

                results, _s, _f, _st = await pool.submit("pool-id", [b"\xff"])
                assert results[0][0] == "err"

                # Rekey: workers flip to the new params in submit order.
                fresh = _fresh_scheme(99)
                await pool.broadcast_params(
                    protocol.params_document(
                        "mccls", CURVE, fresh.p_pub_g1, fresh.p_pub_g2
                    )
                )
                results, _s, _f, _st = await pool.submit("pool-id", [GOOD])
                assert results == [("ok", False)]  # old master is dead
                keys2 = fresh.generate_user_keys("pool-id")
                good2 = protocol.encode_verify_payload(
                    CURVE, "pool-id", keys2.public_key, MSG,
                    fresh.sign(MSG, keys2),
                )
                results, _s, _f, _st = await pool.submit("pool-id", [good2])
                assert results == [("ok", True)]

                assert pool.counters["jobs_done"] == 5
                stats = pool.stats()
                assert stats["size"] == 2
                # Identity affinity: one worker owned every group.
                assert sorted(
                    w["jobs_done"] for w in stats["workers"]
                ) == [0, 5]
                assert pool.worker_cache_stats()  # workers reported caches
            finally:
                await pool.stop()

        asyncio.run(main())

    def test_hung_worker_is_killed_and_respawned(self):
        async def main():
            pool = await _pool(
                size=1, job_timeout_s=0.3, submit_wait_s=5.0
            ).start()
            try:
                handle = pool.handles()[0]
                first_pid = handle.pid
                handle.conn.send(("sleep", 3.0))  # chaos hook: hard hang
                with pytest.raises(WorkerLostError):
                    await pool.submit("pool-id", [GOOD])
                assert pool.supervisor.counters["job_timeouts"] == 1
                assert pool.counters["worker_lost_jobs"] == 1

                deadline = time.monotonic() + 15.0
                while time.monotonic() < deadline:
                    if handle.state == "ready" and handle.pid != first_pid:
                        break
                    await asyncio.sleep(0.05)
                assert handle.state == "ready"
                assert handle.pid != first_pid
                assert pool.supervisor.counters["restarts"] >= 1
                events = [e["event"] for e in pool.supervisor.log]
                assert "lost" in events and "restart" in events

                # The respawned worker serves the same key material.
                results, _s, _f, _st = await pool.submit("pool-id", [GOOD])
                assert results == [("ok", True)]
            finally:
                await pool.stop()

        asyncio.run(main())

    def test_stopped_pool_refuses_work(self):
        async def main():
            pool = _pool(size=1)
            await pool.stop()
            with pytest.raises(WorkerLostError):
                await pool.submit("x", [GOOD])

        asyncio.run(main())

    def test_zero_size_rejected(self):
        with pytest.raises(ServiceError):
            VerifyWorkerPool(PARAMS, 0)


class _FakeHandle:
    def __init__(self, index=0):
        self.index = index
        self.state = "ready"
        self.process = None
        self.pending = {}
        self.started_at = 0.0
        self.last_pong = 0.0
        self.restarts = 0
        self.restart_at = None

    def oldest_job_age(self, now):
        if not self.pending:
            return None
        return now - min(started for _f, started in self.pending.values())


class _FakePool:
    def __init__(self, handle):
        self.handle = handle
        self.lost = []
        self.respawned = 0
        self.pinged = 0

    def handles(self):
        return [self.handle]

    def declare_lost(self, handle, reason):
        handle.state = "dead"
        self.lost.append(reason)

    def respawn(self, handle):
        handle.state = "ready"
        self.respawned += 1

    def ping(self, handle):
        self.pinged += 1


class TestSupervisorPolicy:
    def _supervisor(self, handle, **kwargs):
        pool = _FakePool(handle)
        kwargs.setdefault("job_timeout_s", 1.0)
        kwargs.setdefault("heartbeat_timeout_s", 0.5)
        return pool, WorkerSupervisor(pool, **kwargs)

    def test_healthy_worker_just_gets_pinged(self):
        handle = _FakeHandle()
        handle.last_pong = 10.0
        pool, supervisor = self._supervisor(handle)
        supervisor.sweep(10.1)
        assert pool.pinged == 1 and not pool.lost

    def test_crash_detected_via_exitcode(self):
        class _Dead:
            exitcode = -9

        handle = _FakeHandle()
        handle.process = _Dead()
        pool, supervisor = self._supervisor(handle)
        supervisor.sweep(0.0)
        assert supervisor.counters["crashes"] == 1
        assert "code -9" in pool.lost[0]

    def test_job_deadline_kills_owner(self):
        handle = _FakeHandle()
        handle.last_pong = 100.0
        handle.pending[1] = (None, 100.0)
        pool, supervisor = self._supervisor(handle, job_timeout_s=1.0)
        supervisor.sweep(101.5)
        assert supervisor.counters["job_timeouts"] == 1
        assert "deadline" in pool.lost[0]

    def test_silent_idle_worker_is_hung_but_busy_one_is_not(self):
        busy = _FakeHandle()
        busy.last_pong = 100.0
        busy.pending[1] = (None, 100.4)
        pool, supervisor = self._supervisor(
            busy, heartbeat_timeout_s=0.5, job_timeout_s=10.0
        )
        supervisor.sweep(101.0)  # silent, but a young job is in flight
        assert supervisor.counters["hangs"] == 0 and not pool.lost

        idle = _FakeHandle()
        idle.last_pong = 100.0
        pool, supervisor = self._supervisor(idle, heartbeat_timeout_s=0.5)
        supervisor.sweep(101.0)
        assert supervisor.counters["hangs"] == 1

    def test_dead_worker_respawns_only_after_backoff(self):
        handle = _FakeHandle()
        handle.state = "dead"
        handle.restart_at = 5.0
        pool, supervisor = self._supervisor(handle)
        supervisor.sweep(4.9)
        assert pool.respawned == 0
        supervisor.sweep(5.0)
        assert pool.respawned == 1
        assert supervisor.counters["restarts"] == 1

    def test_restart_backoff_grows_caps_and_jitters(self):
        backoff = RestartBackoff(
            base_s=0.1, max_s=0.5, multiplier=2.0, jitter=0.0
        )
        rng = random.Random(3)
        assert [backoff.delay_s(k, rng) for k in range(4)] == [
            0.1, 0.2, 0.4, 0.5,
        ]
        jittered = RestartBackoff(
            base_s=0.1, max_s=2.0, jitter=0.5
        ).delay_s(0, random.Random(3))
        assert 0.05 <= jittered <= 0.15

    def test_supervision_log_uses_monotonic_clock(self, monkeypatch):
        """A wall-clock step (NTP, suspend/resume) must not skew the log.

        ``note()`` stamps ``at`` from ``time.monotonic()`` — the clock the
        rest of the service (deadlines, backoff, heartbeats) runs on — and
        keeps wall time only as the display-only ISO ``wall`` field.
        """
        from datetime import datetime
        from repro.service import supervisor as supervisor_mod

        handle = _FakeHandle()
        _pool, supervisor = self._supervisor(handle)

        fake = {"monotonic": 1000.0, "wall": 2_000_000.0}
        monkeypatch.setattr(
            supervisor_mod.time, "monotonic", lambda: fake["monotonic"]
        )
        monkeypatch.setattr(
            supervisor_mod.time, "time", lambda: fake["wall"]
        )
        supervisor.note("restart", 0, restarts=1)
        fake["monotonic"] += 1.0
        fake["wall"] -= 3600.0  # wall clock steps an hour backwards
        supervisor.note("lost", 0, reason="test")

        first, second = supervisor.log[-2:]
        assert first["at"] == 1000.0 and second["at"] == 1001.0
        assert second["at"] > first["at"]  # ordering survives the step
        for entry in (first, second):
            # display-only ISO-8601 UTC wall stamp rides along
            assert datetime.fromisoformat(entry["wall"]).tzinfo is not None

    def test_supervision_log_bounded(self):
        handle = _FakeHandle()
        _pool, supervisor = self._supervisor(handle)
        for k in range(supervisor.LOG_LIMIT + 10):
            supervisor.note("ping", 0, seq=k)
        assert len(supervisor.log) == supervisor.LOG_LIMIT
        assert supervisor.log[-1]["seq"] == supervisor.LOG_LIMIT + 9
