"""Verification gateway: protocol, batching, backpressure, rekey.

Driven through ``asyncio.run`` from synchronous tests: each test builds
an in-process gateway on a loopback port, runs one scripted exchange and
tears everything down - no shared server state between tests.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import (
    SerializationError,
    ServiceConnectionLost,
    ServiceError,
    ServiceTimeout,
)
from repro.pairing.bn import toy_curve
from repro.service import protocol
from repro.service.client import CircuitBreaker, RetryPolicy, ServiceClient
from repro.service.protocol import Opcode, Status
from repro.service.server import VerificationGateway

CURVE = toy_curve(32)
MSG = b"route request 7"


def gateway_test(coro_factory, **gateway_kwargs):
    """Run one async test body against a fresh started gateway."""

    async def main():
        gateway_kwargs.setdefault("curve", CURVE)
        gateway_kwargs.setdefault("seed", 5)
        gateway = VerificationGateway(**gateway_kwargs)
        await gateway.start()
        try:
            return await coro_factory(gateway)
        finally:
            await gateway.stop()

    return asyncio.run(main())


async def connected_client(gateway) -> ServiceClient:
    client = ServiceClient(gateway.host, gateway.port)
    await client.connect()
    return client


class TestProtocolCodec:
    def test_frame_round_trip(self):
        frame = protocol.encode_frame(b"hello")
        assert protocol.frame_length(frame[:4]) == 5
        assert frame[4:] == b"hello"

    def test_oversized_frame_rejected_on_encode(self):
        with pytest.raises(SerializationError):
            protocol.encode_frame(b"x" * (protocol.MAX_FRAME + 1))

    def test_oversized_declaration_rejected(self):
        import struct

        header = struct.pack("!I", protocol.MAX_FRAME + 1)
        with pytest.raises(SerializationError):
            protocol.frame_length(header)

    def test_request_reply_envelopes(self):
        opcode, payload, trace_id, deadline_ms = protocol.decode_request(
            protocol.encode_request(Opcode.PING, b"abc")
        )
        assert (opcode, payload, trace_id, deadline_ms) == (
            Opcode.PING, b"abc", None, None,
        )
        status, payload = protocol.decode_reply(
            protocol.encode_reply(Status.BUSY, b"full")
        )
        assert (status, payload) == (Status.BUSY, b"full")

    def test_traced_request_round_trip(self):
        body = protocol.encode_request(Opcode.VERIFY, b"abc", trace_id=77)
        assert body[0] == Opcode.VERIFY | protocol.TRACE_FLAG
        opcode, payload, trace_id, deadline_ms = protocol.decode_request(body)
        assert (opcode, payload, trace_id, deadline_ms) == (
            Opcode.VERIFY, b"abc", 77, None,
        )

    def test_deadline_request_round_trip(self):
        body = protocol.encode_request(Opcode.VERIFY, b"abc", deadline_ms=250)
        assert body[0] == Opcode.VERIFY | protocol.DEADLINE_FLAG
        opcode, payload, trace_id, deadline_ms = protocol.decode_request(body)
        assert (opcode, payload, trace_id, deadline_ms) == (
            Opcode.VERIFY, b"abc", None, 250,
        )

    def test_traced_and_deadlined_request_round_trip(self):
        body = protocol.encode_request(
            Opcode.VERIFY, b"xyz", trace_id=9, deadline_ms=1000
        )
        assert body[0] == (
            Opcode.VERIFY | protocol.TRACE_FLAG | protocol.DEADLINE_FLAG
        )
        opcode, payload, trace_id, deadline_ms = protocol.decode_request(body)
        assert (opcode, payload, trace_id, deadline_ms) == (
            Opcode.VERIFY, b"xyz", 9, 1000,
        )

    def test_deadline_header_malformations_rejected(self):
        # truncated 4-byte deadline header
        with pytest.raises(SerializationError):
            protocol.decode_request(
                bytes([Opcode.PING | protocol.DEADLINE_FLAG]) + b"\x00" * 2
            )
        # deadline 0 is reserved
        with pytest.raises(SerializationError):
            protocol.decode_request(
                bytes([Opcode.PING | protocol.DEADLINE_FLAG]) + b"\x00" * 4
            )
        # out-of-range budgets rejected at encode time
        for bad in (0, -1, protocol.MAX_DEADLINE_MS + 1):
            with pytest.raises(SerializationError):
                protocol.encode_request(Opcode.PING, b"", deadline_ms=bad)

    def test_split_verify_payload_matches_full_decode(self):
        from repro.core.mccls import McCLS
        from repro.core.serialization import encode_g1
        from repro.pairing.groups import PairingContext
        import random

        scheme = McCLS(PairingContext(CURVE, random.Random(1)))
        keys = scheme.generate_user_keys("split")
        payload = protocol.encode_verify_payload(
            CURVE, "split", keys.public_key, MSG, scheme.sign(MSG, keys)
        )
        identity, pk_blob = protocol.split_verify_payload(CURVE, payload)
        assert identity == "split"
        assert pk_blob == encode_g1(CURVE, keys.public_key)
        with pytest.raises(SerializationError):
            protocol.split_verify_payload(CURVE, payload[:4])

    def test_trace_header_malformations_rejected(self):
        # truncated 8-byte trace header
        with pytest.raises(SerializationError):
            protocol.decode_request(
                bytes([Opcode.PING | protocol.TRACE_FLAG]) + b"\x00" * 4
            )
        # trace id 0 is reserved
        with pytest.raises(SerializationError):
            protocol.decode_request(
                bytes([Opcode.PING | protocol.TRACE_FLAG]) + b"\x00" * 8
            )
        # out-of-range ids rejected at encode time
        for bad in (0, -1, 1 << 64):
            with pytest.raises(SerializationError):
                protocol.encode_request(Opcode.PING, b"", trace_id=bad)

    def test_unknown_opcode_and_status_rejected(self):
        with pytest.raises(SerializationError):
            protocol.decode_request(bytes([250]) + b"x")
        with pytest.raises(SerializationError):
            protocol.decode_reply(bytes([250]))
        with pytest.raises(SerializationError):
            protocol.decode_request(b"")
        with pytest.raises(SerializationError):
            protocol.decode_reply(b"")

    def test_verify_payload_round_trip(self):
        from repro.core.mccls import McCLS
        from repro.pairing.groups import PairingContext
        import random

        scheme = McCLS(PairingContext(CURVE, random.Random(1)))
        keys = scheme.generate_user_keys("codec")
        signature = scheme.sign(MSG, keys)
        payload = protocol.encode_verify_payload(
            CURVE, "codec", keys.public_key, MSG, signature
        )
        request = protocol.decode_verify_payload(CURVE, payload)
        assert request.identity == "codec"
        assert request.public_key == keys.public_key
        assert request.message == MSG
        assert request.signature == signature


class TestGatewayBasics:
    def test_ping_params_enroll_verify(self):
        async def body(gateway):
            client = await connected_client(gateway)
            try:
                assert await client.ping()
                params = await client.params()
                assert params["scheme"] == "mccls"
                assert client.curve.name == CURVE.name

                keys = await client.enroll("node-1")
                signature = client.sign(MSG, keys)
                assert await client.verify(
                    "node-1", keys.public_key, MSG, signature
                )
                # Tampered message -> clean False, not an error.
                assert not await client.verify(
                    "node-1", keys.public_key, b"other", signature
                )
            finally:
                await client.close()

        gateway_test(body)

    def test_enrolled_keys_verify_locally_too(self):
        """The wire round trip preserves key material exactly: a local
        verifier-view check agrees with the gateway."""

        async def body(gateway):
            client = await connected_client(gateway)
            try:
                keys = await client.enroll("node-2")
                signature = client.sign(MSG, keys)
                view = client.scheme_view()
                assert view.verify(MSG, signature, "node-2", keys.public_key)
            finally:
                await client.close()

        gateway_test(body)

    def test_stats_shape(self):
        async def body(gateway):
            client = await connected_client(gateway)
            try:
                stats = await client.stats()
                assert stats["counters"]["requests"] >= 1
                assert set(stats["cache"]) == {
                    "pairing",
                    "miller",
                    "hash_g2",
                }
                assert stats["queue_size"] == gateway.queue_size
            finally:
                await client.close()

        gateway_test(body)

    def test_two_connections_are_independent(self):
        async def body(gateway):
            a = await connected_client(gateway)
            b = await connected_client(gateway)
            try:
                keys = await a.enroll("shared")
                signature = a.sign(MSG, keys)
                # The other connection verifies what the first enrolled.
                assert await b.verify("shared", keys.public_key, MSG, signature)
            finally:
                await a.close()
                await b.close()

        gateway_test(body)


class TestMicroBatching:
    """Both serving modes answer VERIFY through the same window function;
    :class:`TestMicroBatchingPool` reruns every test with a worker pool."""

    workers = 0

    def test_same_signer_burst_is_batched(self):
        async def body(gateway):
            client = await connected_client(gateway)
            try:
                keys = await client.enroll("burst")
                items = []
                for i in range(12):
                    message = b"msg-%d" % i
                    items.append(
                        (
                            "burst",
                            keys.public_key,
                            message,
                            client.sign(message, keys),
                        )
                    )
                outcomes = await client.verify_many(items)
                assert all(o.ok and o.valid for o in outcomes)
                assert gateway.counters["batches"] >= 1
                assert gateway.counters["batched_requests"] >= 2
                # A clean batch settles without the per-item fallback.
                assert gateway.counters["batch_fallbacks"] == 0
            finally:
                await client.close()

        gateway_test(body, workers=self.workers)

    def test_bad_item_in_batch_gets_exact_verdict(self):
        async def body(gateway):
            client = await connected_client(gateway)
            try:
                keys = await client.enroll("mixed")
                items = []
                for i in range(8):
                    message = b"msg-%d" % i
                    items.append(
                        (
                            "mixed",
                            keys.public_key,
                            message,
                            client.sign(message, keys),
                        )
                    )
                # Tamper one message after signing: its verdict must be
                # False while every other member stays True.
                identity, pk, _msg, sig = items[3]
                items[3] = (identity, pk, b"tampered", sig)
                outcomes = await client.verify_many(items)
                verdicts = [o.valid for o in outcomes]
                assert verdicts == [
                    True, True, True, False, True, True, True, True,
                ]
                # the fold located the tampered member by bisection
                assert gateway.counters["cross_bisections"] >= 1
            finally:
                await client.close()

        gateway_test(body, workers=self.workers)

    def test_replies_arrive_in_request_order(self):
        async def body(gateway):
            client = await connected_client(gateway)
            try:
                alice = await client.enroll("alice")
                bob = await client.enroll("bob")
                items = []
                expected = []
                for i in range(10):
                    who = alice if i % 2 == 0 else bob
                    message = b"m%d" % i
                    good = i % 3 != 0
                    signature = client.sign(
                        message if good else b"forged", who
                    )
                    items.append(
                        (who.identity, who.public_key, message, signature)
                    )
                    expected.append(good)
                outcomes = await client.verify_many(items)
                assert [o.valid for o in outcomes] == expected
            finally:
                await client.close()

        gateway_test(body, workers=self.workers)


class TestMicroBatchingPool(TestMicroBatching):
    workers = 2


class TestBackpressure:
    def test_overflow_is_answered_busy(self):
        """With the consumer paused, requests beyond the bounded queue get
        an immediate BUSY verdict; queued ones complete after resume."""

        async def body(gateway):
            # Pause the batch consumer so the queue genuinely fills.
            gateway._consumer.cancel()
            try:
                await gateway._consumer
            except asyncio.CancelledError:
                pass

            client = await connected_client(gateway)
            try:
                keys_payload = protocol.encode_enroll_payload("x")
                total = gateway.queue_size + 3
                for _ in range(total):
                    client._writer.write(
                        protocol.encode_frame(
                            protocol.encode_request(
                                Opcode.ENROLL, keys_payload
                            )
                        )
                    )
                await client._writer.drain()
                await asyncio.sleep(0.05)  # let the reader ingest frames
                assert gateway.counters["busy_rejections"] == 3

                # Resume the consumer; every admitted request completes
                # and the shed ones surface as BUSY, all in order.
                gateway._consumer = asyncio.create_task(gateway._consume())
                statuses = []
                for _ in range(total):
                    status, _payload = await client._read_reply()
                    statuses.append(status)
                assert statuses.count(Status.BUSY) == 3
                assert statuses.count(Status.OK) == gateway.queue_size
                # FIFO: the shed requests were the LAST admitted.
                assert statuses[-3:] == [Status.BUSY] * 3
            finally:
                await client.close()

        gateway_test(body, queue_size=8)


class TestRekeyOverTheWire:
    def test_rekey_invalidates_and_reissues(self):
        async def body(gateway):
            client = await connected_client(gateway)
            try:
                old_params = await client.params()
                keys = await client.enroll("node-r")
                signature = client.sign(MSG, keys)
                assert await client.verify(
                    "node-r", keys.public_key, MSG, signature
                )

                new_params = await client.rekey()
                assert new_params["p_pub_g1"] != old_params["p_pub_g1"]
                # Old material is dead under the new master secret.
                assert not await client.verify(
                    "node-r", keys.public_key, MSG, signature
                )
                # The KGC re-issued the enrolled identity server-side.
                fresh = gateway.kgc.keys_for("node-r")
                fresh_sig = client.sign(MSG, fresh)
                assert await client.verify(
                    "node-r", fresh.public_key, MSG, fresh_sig
                )
            finally:
                await client.close()

        gateway_test(body)

    def test_post_rekey_verify_misses_cache_once(self):
        async def body(gateway):
            client = await connected_client(gateway)
            try:
                await client.rekey()
                keys = await client.enroll("probe")
                signature = client.sign(MSG, keys)

                def cache_totals(doc):
                    miller = doc["cache"]["miller"]
                    return miller["misses"], miller["hits"]

                before = cache_totals(await client.stats())
                assert await client.verify(
                    "probe", keys.public_key, MSG, signature
                )
                after_first = cache_totals(await client.stats())
                assert await client.verify(
                    "probe", keys.public_key, MSG, signature
                )
                after_second = cache_totals(await client.stats())

                # Exactly one cold miss, then a warm hit.
                assert after_first[0] - before[0] == 1
                assert after_first[1] - before[1] == 0
                assert after_second[0] - after_first[0] == 0
                assert after_second[1] - after_first[1] == 1
            finally:
                await client.close()

        gateway_test(body)


@pytest.mark.parametrize("workers", [0, 2])
class TestRekeyPipelineOrder:
    """A REKEY splits the requests pipelined around it: a verify sent
    before it is judged under the old master key, one sent after it
    under the new key, in both serving modes."""

    def test_verifies_before_rekey_keep_the_old_key(self, workers):
        async def body(gateway):
            client = await connected_client(gateway)
            try:
                await client.params()
                keys = await client.enroll("node-order")
                signature = client.sign(MSG, keys)
                assert await client.verify(
                    keys.identity, keys.public_key, MSG, signature
                )
                verify = protocol.encode_frame(
                    protocol.encode_request(
                        Opcode.VERIFY,
                        protocol.encode_verify_payload(
                            client.curve, keys.identity, keys.public_key,
                            MSG, signature,
                        ),
                    )
                )
                rekey = protocol.encode_frame(
                    protocol.encode_request(Opcode.REKEY)
                )
                client._writer.write(verify * 3 + rekey + verify * 2)
                await client._writer.drain()
                replies = [await client._read_reply() for _ in range(6)]
                assert all(status == Status.OK for status, _ in replies)
                verdicts = [
                    protocol.decode_verify_verdict(payload)
                    for _, payload in replies[:3] + replies[4:]
                ]
                assert verdicts == [True, True, True, False, False]
                assert gateway.counters["rekeys"] == 1
            finally:
                await client.close()

        gateway_test(body, workers=workers)


class TestClientErrors:
    def test_err_reply_raises_service_error(self):
        async def body(gateway):
            client = await connected_client(gateway)
            try:
                with pytest.raises(ServiceError):
                    await client._call(Opcode.ENROLL, b"\xff")  # bad payload
                # The connection survives the error reply.
                assert await client.ping()
            finally:
                await client.close()

        gateway_test(body)

    def test_sign_before_params_rejected(self):
        client = ServiceClient()
        with pytest.raises(ServiceError):
            client.sign(MSG, None)


class TestDeadlines:
    def test_generous_deadline_still_verifies(self):
        async def body(gateway):
            client = await connected_client(gateway)
            try:
                keys = await client.enroll("slack")
                signature = client.sign(MSG, keys)
                assert await client.verify(
                    "slack", keys.public_key, MSG, signature,
                    deadline_ms=60_000,
                )
                assert gateway.counters["deadline_requests"] == 1
                assert gateway.counters["deadline_expirations"] == 0
            finally:
                await client.close()

        gateway_test(body)

    def test_expired_in_queue_is_err_not_verdict(self):
        """A request whose budget elapses while queued is shed with an
        ERR deadline reply instead of being verified late."""

        async def body(gateway):
            client = await connected_client(gateway)
            try:
                keys = await client.enroll("late")
                signature = client.sign(MSG, keys)
                payload = protocol.encode_verify_payload(
                    CURVE, "late", keys.public_key, MSG, signature
                )
                # Pause the consumer so the request ages in the queue.
                gateway._consumer.cancel()
                try:
                    await gateway._consumer
                except asyncio.CancelledError:
                    pass
                client._writer.write(
                    protocol.encode_frame(
                        protocol.encode_request(
                            Opcode.VERIFY, payload, deadline_ms=10
                        )
                    )
                )
                await client._writer.drain()
                await asyncio.sleep(0.08)
                gateway._consumer = asyncio.create_task(gateway._consume())
                status, body_bytes = await client._read_reply()
                assert status == Status.ERR
                assert body_bytes.startswith(b"deadline exceeded")
                assert gateway.counters["deadline_expirations"] == 1
                # The connection survives a shed request.
                assert await client.ping()
            finally:
                await client.close()

        gateway_test(body)


def _scripted_port(handler):
    """Start a throwaway asyncio server; returns (server, port)."""

    async def boot():
        server = await asyncio.start_server(handler, "127.0.0.1", 0)
        return server, server.sockets[0].getsockname()[1]

    return boot()


class TestClientResilience:
    def test_retry_policy_delay_schedule(self):
        import random as _random

        policy = RetryPolicy(
            attempts=5, base_delay_s=0.1, max_delay_s=0.5,
            multiplier=2.0, jitter=0.0,
        )
        rng = _random.Random(0)
        delays = [policy.delay_s(k, rng) for k in (1, 2, 3, 4, 5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]
        jittered = RetryPolicy(
            attempts=2, base_delay_s=0.1, jitter=0.5
        ).delay_s(1, _random.Random(7))
        assert 0.05 <= jittered <= 0.15

    def test_circuit_breaker_transitions(self):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            threshold=2, cooldown_s=5.0, clock=lambda: clock["now"]
        )
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()  # still cooling down
        clock["now"] = 5.1
        assert breaker.allow()  # half-open probe
        assert breaker.state == "half-open"
        breaker.record_failure()  # probe failed -> re-open
        assert breaker.state == "open" and breaker.opens == 2
        clock["now"] = 11.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_stalled_server_surfaces_service_timeout(self):
        """A server that accepts but never replies trips the per-call
        timeout as ServiceTimeout (and the connection is dropped)."""

        async def stall(reader, writer):
            try:
                await reader.read(1 << 16)
                await asyncio.sleep(30)
            except (asyncio.CancelledError, ConnectionError):
                pass
            finally:
                writer.close()

        async def main():
            server, port = await _scripted_port(stall)
            client = ServiceClient("127.0.0.1", port, timeout_s=0.1)
            await client.connect()
            try:
                with pytest.raises(ServiceTimeout):
                    await client._call(Opcode.PING)
                assert client.counters["timeouts"] == 1
                assert client._writer is None  # dropped, not half-read
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        asyncio.run(main())

    def test_immediate_close_is_connection_lost_not_timeout(self):
        async def slam(reader, writer):
            writer.close()

        async def main():
            server, port = await _scripted_port(slam)
            client = ServiceClient("127.0.0.1", port, timeout_s=5.0)
            await client.connect()
            try:
                with pytest.raises(ServiceConnectionLost):
                    await client._call(Opcode.PING)
                assert client.counters["timeouts"] == 0
                assert client.counters["connection_losses"] >= 1
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        asyncio.run(main())

    def test_busy_replies_are_retried_with_backoff(self):
        """Two BUSY sheds then OK: the retrying client succeeds and the
        counters record both backoffs."""
        script = [Status.BUSY, Status.BUSY, Status.OK]

        async def shedding(reader, writer):
            try:
                while script:
                    header = await reader.readexactly(4)
                    await reader.readexactly(protocol.frame_length(header))
                    writer.write(
                        protocol.encode_frame(
                            protocol.encode_reply(script.pop(0), b"")
                        )
                    )
                    await writer.drain()
            except (asyncio.IncompleteReadError, ConnectionError):
                pass
            finally:
                writer.close()

        async def main():
            server, port = await _scripted_port(shedding)
            client = ServiceClient(
                "127.0.0.1",
                port,
                retry=RetryPolicy(attempts=4, base_delay_s=0.001),
            )
            await client.connect()
            try:
                assert await client.ping()
                assert client.counters["busy_replies"] == 2
                assert client.counters["retries"] == 2
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        asyncio.run(main())

    def test_non_idempotent_request_is_never_replayed(self):
        """A dropped connection mid-ENROLL must raise, not silently
        re-apply a request the server may already have mutated on."""
        accepted = {"count": 0}

        async def drop_after_read(reader, writer):
            accepted["count"] += 1
            try:
                await reader.readexactly(4)
            except asyncio.IncompleteReadError:
                pass
            writer.close()

        async def main():
            server, port = await _scripted_port(drop_after_read)
            client = ServiceClient(
                "127.0.0.1",
                port,
                retry=RetryPolicy(attempts=4, base_delay_s=0.001),
            )
            await client.connect()
            try:
                with pytest.raises(ServiceConnectionLost):
                    await client._call(Opcode.ENROLL, b"x")
                assert accepted["count"] == 1  # no replay dials
                assert client.counters["retries"] == 0
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        asyncio.run(main())
