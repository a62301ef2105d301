"""Gateway shutdown: graceful drain, fail-fast stop, idempotence.

The drain contract: ``stop(drain=True)`` closes the listener, sheds any
frame that arrives afterwards with ``BUSY server draining``, answers
every request already admitted to the queue, and only then tears the
connections down.  ``stop()`` without drain fails queued work fast with
``ERR server shutting down`` - and in both modes no reply future is ever
left stranded, so the call always returns.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ServiceConnectionLost
from repro.pairing.bn import toy_curve
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.protocol import Opcode, Status
from repro.service.server import VerificationGateway

CURVE = toy_curve(32)


async def _started_gateway(**kwargs) -> VerificationGateway:
    kwargs.setdefault("curve", CURVE)
    kwargs.setdefault("seed", 5)
    gateway = VerificationGateway(**kwargs)
    await gateway.start()
    return gateway


async def _raw_client(gateway) -> ServiceClient:
    client = ServiceClient(gateway.host, gateway.port)
    await client.connect()
    return client


def _ping_frame() -> bytes:
    return protocol.encode_frame(protocol.encode_request(Opcode.PING))


class TestGracefulDrain:
    def test_drain_answers_every_admitted_request(self):
        async def main():
            gateway = await _started_gateway(queue_size=16)
            client = await _raw_client(gateway)
            try:
                # Pause the consumer so the requests genuinely sit in the
                # queue when stop() begins.
                gateway._consumer.cancel()
                try:
                    await gateway._consumer
                except asyncio.CancelledError:
                    pass
                for _ in range(4):
                    client._writer.write(_ping_frame())
                await client._writer.drain()
                await asyncio.sleep(0.05)  # admitted into the queue
                assert gateway._queue.qsize() == 4

                gateway._consumer = asyncio.create_task(gateway._consume())
                await asyncio.wait_for(gateway.stop(drain=True), 10.0)

                statuses = []
                for _ in range(4):
                    status, _payload = await client._read_reply()
                    statuses.append(status)
                assert statuses == [Status.OK] * 4
                # After the replies the server closed the connection.
                with pytest.raises(ServiceConnectionLost):
                    await client._read_reply()
            finally:
                await client.close()
                await gateway.stop()

        asyncio.run(main())

    def test_frames_during_drain_are_shed_busy(self):
        async def main():
            gateway = await _started_gateway()
            client = await _raw_client(gateway)
            try:
                gateway._draining = True
                client._writer.write(_ping_frame())
                await client._writer.drain()
                status, payload = await client._read_reply()
                assert status == Status.BUSY
                assert payload == b"server draining"
                assert gateway.counters["drain_rejections"] == 1
            finally:
                gateway._draining = False
                await client.close()
                await gateway.stop()

        asyncio.run(main())

    def test_listener_is_closed_before_drain_finishes(self):
        async def main():
            gateway = await _started_gateway()
            host, port = gateway.host, gateway.port
            await asyncio.wait_for(gateway.stop(drain=True), 10.0)
            with pytest.raises(ServiceConnectionLost):
                await ServiceClient(host, port).connect()

        asyncio.run(main())


class TestFastStop:
    def test_queued_work_fails_fast_without_hanging(self):
        async def main():
            gateway = await _started_gateway(queue_size=16)
            client = await _raw_client(gateway)
            try:
                gateway._consumer.cancel()
                try:
                    await gateway._consumer
                except asyncio.CancelledError:
                    pass
                for _ in range(3):
                    client._writer.write(_ping_frame())
                await client._writer.drain()
                await asyncio.sleep(0.05)
                assert gateway._queue.qsize() == 3

                # No drain: stop() must return promptly even though the
                # consumer is gone - the flush answers the queue itself.
                await asyncio.wait_for(gateway.stop(), 5.0)
                assert gateway._queue.qsize() == 0

                statuses = []
                try:
                    for _ in range(3):
                        status, payload = await asyncio.wait_for(
                            client._read_reply(), 2.0
                        )
                        statuses.append((status, payload))
                except ServiceConnectionLost:
                    pass  # teardown may cut the stream after the flush
                for status, payload in statuses:
                    assert status == Status.ERR
                    assert payload == b"server shutting down"
            finally:
                await client.close()

        asyncio.run(main())

    def test_double_stop_is_idempotent(self):
        async def main():
            gateway = await _started_gateway()
            await gateway.stop()
            await asyncio.wait_for(gateway.stop(), 1.0)  # no-op, no hang
            await asyncio.wait_for(gateway.stop(drain=True), 1.0)

        asyncio.run(main())

    def test_stop_while_rekey_waits_on_windows_answers_all(self):
        """stop() during a REKEY that awaits the verify window ahead of
        it still returns, and every pipelined request gets a reply."""

        async def main():
            gateway = await _started_gateway(workers=2)
            client = await _raw_client(gateway)
            try:
                await client.params()
                keys = await client.enroll("node-stop")
                signature = client.sign(b"m", keys)
                verify = protocol.encode_frame(
                    protocol.encode_request(
                        Opcode.VERIFY,
                        protocol.encode_verify_payload(
                            client.curve, keys.identity, keys.public_key,
                            b"m", signature,
                        ),
                    )
                )
                rekey = protocol.encode_frame(
                    protocol.encode_request(Opcode.REKEY)
                )
                for handle in gateway.pool.handles():
                    handle.conn.send(("sleep", 1.5))  # both workers busy
                client._writer.write(verify + rekey + verify)
                await client._writer.drain()
                await asyncio.sleep(0.2)  # REKEY is waiting on the window
                stop = asyncio.ensure_future(gateway.stop())
                replies = []
                try:
                    for _ in range(3):
                        replies.append(
                            await asyncio.wait_for(client._read_reply(), 5.0)
                        )
                except ServiceConnectionLost:
                    pass
                await asyncio.wait_for(stop, 15.0)
                assert len(replies) == 3
                for status, payload in replies[1:]:
                    assert status == Status.ERR
                    assert payload == b"server shutting down"
            finally:
                await client.close()
                await gateway.stop()

        asyncio.run(main())

    def test_stop_with_worker_pool_reaps_workers(self):
        async def main():
            gateway = await _started_gateway(workers=1)
            assert gateway.pool is not None
            processes = [
                h.process for h in gateway.pool.handles()
                if h.process is not None
            ]
            await asyncio.wait_for(gateway.stop(), 15.0)
            assert gateway.pool is None
            for process in processes:
                assert process.exitcode is not None  # reaped, not leaked

        asyncio.run(main())
