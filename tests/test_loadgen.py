"""Load harness: a tiny end-to-end run and the pipelined driver's re-send rule.

The run drives the in-process gateway through every phase the CI smoke
runs (enrolment, pipelined VERIFY, the session fast path, the rekey
probes) at a size that takes about a second.  The driver cases pin what
may be re-sent: a VERIFY after BUSY is, a VERIFY_FAST never is, because
its sequence number is consumed server-side.
"""

from __future__ import annotations

import asyncio
from collections import deque

from repro.service import protocol
from repro.service.loadgen import (
    LoadgenConfig,
    _drive_connection,
    _Job,
    _WorkerStats,
    run_loadgen,
)
from repro.service.protocol import Opcode, Status


def test_tiny_run_passes_its_checks():
    result = run_loadgen(
        LoadgenConfig(
            requests=128,
            identities=8,
            connections=2,
            bits=32,
            sessions=True,
            session_requests=256,
            out=None,
        )
    )
    checks = result["checks"]
    for name in (
        "verdicts_exact",
        "all_accounted",
        "rekey",
        "session_zero_pairings",
        "session_fast_path_clean",
        "session_rekey_rehandshake",
    ):
        assert checks[name], (name, checks)
    assert result["session"]["valid"] == result["session"]["requests"] == 256


def _drive_against_stub(job: _Job, replies):
    """Run one job through the driver against a server that answers the
    n-th frame it receives with ``replies[n]``; returns (frames, stats)."""
    received = []

    async def handler(reader, writer):
        try:
            while True:
                header = await reader.readexactly(4)
                body = await reader.readexactly(protocol.frame_length(header))
                received.append(body)
                reply = replies[min(len(received), len(replies)) - 1]
                writer.write(protocol.encode_frame(reply))
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    async def main():
        server = await asyncio.start_server(handler, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        stats = _WorkerStats()
        try:
            await asyncio.wait_for(
                _drive_connection("127.0.0.1", port, deque([job]), stats, 4),
                10.0,
            )
        finally:
            server.close()
            await server.wait_closed()
        return received, stats

    return asyncio.run(main())


BUSY = protocol.encode_reply(Status.BUSY, b"request queue full")


def test_busy_verify_fast_is_sent_once_and_counted_as_error():
    frame = protocol.encode_frame(
        protocol.encode_request(Opcode.VERIFY_FAST, b"payload")
    )
    job = _Job(frame=frame, expect_valid=True, opcode=Opcode.VERIFY_FAST)
    received, stats = _drive_against_stub(job, [BUSY])
    assert len(received) == 1
    assert stats.busy == 1
    assert len(stats.errors) == 1
    assert "VERIFY_FAST not re-sent" in stats.errors[0]
    assert stats.valid == stats.invalid == 0


def test_busy_verify_is_re_sent():
    frame = protocol.encode_frame(
        protocol.encode_request(Opcode.VERIFY, b"payload")
    )
    job = _Job(frame=frame, expect_valid=True)
    received, stats = _drive_against_stub(
        job, [BUSY, protocol.verify_reply(True)]
    )
    assert len(received) == 2
    assert stats.busy == 1
    assert stats.valid == 1
    assert stats.errors == []
