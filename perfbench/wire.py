"""Load-side connections: pipelined frames, FIFO reply matching, accounting.

The gateway answers each connection strictly in request order, so a
:class:`Link` keeps the operations it sent in a deque and hands every
reply to the oldest one.  Frames are pre-encoded; a read parses every
complete reply in the buffer and the replacement frames it triggers go
out in one write.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter, deque
from typing import Callable, List, Optional

from repro.service import protocol

perf = time.perf_counter

OK = int(protocol.Status.OK)


class PhaseLog:
    """Outcomes of the operations one phase (or probe) issued."""

    def __init__(self, name: str, traced: bool = False):
        self.name = name
        self.traced = traced
        self.attempted = 0
        self.answered = 0
        self.failed = 0
        self.wrong = 0
        self.fail_reasons: Counter = Counter()
        #: start (t0) of each failed op
        self.failed_t0: List[float] = []
        self.wrong_details: List[str] = []
        #: (t0, done, latency_ms) per answered op; t0 is the scheduled
        #: (open loop) or actual (closed loop) start
        self.done: List[tuple] = []
        #: how late the generator sent each open-loop op (ms)
        self.late_ms: List[float] = []
        #: traced runs: (trace id, sent, received) per round trip
        self.rtts: List[tuple] = []
        #: open loop, per block: (time, host CPU ticks) about every
        #: ``config.OPEN_SLICE_S`` of the schedule, for telling the slices
        #: the hypervisor stole from
        self.host_marks: List[List[tuple]] = []
        #: wall window the phase's traffic (its last block's) occupied
        self.window = (0.0, 0.0)

    def fail(self, reason: str, t0: float) -> None:
        self.failed += 1
        self.fail_reasons[reason] += 1
        self.failed_t0.append(t0)

    def mismatch(self, detail: str) -> None:
        self.answered += 1
        self.wrong += 1
        if len(self.wrong_details) < 5:
            self.wrong_details.append(detail)

    @property
    def outstanding(self) -> int:
        return self.attempted - self.answered - self.failed


class Op:
    """One logical operation: one or more request frames on one link."""

    __slots__ = ("log", "t0")

    def first_frame(self) -> bytes:
        raise NotImplementedError

    def on_reply(self, link: "Link", body: bytes, sent: float, now: float) -> Optional[bytes]:
        """Judge one reply; return the op's next frame or None when done."""
        raise NotImplementedError

    def finish(self, now: float) -> None:
        log = self.log
        log.answered += 1
        log.done.append((self.t0, now, (now - self.t0) * 1e3))


class VerifyOp(Op):
    """A single pre-encoded request whose reply is a verdict byte."""

    __slots__ = ("frame", "expect", "tid")

    def __init__(self, frame: bytes, expect: bool, tid: int = 0):
        self.frame = frame
        self.expect = 1 if expect else 0
        self.tid = tid

    def first_frame(self):
        return self.frame

    def on_reply(self, link, body, sent, now):
        log = self.log
        if log.traced:
            log.rtts.append((self.tid, sent, now))
        if body[0] != OK:
            log.fail(reason_of(body), self.t0)
            return None
        if len(body) != 2 or body[1] != self.expect:
            log.mismatch(f"verdict {body[1:]!r}, expected {self.expect}")
            return None
        self.finish(now)
        return None


def reason_of(body: bytes) -> str:
    """``"ERR worker-lost"``-style failure label of a non-OK reply."""
    try:
        status = protocol.Status(body[0]).name
    except ValueError:
        status = f"status {body[0]}"
    detail = body[1:48].decode("utf-8", "replace").split(":")[0]
    return f"{status} {detail}".strip()


class Link:
    """One pipelined gateway connection."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, index: int):
        self.reader = reader
        self.writer = writer
        self.index = index
        self.inflight: deque = deque()
        self._out: List[bytes] = []
        #: closed-loop refill hook, called when an op completes
        self.on_done: Optional[Callable[["Link", int], None]] = None
        self.closed = False
        self._task: Optional[asyncio.Task] = None

    @classmethod
    async def open(cls, port: int, index: int) -> "Link":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        link = cls(reader, writer, index)
        link._task = asyncio.create_task(link._read_loop())
        return link

    def queue(self, op: Op, frame: bytes, now: float) -> None:
        self._out.append(frame)
        self.inflight.append((op, now))

    def flush(self) -> None:
        if self._out:
            self.writer.write(b"".join(self._out))
            self._out.clear()

    async def _read_loop(self) -> None:
        buf = bytearray()
        inflight = self.inflight
        reader = self.reader
        try:
            while True:
                chunk = await reader.read(1 << 18)
                if not chunk:
                    break
                now = perf()
                buf += chunk
                offset = 0
                end = len(buf)
                completed = 0
                while end - offset >= 4:
                    length = int.from_bytes(buf[offset:offset + 4], "big")
                    if end - offset - 4 < length:
                        break
                    body = bytes(buf[offset + 4:offset + 4 + length])
                    offset += 4 + length
                    op, sent = inflight.popleft()
                    if op.log is None:
                        continue  # abandoned after a drain timeout
                    nxt = op.on_reply(self, body, sent, now)
                    if nxt is not None:
                        self.queue(op, nxt, perf())
                    else:
                        completed += 1
                del buf[:offset]
                if completed and self.on_done is not None:
                    self.on_done(self, completed)
                self.flush()
        except (ConnectionError, OSError):
            pass
        finally:
            self.closed = True
            while inflight:
                op, _sent = inflight.popleft()
                if op.log is not None:
                    op.log.fail("lost connection", op.t0)
                    op.log = None

    def abandon(self) -> int:
        """Give up on every op still awaiting a reply (drain timeout)."""
        count = 0
        for op, _sent in self.inflight:
            if op.log is not None:
                op.log.fail("timeout", op.t0)
                op.log = None
                count += 1
        return count

    async def close(self) -> None:
        self.closed = True
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass


class CallOp(Op):
    """Set-up helper: keeps the raw reply body for the caller."""

    __slots__ = ("body", "tid", "remaining")

    def __init__(self, log: PhaseLog, t0: float, tid: int, remaining: list):
        self.log = log
        self.t0 = t0
        self.tid = tid
        self.body = b""
        self.remaining = remaining

    def on_reply(self, link, body, sent, now):
        self.body = body
        if self.log.traced:
            self.log.rtts.append((self.tid, sent, now))
        self.finish(now)
        self.remaining[0] -= 1
        if self.remaining[0] == 0:
            self.remaining[1].set()
        return None


async def round_trips(
    links: List[Link],
    frames: List[bytes],
    log: Optional[PhaseLog] = None,
    tids: Optional[List[int]] = None,
    timeout_s: float = 120.0,
) -> List[bytes]:
    """Pipeline set-up frames round-robin over the links; return the
    reply bodies in frame order.  Raises on a lost or stalled link."""
    if not frames:
        return []
    log = log if log is not None else PhaseLog("setup")
    tids = tids if tids is not None else [0] * len(frames)
    remaining = [len(frames), asyncio.Event()]
    failed_before = log.failed
    now = perf()
    ops = []
    for index, (frame, tid) in enumerate(zip(frames, tids)):
        op = CallOp(log, now, tid, remaining)
        ops.append(op)
        links[index % len(links)].queue(op, frame, now)
        log.attempted += 1
    for link in links:
        link.flush()
    await asyncio.wait_for(remaining[1].wait(), timeout_s)
    if log.failed > failed_before:
        raise RuntimeError(f"set-up round trips failed: {dict(log.fail_reasons)}")
    return [op.body for op in ops]


def reply_payload(body: bytes, what: str) -> bytes:
    """The payload of an OK reply; raises with the gateway's detail otherwise."""
    status, payload = protocol.decode_reply(body)
    if status != protocol.Status.OK:
        raise RuntimeError(f"{what}: {status.name} {payload[:80]!r}")
    return payload
