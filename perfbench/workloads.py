"""Inputs of the workloads, made from the benchmark seed.

The gateway's KGC runs on a fixed seed, so the same benchmark seed gives
the same device choices, messages, forged positions and arrival times on
every run; the gateway only ever sees the frames built here.

Each workload offers:

* ``setup(client, log)`` - its warm-up round trips (enrollment,
  handshakes, first-visit admission), returning the seconds they took;
  client-side signing between them is input generation and is left out
  of that time;
* ``closed_ops(link, count)`` - operations for one connection of the
  closed phase;
* ``open_ops(count)`` - ``(link index, op)`` pairs for an open-loop
  phase, in arrival order.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Optional, Tuple

from repro.core.mccls import McCLSSignature
from repro.core.session import SessionInitiator
from repro.schemes.base import UserKeyPair
from repro.service import protocol
from repro.service.client import build_verifier_view
from repro.service.protocol import Opcode

import config
from wire import Link, Op, PhaseLog, VerifyOp, perf, reply_payload, round_trips

_ENCODE = protocol.encode_request
_FRAME = protocol.encode_frame


class TraceIds:
    """Wire trace ids for a traced run (0 = untraced frame)."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self._ids = itertools.count(1)

    def next(self) -> int:
        return next(self._ids) if self.enabled else 0


def frame(opcode: Opcode, payload: bytes, tid: int) -> bytes:
    return _FRAME(_ENCODE(opcode, payload, tid or None))


class Client:
    """Client-side view of the gateway: curve, verifier view, links."""

    def __init__(self, links: List[Link], params: dict):
        self.links = links
        self.params = params
        self.curve, self.view = build_verifier_view(params)

    @classmethod
    async def connect(cls, links: List[Link]) -> "Client":
        (body,) = await round_trips(links[:1], [_FRAME(_ENCODE(Opcode.PARAMS))])
        return cls(links, protocol.decode_json_payload(reply_payload(body, "PARAMS")))


async def enroll(client: Client, identities: List[str], log: PhaseLog,
                 trace_ids: TraceIds) -> Tuple[List[UserKeyPair], float]:
    """ENROLL every identity (pipelined); returns keys and elapsed seconds."""
    tids = [trace_ids.next() for _ in identities]
    frames = [
        frame(Opcode.ENROLL, protocol.encode_enroll_payload(i), tid)
        for i, tid in zip(identities, tids)
    ]
    started = perf()
    bodies = await round_trips(client.links, frames, log, tids)
    elapsed = perf() - started
    keys = [
        protocol.decode_user_keys(client.curve, reply_payload(b, "ENROLL"))
        for b in bodies
    ]
    for identity, key in zip(identities, keys):
        if key.identity != identity:
            raise RuntimeError(f"ENROLL answered {key.identity!r} for {identity!r}")
    return keys, elapsed


#: skew of the device choice: device i sends with weight 1 / (i + 1)
ZIPF_EXPONENT = 1.0


def _zipf_cum_weights(n: int, exponent: float) -> List[float]:
    return list(itertools.accumulate(1.0 / (rank ** exponent) for rank in range(1, n + 1)))


class FleetVerify:
    """VERIFY of distinct messages from a Zipf-skewed enrolled fleet."""

    def __init__(self, workload, seed: int, trace_ids: TraceIds):
        self.w = workload
        self.rng = random.Random(f"fleet_verify/{seed}")
        self.tids = trace_ids
        self.identities = [f"dev-{i:03d}" for i in range(workload.devices)]
        self.cum = _zipf_cum_weights(workload.devices, ZIPF_EXPONENT)
        self.client: Optional[Client] = None
        self._keys_blob: Optional[list] = None

    async def setup(self, client: Client, log: PhaseLog) -> Dict[str, float]:
        self.client = client
        keys, enroll_s = await enroll(client, self.identities, log, self.tids)
        blob = [protocol.encode_user_keys(client.curve, k) for k in keys]
        if blob != self._keys_blob:
            self._signers(keys)
            self._keys_blob = blob
        # first visit of every signer: the gateway admits its anchor
        warm = [self._op(d, False) for d in range(len(keys))]
        started = perf()
        bodies = await round_trips(
            client.links, [op.frame for op in warm], log, [op.tid for op in warm]
        )
        warmup_s = perf() - started
        for op, body in zip(warm, bodies):
            if body != protocol.verify_reply(True):
                raise RuntimeError(f"warm-up verify answered {body[:60]!r}")
        return {"enroll_s": enroll_s, "warmup_s": warmup_s}

    def _signers(self, keys: List[UserKeyPair]) -> None:
        """Per-signer material for fast, valid McCLS signatures.

        R = (r - x)P is walked along R += dP instead of one scalar
        multiplication per signature: r = V/h is public in McCLS anyway,
        and the gateway's work per signature does not depend on how R
        was picked.
        """
        view = self.client.view
        ctx = view.ctx
        n = ctx.order
        self.keys = keys
        self.s_points = [view._s_component(k) for k in keys]
        self.u = self.rng.randrange(1, n)
        self.step = self.rng.randrange(1, n)
        self.r_point = ctx.g1_mul(ctx.g1, self.u)
        self.step_point = ctx.g1_mul(ctx.g1, self.step)

    def _op(self, device: int, forged: bool) -> VerifyOp:
        client = self.client
        ctx = client.view.ctx
        n = ctx.order
        key = self.keys[device]
        self.u = (self.u + self.step) % n
        self.r_point = self.r_point + self.step_point
        message = self.rng.randbytes(config.MESSAGE_BYTES)
        h = ctx.hash_scalar(b"H2/mccls", message, self.r_point, key.public_key)
        signature = McCLSSignature(
            v=(h * ((self.u + key.secret_value) % n)) % n,
            s=self.s_points[device],
            r=self.r_point,
        )
        if forged:  # altered after signing
            message = bytes([message[0] ^ 0x01]) + message[1:]
        payload = protocol.encode_verify_payload(
            client.curve, key.identity, key.public_key, message, signature
        )
        tid = self.tids.next()
        return VerifyOp(frame(Opcode.VERIFY, payload, tid), not forged, tid)

    def _next(self) -> VerifyOp:
        device = self.rng.choices(range(len(self.keys)), cum_weights=self.cum)[0]
        return self._op(device, self.rng.random() < self.w.bad_share)

    def closed_ops(self, link: int, count: int) -> List[Op]:
        return [self._next() for _ in range(count)]

    def open_ops(self, count: int) -> List[Tuple[int, Op]]:
        return [(i % len(self.client.links), self._next()) for i in range(count)]


class SessionFast:
    """VERIFY_FAST over established sessions, each pinned to one link."""

    def __init__(self, workload, seed: int, trace_ids: TraceIds):
        self.w = workload
        self.rng = random.Random(f"session_fast/{seed}")
        self.tids = trace_ids
        self.identities = [f"fast-{i:03d}" for i in range(workload.devices)]
        self.client: Optional[Client] = None

    async def setup(self, client: Client, log: PhaseLog) -> Dict[str, float]:
        self.client = client
        keys, enroll_s = await enroll(client, self.identities, log, self.tids)
        view = client.view
        curve = client.curve
        initiators = []
        hellos = []
        tids = []
        for key in keys:
            initiator = SessionInitiator(
                view.ctx, view.p_pub_g1, key.identity, rng=self.rng
            )
            hello = initiator.hello()
            signature = view.sign(protocol.session_hello_auth_bytes(curve, hello), key)
            initiators.append(initiator)
            tids.append(self.tids.next())
            hellos.append(frame(
                Opcode.SESSION, protocol.encode_session_payload(curve, hello, signature), tids[-1]
            ))
        started = perf()
        # device i stays on link i % links for its whole life
        bodies = await round_trips(client.links, hellos, log, tids)
        handshake_s = perf() - started
        self.sessions = []
        for initiator, body in zip(initiators, bodies):
            accept = protocol.decode_session_accept(curve, reply_payload(body, "SESSION"))
            self.sessions.append(initiator.finish(accept))  # checks key confirmation
        self.seq = [0] * len(self.sessions)
        return {"enroll_s": enroll_s, "handshake_s": handshake_s}

    def _op(self, device: int) -> VerifyOp:
        session = self.sessions[device]
        self.seq[device] += 1
        seq = self.seq[device]
        message = self.rng.randbytes(config.MESSAGE_BYTES)
        mac = session.mac(*protocol.fast_verify_mac_bytes(
            session.session_id, seq, session.client_identity, message
        ))
        corrupt = self.rng.random() < self.w.bad_share
        if corrupt:
            mac = bytes([mac[0] ^ 0x01]) + mac[1:]
        payload = protocol.encode_verify_fast_payload(
            session.client_identity, session.session_id, seq, message, mac
        )
        tid = self.tids.next()
        return VerifyOp(frame(Opcode.VERIFY_FAST, payload, tid), not corrupt, tid)

    def closed_ops(self, link: int, count: int) -> List[Op]:
        mine = list(range(link, len(self.sessions), len(self.client.links)))
        return [self._op(self.rng.choice(mine)) for _ in range(count)]

    def open_ops(self, count: int) -> List[Tuple[int, Op]]:
        links = len(self.client.links)
        out = []
        for _ in range(count):
            device = self.rng.randrange(len(self.sessions))
            out.append((device % links, self._op(device)))
        return out


TRAFFIC = {"fleet_verify": FleetVerify, "session_fast": SessionFast}
