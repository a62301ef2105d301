"""Wire protocol of the verification gateway.

Framing: every message (request or reply) is one frame -

    [4-byte big-endian body length][body]

capped at :data:`MAX_FRAME`.  A request body is ``[opcode][payload]``, a
reply body is ``[status][payload]``.  Requests on one connection are
answered strictly in order, so clients may pipeline without tagging.

Payloads reuse :mod:`repro.core.serialization` wherever key material
crosses the wire (identities, points, scalars, signatures); the
parameter-shaped replies (PARAMS/REKEY/STATS) are UTF-8 JSON, mirroring
the keystore's curve document so a client can reconstruct the exact
curve.  Every decoder in this module is *total* over hostile bytes:
malformed input raises :class:`~repro.errors.SerializationError`, never
an unhandled decoder error - the server turns those into clean ERR
replies and keeps the connection alive.
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.mccls import McCLSSignature
from repro.core.session import (
    KEY_BYTES,
    MAC_BYTES,
    SESSION_ID_BYTES,
    SessionAccept,
    SessionHello,
)
from repro.core.serialization import (
    decode_g1,
    decode_g2,
    decode_identity,
    decode_mccls_signature,
    decode_scalar,
    encode_g1,
    encode_g2,
    encode_identity,
    encode_mccls_signature,
    encode_scalar,
)
from repro.errors import SerializationError
from repro.pairing.bn import BNCurve, bn254, derive_bn_curve
from repro.pairing.curve import CurvePoint
from repro.schemes.base import PartialPrivateKey, UserKeyPair

#: hard cap on one frame's body (requests and replies alike)
MAX_FRAME = 1 << 20

#: opcode-byte flag marking a request that carries a trace id header
TRACE_FLAG = 0x80

#: opcode-byte flag marking a request that carries a deadline header
DEADLINE_FLAG = 0x40

#: upper bound on one request's deadline budget (u32 milliseconds)
MAX_DEADLINE_MS = 0xFFFFFFFF

_LEN = struct.Struct("!I")
_MSGLEN = struct.Struct("!H")
_TRACE = struct.Struct("!Q")
_DEADLINE = struct.Struct("!I")


class Opcode(enum.IntEnum):
    """Request kinds the gateway serves."""

    PING = 1
    PARAMS = 2
    ENROLL = 3
    VERIFY = 4
    REKEY = 5
    STATS = 6
    METRICS = 7
    SESSION = 8
    VERIFY_FAST = 9


class Status(enum.IntEnum):
    """First byte of every reply body."""

    OK = 0
    ERR = 1
    BUSY = 2


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def encode_frame(body: bytes) -> bytes:
    """Length-prefix one message body."""
    if len(body) > MAX_FRAME:
        raise SerializationError(
            f"frame body of {len(body)} bytes exceeds the {MAX_FRAME} cap"
        )
    return _LEN.pack(len(body)) + body


def frame_length(header: bytes) -> int:
    """Parse the 4-byte length prefix; rejects oversized declarations."""
    if len(header) != _LEN.size:
        raise SerializationError("truncated frame header")
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise SerializationError(
            f"declared frame of {length} bytes exceeds the {MAX_FRAME} cap"
        )
    return length


# ---------------------------------------------------------------------------
# Request / reply envelopes
# ---------------------------------------------------------------------------


def encode_request(
    opcode: Opcode,
    payload: bytes = b"",
    trace_id: Optional[int] = None,
    deadline_ms: Optional[int] = None,
) -> bytes:
    """``[opcode][headers][payload]`` request body.

    With a ``trace_id``, the opcode byte carries :data:`TRACE_FLAG` and an
    8-byte big-endian trace id header precedes the payload, so one verify
    can be followed client -> queue -> batch -> pairing in span traces.
    With a ``deadline_ms``, the opcode byte carries :data:`DEADLINE_FLAG`
    and a 4-byte big-endian millisecond budget follows the trace header
    (if any): the server sheds the request with ``ERR deadline`` once the
    budget has elapsed instead of burning a pairing on a reply nobody is
    waiting for.  Requests without either flag are unchanged - old
    clients keep working.
    """
    first = int(opcode)
    headers = b""
    if trace_id is not None:
        if not 0 < trace_id < 1 << 64:
            raise SerializationError(f"trace id {trace_id} does not fit u64")
        first |= TRACE_FLAG
        headers += _TRACE.pack(trace_id)
    if deadline_ms is not None:
        if not 0 < deadline_ms <= MAX_DEADLINE_MS:
            raise SerializationError(
                f"deadline of {deadline_ms} ms does not fit u32 (or is 0)"
            )
        first |= DEADLINE_FLAG
        headers += _DEADLINE.pack(deadline_ms)
    return bytes([first]) + headers + payload


def decode_request(
    body: bytes,
) -> Tuple[Opcode, bytes, Optional[int], Optional[int]]:
    """Split a request body into (opcode, payload, trace id, deadline ms).

    Both headers are tolerated-absent: bodies from clients that never set
    :data:`TRACE_FLAG` / :data:`DEADLINE_FLAG` decode exactly as before
    (the last two tuple slots are ``None``).  Unknown opcodes and
    truncated headers are decode errors.
    """
    if not body:
        raise SerializationError("empty request body")
    first, rest, trace_id, deadline_ms = body[0], body[1:], None, None
    if first & TRACE_FLAG:
        first ^= TRACE_FLAG
        if len(rest) < _TRACE.size:
            raise SerializationError("truncated trace id header")
        (trace_id,) = _TRACE.unpack(rest[: _TRACE.size])
        rest = rest[_TRACE.size :]
        if trace_id == 0:
            raise SerializationError("trace id 0 is reserved")
    if first & DEADLINE_FLAG:
        first ^= DEADLINE_FLAG
        if len(rest) < _DEADLINE.size:
            raise SerializationError("truncated deadline header")
        (deadline_ms,) = _DEADLINE.unpack(rest[: _DEADLINE.size])
        rest = rest[_DEADLINE.size :]
        if deadline_ms == 0:
            raise SerializationError("deadline 0 is reserved")
    try:
        opcode = Opcode(first)
    except ValueError:
        raise SerializationError(f"unknown opcode {first}") from None
    return opcode, rest, trace_id, deadline_ms


def encode_reply(status: Status, payload: bytes = b"") -> bytes:
    """``[status][payload]`` reply body."""
    return bytes([status]) + payload


def decode_reply(body: bytes) -> Tuple[Status, bytes]:
    """Split a reply body; unknown statuses are a decode error."""
    if not body:
        raise SerializationError("empty reply body")
    try:
        status = Status(body[0])
    except ValueError:
        raise SerializationError(f"unknown reply status {body[0]}") from None
    return status, body[1:]


def error_reply(message: str) -> bytes:
    """An ERR reply carrying a UTF-8 diagnostic."""
    return encode_reply(Status.ERR, message.encode("utf-8"))


# ---------------------------------------------------------------------------
# VERIFY
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyRequest:
    """One decoded verification request."""

    identity: str
    public_key: CurvePoint
    message: bytes
    signature: McCLSSignature


def encode_verify_payload(
    curve: BNCurve,
    identity: str,
    public_key: CurvePoint,
    message: bytes,
    signature: McCLSSignature,
) -> bytes:
    """identity || P_ID || len(message) || message || sigma."""
    if len(message) > 0xFFFF:
        raise SerializationError("message too long for one verify request")
    return (
        encode_identity(identity)
        + encode_g1(curve, public_key)
        + _MSGLEN.pack(len(message))
        + message
        + encode_mccls_signature(curve, signature)
    )


def decode_verify_payload(curve: BNCurve, payload: bytes) -> VerifyRequest:
    """Decode (and curve-validate) one verify request payload."""
    identity, rest = decode_identity(payload)
    public_key, rest = decode_g1(curve, rest)
    if len(rest) < _MSGLEN.size:
        raise SerializationError("truncated message length")
    (msg_len,) = _MSGLEN.unpack(rest[: _MSGLEN.size])
    rest = rest[_MSGLEN.size :]
    if len(rest) < msg_len:
        raise SerializationError("truncated message")
    message, rest = rest[:msg_len], rest[msg_len:]
    signature = decode_mccls_signature(curve, rest)  # rejects trailing bytes
    return VerifyRequest(
        identity=identity,
        public_key=public_key,
        message=message,
        signature=signature,
    )


def split_verify_payload(curve: BNCurve, payload: bytes) -> Tuple[str, bytes]:
    """Cheap structural split of a verify payload: (identity, P_ID blob).

    Used by the gateway to group and route a verify window (identity
    affinity keeps each worker's pairing caches hot) without paying the
    full decode - no curve membership checks run here; the window
    function re-decodes with validation before any arithmetic touches the
    bytes.  Truncation is still a decode error so hostile frames never
    join a window.
    """
    identity, rest = decode_identity(payload)
    pk_size = 1 + 2 * ((curve.p.bit_length() + 7) // 8)  # tag + x + y
    if len(rest) < pk_size:
        raise SerializationError("truncated public key")
    return identity, rest[:pk_size]


def verify_reply(valid: bool) -> bytes:
    """OK reply carrying the boolean verdict."""
    return encode_reply(Status.OK, b"\x01" if valid else b"\x00")


def decode_verify_verdict(payload: bytes) -> bool:
    """Parse an OK verify reply's verdict byte."""
    if payload not in (b"\x00", b"\x01"):
        raise SerializationError("malformed verify verdict")
    return payload == b"\x01"


# ---------------------------------------------------------------------------
# ENROLL
# ---------------------------------------------------------------------------


def encode_enroll_payload(identity: str) -> bytes:
    """The enroll request payload is just the identity."""
    return encode_identity(identity)


def decode_enroll_payload(payload: bytes) -> str:
    """Decode an enroll payload; trailing bytes are a decode error."""
    identity, rest = decode_identity(payload)
    if rest:
        raise SerializationError(
            f"{len(rest)} trailing bytes after enroll identity"
        )
    return identity


def encode_user_keys(curve: BNCurve, keys: UserKeyPair) -> bytes:
    """Full issued key material: identity || x || P_ID || Q_ID || D_ID.

    This is the KGC handing a client its private material - the paper
    assumes out-of-band provisioning; a production gateway would wrap
    this frame in an authenticated transport.
    """
    return (
        encode_identity(keys.identity)
        + encode_scalar(curve, keys.secret_value)
        + encode_g1(curve, keys.public_key)
        + encode_g2(curve, keys.partial.q_id)
        + encode_g2(curve, keys.partial.d_id)
    )


def decode_user_keys(curve: BNCurve, payload: bytes) -> UserKeyPair:
    """Decode an enroll reply back into a usable key pair."""
    identity, rest = decode_identity(payload)
    secret_value, rest = decode_scalar(curve, rest)
    public_key, rest = decode_g1(curve, rest)
    q_id, rest = decode_g2(curve, rest)
    d_id, rest = decode_g2(curve, rest)
    if rest:
        raise SerializationError(
            f"{len(rest)} trailing bytes after enrolled keys"
        )
    return UserKeyPair(
        identity=identity,
        secret_value=secret_value,
        public_key=public_key,
        partial=PartialPrivateKey(identity=identity, q_id=q_id, d_id=d_id),
    )


# ---------------------------------------------------------------------------
# SESSION / VERIFY_FAST (the pairing-free fast path)
# ---------------------------------------------------------------------------

_SEQ = struct.Struct("!Q")


@dataclass(frozen=True)
class FastVerifyRequest:
    """One decoded MAC-authenticated fast-path request."""

    identity: str
    session_id: bytes
    seq: int
    message: bytes
    mac: bytes


def session_hello_auth_bytes(curve: BNCurve, hello: SessionHello) -> bytes:
    """The transcript the client's McCLS signature covers.

    Binding identity, static key and ephemeral into the bootstrap
    signature stops an attacker from splicing its own ephemeral into an
    honest client's handshake.
    """
    return (
        b"session-hello:"
        + encode_identity(hello.identity)
        + encode_g1(curve, hello.client_pub)
        + encode_g1(curve, hello.ephemeral)
    )


def encode_session_payload(
    curve: BNCurve, hello: SessionHello, signature: McCLSSignature
) -> bytes:
    """identity || P_C || T_C || McCLS signature over the hello transcript."""
    return (
        encode_identity(hello.identity)
        + encode_g1(curve, hello.client_pub)
        + encode_g1(curve, hello.ephemeral)
        + encode_mccls_signature(curve, signature)
    )


def decode_session_payload(
    curve: BNCurve, payload: bytes
) -> Tuple[SessionHello, McCLSSignature]:
    """Decode (and curve-validate) one SESSION request payload."""
    identity, rest = decode_identity(payload)
    client_pub, rest = decode_g1(curve, rest)
    ephemeral, rest = decode_g1(curve, rest)
    signature = decode_mccls_signature(curve, rest)  # rejects trailing bytes
    return (
        SessionHello(
            identity=identity, client_pub=client_pub, ephemeral=ephemeral
        ),
        signature,
    )


def encode_session_accept(curve: BNCurve, accept: SessionAccept) -> bytes:
    """The OK SESSION reply payload (message 2 of the handshake)."""
    if len(accept.confirm) != KEY_BYTES:
        raise SerializationError("confirmation tag must be 32 bytes")
    return (
        encode_identity(accept.gateway_identity)
        + encode_g1(curve, accept.gateway_pub)
        + encode_g1(curve, accept.gateway_r_pub)
        + encode_g1(curve, accept.ephemeral)
        + encode_g1(curve, accept.client_r_pub)
        + encode_scalar(curve, accept.client_d)
        + accept.confirm
    )


def decode_session_accept(curve: BNCurve, payload: bytes) -> SessionAccept:
    """Decode a SESSION reply back into the handshake's second message."""
    gateway_identity, rest = decode_identity(payload)
    gateway_pub, rest = decode_g1(curve, rest)
    gateway_r_pub, rest = decode_g1(curve, rest)
    ephemeral, rest = decode_g1(curve, rest)
    client_r_pub, rest = decode_g1(curve, rest)
    client_d, rest = decode_scalar(curve, rest)
    if len(rest) != KEY_BYTES:
        raise SerializationError("malformed session confirmation tag")
    return SessionAccept(
        gateway_identity=gateway_identity,
        gateway_pub=gateway_pub,
        gateway_r_pub=gateway_r_pub,
        ephemeral=ephemeral,
        client_r_pub=client_r_pub,
        client_d=client_d,
        confirm=rest,
    )


def fast_verify_mac_bytes(
    session_id: bytes, seq: int, identity: str, message: bytes
) -> Tuple[bytes, ...]:
    """The chunks a fast-path MAC covers, in canonical order."""
    return (session_id, _SEQ.pack(seq), identity.encode("utf-8"), message)


def encode_verify_fast_payload(
    identity: str, session_id: bytes, seq: int, message: bytes, mac: bytes
) -> bytes:
    """identity || session_id || seq || len(message) || message || mac."""
    if len(session_id) != SESSION_ID_BYTES:
        raise SerializationError("session id must be 16 bytes")
    if len(mac) != MAC_BYTES:
        raise SerializationError("fast-path MAC must be 32 bytes")
    if len(message) > 0xFFFF:
        raise SerializationError("message too long for one fast verify")
    return (
        encode_identity(identity)
        + session_id
        + _SEQ.pack(seq)
        + _MSGLEN.pack(len(message))
        + message
        + mac
    )


def decode_verify_fast_payload(payload: bytes) -> FastVerifyRequest:
    """Total decode of one VERIFY_FAST request payload."""
    identity, rest = decode_identity(payload)
    if len(rest) < SESSION_ID_BYTES + _SEQ.size + _MSGLEN.size:
        raise SerializationError("truncated fast-verify payload")
    session_id, rest = rest[:SESSION_ID_BYTES], rest[SESSION_ID_BYTES:]
    (seq,) = _SEQ.unpack(rest[: _SEQ.size])
    rest = rest[_SEQ.size :]
    (msg_len,) = _MSGLEN.unpack(rest[: _MSGLEN.size])
    rest = rest[_MSGLEN.size :]
    if len(rest) != msg_len + MAC_BYTES:
        raise SerializationError("malformed fast-verify payload")
    message, mac = rest[:msg_len], rest[msg_len:]
    return FastVerifyRequest(
        identity=identity,
        session_id=session_id,
        seq=seq,
        message=message,
        mac=mac,
    )


#: the ERR diagnostic a gateway sends when a fast-path session is not in
#: its table (expired, evicted, or killed by REKEY) - clients match on
#: this to re-handshake instead of failing the request
UNKNOWN_SESSION = "unknown session"


# ---------------------------------------------------------------------------
# PARAMS / STATS (JSON payloads)
# ---------------------------------------------------------------------------


def encode_json_payload(document: dict) -> bytes:
    """Compact UTF-8 JSON payload."""
    return json.dumps(document, sort_keys=True).encode("utf-8")


def decode_json_payload(payload: bytes) -> dict:
    """Total JSON decode: malformed bytes raise SerializationError."""
    try:
        document = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise SerializationError(f"malformed JSON payload: {exc}") from None
    if not isinstance(document, dict):
        raise SerializationError("JSON payload must be an object")
    return document


def decode_metrics_payload(payload: bytes) -> str:
    """The METRICS reply body: UTF-8 Prometheus text exposition."""
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SerializationError(f"malformed METRICS payload: {exc}") from None


def params_document(
    scheme_name: str, curve: BNCurve, p_pub_g1, p_pub_g2, backend: str = ""
) -> dict:
    """The PARAMS/REKEY reply: everything a verifier-view client needs.

    ``backend`` advertises the gateway's field backend so clients and
    spawned workers can match it; empty means unspecified (pre-backend
    peers), which clients treat as the default precedence.
    """
    document = {
        "scheme": scheme_name,
        "curve": {"name": curve.name, "t": str(curve.t)},
        "order": hex(curve.n),
        "p_pub_g1": encode_g1(curve, p_pub_g1).hex(),
        "p_pub_g2": encode_g2(curve, p_pub_g2).hex(),
    }
    if backend:
        document["backend"] = backend
    return document


def curve_from_params(document: dict, backend=None) -> BNCurve:
    """Reconstruct the gateway's curve from a PARAMS reply.

    Mirrors the keystore's curve document: BN254 by name, generated test
    curves by their BN parameter ``t``.  The field backend is taken from
    ``backend`` when given, else from the document's advertised backend,
    else the usual env/default precedence.
    """
    try:
        spec = document["curve"]
        name = spec.get("name", "")
        if backend is None:
            backend = document.get("backend") or None
        if name == "bn254":
            return bn254(backend=backend)
        return derive_bn_curve(int(spec["t"]), name=name, backend=backend)
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed curve document: {exc}") from None


def p_pub_from_params(curve: BNCurve, document: dict):
    """Decode (P_pub in G1, P_pub in G2) from a PARAMS reply."""
    try:
        g1_blob = bytes.fromhex(document["p_pub_g1"])
        g2_blob = bytes.fromhex(document["p_pub_g2"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed P_pub encoding: {exc}") from None
    p_pub_g1, rest1 = decode_g1(curve, g1_blob)
    p_pub_g2, rest2 = decode_g2(curve, g2_blob)
    if rest1 or rest2:
        raise SerializationError("trailing bytes after P_pub point")
    return p_pub_g1, p_pub_g2
