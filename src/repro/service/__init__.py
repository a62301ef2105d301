"""The McCLS verification gateway: an asyncio signing/verify service.

A deployment-shaped front-end over the library: one process owns the KGC
role (partial-key issuance, master rekey) and verifies signatures on
behalf of constrained clients, over a length-prefixed binary protocol
that reuses :mod:`repro.core.serialization` for every point, scalar and
identity on the wire.

* :mod:`repro.service.protocol` - framing and request/reply codec
  (opcode-byte flags carry per-request trace ids and deadline budgets).
* :mod:`repro.service.server`   - the gateway: bounded request queue with
  explicit BUSY load-shed, a micro-batcher that folds each drained verify
  window through the cross-signer batch verifier, the session-table fast
  path, deadline enforcement and graceful drain.
* :mod:`repro.service.pool`     - supervised crypto worker-process pool
  (identity-affinity routing, crash/hang containment).
* :mod:`repro.service.supervisor` - heartbeat / job-deadline / jittered
  restart-backoff policy over the pool's workers.
* :mod:`repro.service.client`   - resilient client library (pipelining,
  retry policy, per-call timeouts, reconnect-and-replay, circuit
  breaker, local signing through a verifier-view scheme).
* :mod:`repro.service.chaosproxy` - deterministic wire-level fault
  injection (resets, stalls, latency, mid-frame truncation).
* :mod:`repro.service.loadgen`  - load + chaos harness behind ``python
  -m repro loadgen``; writes BENCH_service.json.
"""

from repro.service.chaosproxy import ChaosPlan, ChaosProxy
from repro.service.client import CircuitBreaker, RetryPolicy, ServiceClient
from repro.service.loadgen import LoadgenConfig, run_loadgen
from repro.service.pool import VerifyWorkerPool
from repro.service.protocol import (
    DEADLINE_FLAG,
    MAX_FRAME,
    TRACE_FLAG,
    Opcode,
    Status,
    decode_reply,
    decode_request,
    encode_frame,
    encode_reply,
    encode_request,
)
from repro.service.server import VerificationGateway
from repro.service.supervisor import RestartBackoff, WorkerSupervisor

__all__ = [
    "DEADLINE_FLAG",
    "MAX_FRAME",
    "TRACE_FLAG",
    "Opcode",
    "Status",
    "ChaosPlan",
    "ChaosProxy",
    "CircuitBreaker",
    "RetryPolicy",
    "RestartBackoff",
    "ServiceClient",
    "VerificationGateway",
    "VerifyWorkerPool",
    "WorkerSupervisor",
    "LoadgenConfig",
    "run_loadgen",
    "decode_reply",
    "decode_request",
    "encode_frame",
    "encode_reply",
    "encode_request",
]
