"""Span recording at layer boundaries, for the benchmark's traced run.

:func:`install` replaces the public entry points of each measured layer
with thin wrappers that time every call with ``time.perf_counter`` (the
system-wide CLOCK_MONOTONIC on Linux, so load, gateway and worker stamps
compare directly).  ``gateway.py`` calls it at import time when tracing
is on; spawn-started crypto workers re-import that module, so the same
wrappers run in every process of the deployment.

Everything stays in memory and is written to one marshal file per
process: the gateway calls :meth:`Recorder.dump` after it stops, workers
dump when the pool sends them its stop message.  ``layers.py`` reads the
files back and checks that every worker wrote one.

Record shapes (all plain tuples, so marshal can write them):

* span ``(name, start, end, self_s, depth, (info, ops))`` - ``self_s``
  is the duration minus the time covered by wrapped calls nested inside
  it; ``info`` is per-name (a trace id, fold statistics, a term count);
  ``ops`` is the process's cumulative op counts (:data:`OP_SLOTS`) at the
  end of an outermost span, None for nested ones.
* job ``(mode, start, end, job_id, trace_ids, crypto_s, items, ok)`` -
  one ``VerifyWorkerPool.submit*`` round trip as the event loop saw it.
* pipe event ``(kind, t, job_id)`` - ``send``/``recv`` on the gateway
  side, ``start``/``end`` on the worker side of the job pipe.
* reply ``(trace_id, t)`` - when the event loop encoded the reply of a
  request it answered inline (ENROLL, SESSION, ...).
* sink ``(name, trace_id, start_s, ms)`` - the gateway's own tracer
  spans (``server.queue_wait``, ``server.request``, ...).
"""

from __future__ import annotations

import functools
import marshal
import multiprocessing
import multiprocessing.connection
import os
import time

from repro.obs import runtime as obs_runtime
from repro.obs.events import EventSink

#: op-count slots appended to the info of every outermost span
OP_SLOTS = (
    "miller_loops",
    "final_exps",
    "fp_mul",
    "g1_msm_terms",
    "g1_mul_generator",
    "g1_mul_other",
    "g2_mul_trusted",
    "g2_mul_untrusted",
)

_perf = time.perf_counter


class MemorySink(EventSink):
    """Event sink keeping the gateway tracer's spans as compact tuples."""

    def __init__(self, recorder: "Recorder"):
        self._out = recorder.sink

    def emit(self, event: str, **fields: object) -> None:
        if event == "span":
            self._out.append(
                (fields.get("name"), fields.get("trace"),
                 fields.get("start_s"), fields.get("ms"))
            )


class Recorder:
    """One process's spans, jobs and pipe events."""

    def __init__(self, out_dir: str, role: str):
        self.out_dir = out_dir
        self.role = role
        self.spans: list = []
        self.jobs: list = []
        self.pipe: list = []
        self.replies: list = []
        self.sink: list = []
        #: child-time accumulators of the open synchronous spans
        self.stack: list = []
        #: pairing-layer operation counts the obs tally does not keep
        self.counts = dict.fromkeys(OP_SLOTS[3:], 0)
        #: id(payload) -> (payload, trace id) for queued pool-path requests
        self.tid_of_payload: dict = {}
        #: id(payload list) -> job id, handed from the pipe back to submit
        self.job_ids: dict = {}
        #: trace id of the request the event loop is answering inline
        self.inline_tid = None

    def op_totals(self) -> tuple:
        tally = obs_runtime.tally
        counts = self.counts
        if tally is None:
            head = (0, 0, 0)
        else:
            head = (tally.miller_loops, tally.final_exps, tally.fp_mul)
        return head + tuple(counts[name] for name in OP_SLOTS[3:])

    def dump(self) -> str:
        """Write everything recorded so far; returns the file path."""
        name = multiprocessing.current_process().name
        path = os.path.join(self.out_dir, f"{self.role}-{os.getpid()}.marshal")
        document = {
            "role": self.role,
            "process": name,
            "pid": os.getpid(),
            "spans": self.spans,
            "jobs": self.jobs,
            "pipe": self.pipe,
            "replies": self.replies,
            "sink": self.sink,
        }
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            marshal.dump(document, handle)
        os.replace(tmp, path)
        return path


def _wrap_sync(recorder: Recorder, owner, attr: str, name: str, info_of=None):
    """Replace ``owner.attr`` with a timing wrapper recording one span."""
    original = getattr(owner, attr)
    stack = recorder.stack
    spans = recorder.spans

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        stack.append(0.0)
        start = _perf()
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            end = _perf()
            covered = stack.pop()
            duration = end - start
            info = info_of(args, kwargs, result) if info_of is not None else None
            if stack:
                stack[-1] += duration
                spans.append((name, start, end, duration - covered, len(stack), (info, None)))
            else:
                spans.append((name, start, end, duration - covered, 0,
                              (info, recorder.op_totals())))

    setattr(owner, attr, wrapper)


def _install_protocol(recorder: Recorder) -> None:
    from repro.service import protocol

    pooled = {protocol.Opcode.VERIFY, protocol.Opcode.VERIFY_FAST}

    def decoded(args, kwargs, result):
        if result is None:
            return None
        opcode, payload, trace_id, _deadline = result
        if trace_id is not None:
            if opcode in pooled:
                recorder.tid_of_payload[id(payload)] = (payload, trace_id)
            else:
                recorder.inline_tid = trace_id
        return trace_id

    _wrap_sync(recorder, protocol, "decode_request", "protocol.decode_request", decoded)
    _wrap_sync(recorder, protocol, "decode_verify_payload",
               "protocol.decode_verify_payload")
    _wrap_sync(recorder, protocol, "decode_verify_fast_payload",
               "protocol.decode_verify_fast_payload")

    original_reply = protocol.encode_reply

    @functools.wraps(original_reply)
    def encode_reply(status, payload=b""):
        reply = original_reply(status, payload)
        if recorder.inline_tid is not None:
            recorder.replies.append((recorder.inline_tid, _perf()))
            recorder.inline_tid = None
        return reply

    protocol.encode_reply = encode_reply


def _install_pool(recorder: Recorder) -> None:
    from repro.service.pool import VerifyWorkerPool

    def wrap(attr: str, mode: str) -> None:
        original = getattr(VerifyWorkerPool, attr)

        @functools.wraps(original)
        async def submit(self, affinity_key, payloads):
            tids = []
            for payload in payloads:
                entry = recorder.tid_of_payload.pop(id(payload), None)
                tids.append(entry[1] if entry is not None and entry[0] is payload else 0)
            key = id(payloads)
            start = _perf()
            ok = False
            crypto_s = 0.0
            try:
                result = await original(self, affinity_key, payloads)
                crypto_s = float(result[1])
                ok = True
                return result
            finally:
                job_id = recorder.job_ids.pop(key, -1)
                recorder.jobs.append(
                    (mode, start, _perf(), job_id, tuple(tids), crypto_s,
                     len(payloads), ok)
                )

        setattr(VerifyWorkerPool, attr, submit)

    wrap("submit", "same")
    wrap("submit_cross", "cross")
    wrap("submit_fast", "fast")


def _install_pipe(recorder: Recorder, worker: bool, dump_wait_s: float = 60.0) -> None:
    """Stamp job messages where they cross the gateway-worker pipe.

    A worker writes its records when it receives the pool's stop
    message; the gateway, having sent it, waits for that file before the
    pool's short join runs out and terminates the worker.
    """
    connection = multiprocessing.connection.Connection
    original_send = connection.send
    original_recv = connection.recv
    pipe = recorder.pipe
    #: id(gateway end of a worker pipe) -> the worker's pid
    pid_of = {}

    def send(self, obj):
        if type(obj) is tuple and obj:
            if worker and obj[0] in ("done", "failed"):
                pipe.append(("end", _perf(), obj[1]))
            elif not worker and obj[0] == "job":
                recorder.job_ids[id(obj[2])] = obj[1]
                pipe.append(("send", _perf(), obj[1]))
        result = original_send(self, obj)
        if not worker and obj == ("stop",) and id(self) in pid_of:
            path = os.path.join(recorder.out_dir, f"worker-{pid_of[id(self)]}.marshal")
            deadline = _perf() + dump_wait_s
            while not os.path.exists(path) and _perf() < deadline:
                time.sleep(0.01)
        return result

    def recv(self):
        obj = original_recv(self)
        if type(obj) is tuple and obj:
            if worker and obj[0] == "job":
                pipe.append(("start", _perf(), obj[1]))
            elif worker and obj[0] == "stop":
                recorder.dump()
            elif not worker and obj[0] in ("done", "failed"):
                pipe.append(("recv", _perf(), obj[1]))
            elif not worker and obj[0] == "ready":
                pid_of[id(self)] = obj[1]
        return obj

    connection.send = send
    connection.recv = recv


def _install_crypto(recorder: Recorder) -> None:
    from repro.core.batch import McCLSBatchVerifier
    from repro.core.mccls import McCLS
    from repro.core.params import KeyGenerationCenter
    from repro.core.session import EstablishedSession, SessionAuthority
    from repro.pairing.groups import PairingContext

    def fold_info(args, kwargs, result):
        items = args[1] if len(args) > 1 else kwargs.get("items", ())
        stats = result[1] if result is not None else {}
        return (
            len(items),
            int(stats.get("bisections", 0)),
            int(stats.get("admitted_signers", 0)),
            int(stats.get("admission_pairings", 0)),
            int(stats.get("folds", 0)),
        )

    _wrap_sync(recorder, McCLSBatchVerifier, "verify_cross_signer",
               "batch.verify_cross_signer", fold_info)
    _wrap_sync(recorder, McCLS, "verify", "mccls.verify")
    _wrap_sync(recorder, KeyGenerationCenter, "enroll", "kgc.enroll")
    _wrap_sync(recorder, SessionAuthority, "respond", "session.respond")
    _wrap_sync(recorder, EstablishedSession, "mac_ok", "session.mac_ok")

    counts = recorder.counts

    def g1_mul_info(args, kwargs, result):
        generator = args[1] is args[0].g1
        counts["g1_mul_generator" if generator else "g1_mul_other"] += 1
        return generator

    def g2_mul_info(args, kwargs, result):
        trusted = bool(kwargs.get("in_subgroup", False))
        counts["g2_mul_trusted" if trusted else "g2_mul_untrusted"] += 1
        return trusted

    def msm_info(args, kwargs, result):
        terms = len(args[1]) if len(args) > 1 else len(kwargs.get("pairs", ()))
        counts["g1_msm_terms"] += terms
        return terms

    _wrap_sync(recorder, PairingContext, "g1_mul", "pairing.g1_mul", g1_mul_info)
    _wrap_sync(recorder, PairingContext, "g2_mul", "pairing.g2_mul", g2_mul_info)
    _wrap_sync(recorder, PairingContext, "g1_msm", "pairing.g1_msm", msm_info)
    _wrap_sync(recorder, PairingContext, "codh_check_cached",
               "pairing.codh_check_cached")
    _wrap_sync(recorder, PairingContext, "multi_pair_check",
               "pairing.multi_pair_check")


def install(out_dir: str) -> Recorder:
    """Wrap every measured layer in this process and start counting ops.

    A spawn-started worker's recorder dumps itself when the pool stops
    the worker; the gateway process calls :meth:`Recorder.dump` once it
    has stopped.
    """
    from repro.obs.registry import enable

    # a spawn child imports this while its name is already set but before
    # multiprocessing records its parent
    worker = multiprocessing.current_process().name != "MainProcess"
    recorder = Recorder(out_dir, "worker" if worker else "gateway")
    enable()  # live obs registry: the pairing stack tallies its ops
    _install_protocol(recorder)
    _install_crypto(recorder)
    _install_pipe(recorder, worker)
    if not worker:
        _install_pool(recorder)
    return recorder
