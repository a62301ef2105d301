"""The gateway as a child process: launch, readiness, CPU and memory.

CPU and peak RSS come from ``/proc``: ``utime + stime`` of each process
(clock ticks), the event-loop thread's own ticks from its task entry, and
``VmHWM`` for the peak resident set.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(path: str) -> List[bytes]:
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError:
        return []
    return raw[raw.rindex(b")") + 2:].split()


def cpu_seconds(pid: int, tid: Optional[int] = None, reaped: bool = False) -> float:
    """User + system CPU seconds of a process (or one of its threads);
    with ``reaped``, of the children it has already waited for."""
    fields = _stat_fields(f"/proc/{pid}/task/{tid}/stat" if tid else f"/proc/{pid}/stat")
    if not fields:
        return 0.0
    first = 13 if reaped else 11
    return (int(fields[first]) + int(fields[first + 1])) / _TICK


def children(pid: int) -> List[int]:
    """Live child processes of every thread of ``pid``."""
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", "rb") as handle:
                found.extend(int(c) for c in handle.read().split())
        except OSError:
            continue
    return found


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of one process in MB."""
    try:
        with open(f"/proc/{pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def host_cpu_ticks() -> Dict[str, int]:
    """Machine-wide busy and stolen ticks (``/proc/stat``): the share
    of time the hypervisor gave to other guests during a run."""
    with open("/proc/stat", "rb") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    return {"total": sum(fields), "steal": fields[7] if len(fields) > 7 else 0}


def steal_share(before: Dict[str, int], after: Dict[str, int]) -> float:
    """Stolen share of all host CPU ticks between two samples."""
    return (after["steal"] - before["steal"]) / max(1, after["total"] - before["total"])


def self_cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system


class Gateway:
    """One launched gateway process (its workers are its children)."""

    def __init__(self, proc: asyncio.subprocess.Process, ready: dict, spawned: float):
        self.proc = proc
        self.ready = ready
        self.pid = int(ready["pid"])
        self.port = int(ready["port"])
        self.spawned = spawned

    @classmethod
    async def launch(
        cls,
        root: Path,
        *,
        curve: str,
        backend: str,
        workers: int,
        require_kernel: bool,
        trace_dir: Optional[Path] = None,
        timeout_s: float = 120.0,
    ) -> "Gateway":
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        env.pop("PERFBENCH_TRACE_DIR", None)
        if trace_dir is not None:
            env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
        argv = [
            sys.executable,
            str(root / "perfbench" / "gateway.py"),
            "--curve", curve,
            "--backend", backend,
            "--workers", str(workers),
        ]
        if require_kernel:
            argv.append("--require-kernel")
        spawned = time.perf_counter()
        proc = await asyncio.create_subprocess_exec(
            *argv,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            env=env,
            cwd=str(root),
        )
        try:
            line = await asyncio.wait_for(proc.stdout.readline(), timeout_s)
        except asyncio.TimeoutError:
            proc.kill()
            await proc.wait()
            raise RuntimeError("gateway did not become ready in time") from None
        try:
            ready = json.loads(line.decode("utf-8"))
        except ValueError:
            ready = {"ready": False, "error": f"unreadable line {line[:200]!r}"}
        if not ready.get("ready"):
            proc.stdin.close()
            await proc.wait()
            raise RuntimeError(f"gateway refused to start: {ready.get('error')}")
        return cls(proc, ready, spawned)

    def cpu_seconds(self) -> Dict[str, float]:
        """CPU of the event-loop thread, the whole gateway process and its
        workers (live ones plus any it has reaped, e.g. after a restart)."""
        return {
            "loop": cpu_seconds(self.pid, self.pid),
            "gateway": cpu_seconds(self.pid),
            "workers": cpu_seconds(self.pid, reaped=True)
            + sum(cpu_seconds(child) for child in children(self.pid)),
        }

    def peak_rss_mb(self) -> float:
        """Peak RSS of the gateway plus its live workers."""
        return peak_rss_mb(self.pid) + sum(peak_rss_mb(c) for c in children(self.pid))

    async def stop(self, timeout_s: float = 30.0) -> int:
        """Close the gateway's input (it drains and exits); wait for it."""
        if self.proc.returncode is None:
            self.proc.stdin.close()
            try:
                await asyncio.wait_for(self.proc.wait(), timeout_s)
            except asyncio.TimeoutError:
                self.proc.kill()
                await self.proc.wait()
        return self.proc.returncode
