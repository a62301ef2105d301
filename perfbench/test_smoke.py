"""Smoke test of the gateway benchmark.

Runs every workload through the benchmark's own code path on a toy
curve for a few seconds, untraced and traced, with the correctness gate
on, and checks the result line against ``BENCHMARK.json``::

    python -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import dataclasses
import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import config  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = list(config.WORKLOADS)


def test_workloads_match_benchmark_json():
    assert BENCHMARK["workloads"] == [
        {"name": w.name, "why": w.why} for w in config.WORKLOADS.values()
    ]


def test_per_layer_metrics_match_benchmark_json():
    assert BENCHMARK["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in layers.per_layer_catalogue()
    ]


def _run(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "4", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(out: subprocess.CompletedProcess) -> dict:
    assert out.returncode == 0, out.stderr[-4000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke(workload):
    result = _result(_run(ROOT, "--workload", workload, "--trace", "0", "--smoke"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke(workload):
    result = _result(_run(ROOT, "--workload", workload, "--trace", "1", "--smoke"))
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", WORKLOADS[0], "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_closed_phase_fails_when_its_inputs_run_out(monkeypatch, capsys):
    name = WORKLOADS[0]
    starved = dataclasses.replace(config.WORKLOADS[name], closed_cap_rps=1.0)
    monkeypatch.setitem(config.WORKLOADS, name, starved)
    # run.main sets both; undone after the test
    monkeypatch.delenv("REPRO_KERNEL_CACHE", raising=False)
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    try:
        code = run.main(["--workload", name, "--seed", "7", "--seconds", "12",
                         "--trace", "0", "--smoke"])
    finally:
        gc.enable()  # run.main pauses automatic collection
    out = capsys.readouterr()
    assert code == 1
    assert "inputs ran out" in out.err
    assert '"correct"' not in out.out
