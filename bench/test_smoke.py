"""Desk-scale (V=8) self-test of the benchmark.

    python3 -m pytest bench/test_smoke.py

Runs every workload for half a second at desk scale, with tracing off and
on. Checks that every metric named in ``BENCHMARK.json`` is printed with
its unit, that the correctness gate passes, that an injected token
mismatch is reported as a failure, and that the command fails without a
result where the package sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "desk", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_printed_and_gate_passes(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    records = proc.stdout.splitlines()[:-1]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(f" name={m['name']} value=" in line and line.endswith(f" unit={m['unit']}")
                   for line in records), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_mismatch_is_a_failure(workload):
    proc = run(workload, 0, "--inject-mismatch")
    assert proc.returncode == 1
    result = result_of(proc)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "record=gate verdict=FAIL" in proc.stdout


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
