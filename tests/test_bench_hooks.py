"""The benchmark's traced spans still fire on the package's per-token path.

``bench/tracing.py`` times each layer by wrapping the proxies it hands to
``Client`` and by replacing module globals such as
``protocol.adapted_next_token`` for the traced phase. A package change that
looks such a name up once, or bypasses a proxy's own ``next_logits``, would
leave its metric at zero while the benchmark's own self-test, which checks
only that each metric is printed, still passes. These runs pin the counts.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PER_TOKEN = ("models.proxy_forward_rows", "lora.tuned_forward_rows", "offset.adjust_sample_calls")


def traced_metrics(workload: str) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", "1", "--scale", "desk"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["long-decode", "short-sessions"])
def test_each_committed_token_runs_both_proxies_and_one_adjusted_sample(workload):
    metrics = traced_metrics(workload)
    counts = [metrics[name] for name in PER_TOKEN]
    assert counts[0] > 0 and counts.count(counts[0]) == len(counts), dict(zip(PER_TOKEN, counts))
    if workload == "long-decode":  # 3 proxy modes x 32 tokens
        assert counts == [96, 96, 96]
        assert metrics["lora.adapter_install_calls"] == 5
