"""The benchmark's traced spans still fire on the package's per-token path.

``bench/tracing.py`` times each layer by wrapping the proxies it hands to
``Client`` and by replacing module globals such as
``protocol.adapted_next_token`` for the traced phase. A package change that
looks such a name up once, or bypasses a proxy's own ``batch_next_logits``, would
leave its metric at zero while the benchmark's own self-test, which checks
only that each metric is printed, still passes. These runs pin the counts.

Verification scores every drafted row in one stacked forward per proxy,
rows past the first divergence included, and picks one adjusted sample per
committed token; server-side generation (``prada-transfer``) computes one
row per adjusted sample. So each proxy computes ``adjust_sample_calls +
tokens_drafted - tokens_committed`` rows.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ROWS = ("models.proxy_forward_rows", "lora.tuned_forward_rows")


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
def test_each_proxy_computes_one_row_per_drafted_or_server_token(workload):
    metrics = traced_metrics(workload)
    rows = [metrics[name] for name in ROWS]
    want = (metrics["offset.adjust_sample_calls"] + metrics["protocol.tokens_drafted"]
            - metrics["protocol.tokens_committed"])
    assert rows[0] > 0 and rows == [want, want], (dict(zip(ROWS, rows)), want)
    assert metrics["protocol.tokens_drafted"] > 0
    if workload == "long-decode":  # 3 proxy modes x 32 tokens
        assert metrics["offset.adjust_sample_calls"] == 96
        assert metrics["lora.adapter_install_calls"] == 5
