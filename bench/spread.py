"""Run the benchmark on seeds 1 to 10 and report each end-to-end metric's spread.

    python3 bench/spread.py [WORKLOAD ...] [--out FILE]

Runs ``bench/run.py`` (tracing off, ``run_seconds`` from ``BENCHMARK.json``)
from the root of the checkout once per seed and workload, all workloads
when none is named. For each metric it prints the median and the spread
``(q3 - q1) / median`` of the quartiles from ``statistics.quantiles(values,
n=4)``, as a share of the metric's bound. ``--out`` writes the figures as
JSON, in the form ``baseline.json`` keeps them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def cpu_model() -> str:
    """The first ``model name`` of ``/proc/cpuinfo``, or what ``platform`` knows."""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: gate failed")
    return result


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary: dict = {}
    worst = 0.0
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            for name, m in run_once(workload, seed, spec["run_seconds"])["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            worst = max(worst, spread / bounds[name])
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                       "bound": bounds[name], "values": vals}
            print(f"{workload:16s} {name:12s} median={med:12.6g} spread={spread:.4f} "
                  f"bound={bounds[name]} spread/bound={spread / bounds[name]:.2f}", flush=True)
    print(f"worst spread/bound = {worst:.2f} (steady below 0.33)")
    if args.out is not None:
        environment = {"python": platform.python_version(), "numpy": numpy.__version__,
                       "nproc": os.cpu_count(), "cpu": cpu_model()}
        report = {"environment": environment, "run_seconds": spec["run_seconds"],
                  "seeds": f"{SEEDS.start}-{SEEDS.stop - 1}", "workloads": summary}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
