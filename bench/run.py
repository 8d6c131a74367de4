"""Entry point of the offsetlm benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The package is imported from ``src`` of
that checkout and nowhere else; without it the command fails before
printing a result. See ``harness.py`` for the workloads and metrics.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "offsetlm" / "__init__.py").is_file():
        print(f"error: no offsetlm package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    return harness.main(sys.argv[1:], SRC)


if __name__ == "__main__":
    sys.exit(main())
