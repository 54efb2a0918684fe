"""Layered GQL + SQL/PGQ benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload point_lookup --seed 1 --seconds 10 --trace 0

Prints a readable report, then one JSON line with the metrics.  Exits
non-zero when any operation fails or returns a wrong result, and when
the engine sources (``src/``) are missing.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

try:
    import pb_bench
except ImportError as exc:
    print(f"perfbench: cannot import the engine from src/: {exc}", file=sys.stderr)
    sys.exit(2)

if __name__ == "__main__":
    sys.exit(pb_bench.main())
