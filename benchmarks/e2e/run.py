"""Script entry point: ``python3 benchmarks/e2e/run.py ...`` from the root
of a checkout (``python -m benchmarks.e2e`` with ``PYTHONPATH=src`` is the
same program)."""

import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parents[2]
    if not (root / "src" / "repro").is_dir():
        sys.exit("benchmarks/e2e: %s holds no src/repro, nothing to measure"
                 % root)
    # In place of this script's directory, whose trace.py would shadow the
    # standard library's.
    sys.path[:1] = [str(root), str(root / "src")]
    from benchmarks.e2e.cli import main
    sys.exit(main())
