"""Script entry point: ``python3 benchmarks/e2e/run.py --workload NAME ...``.

Equivalent to ``python -m benchmarks.e2e`` run from the repository root.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e.runner import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
