"""Outside-in benchmark for ktae: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py [--workload wide|small|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the repository root of a checkout; it imports ktae from ``src/``
and exits with an error, printing no result, when that is missing. See
perfbench/README.md.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "ktae" / "__init__.py").is_file():
        sys.exit(f"perfbench: {ROOT / 'src' / 'ktae'} not found; run from a checkout of the repository")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import main

    sys.exit(main())
