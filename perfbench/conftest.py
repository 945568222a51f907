"""Put the program source on the path for the benchmark's self-tests.

Run them from the repository root with ``python3 -m pytest perfbench``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
