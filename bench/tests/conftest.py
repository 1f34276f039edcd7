"""``PYTHONPATH=src python -m pytest bench/tests -q`` (not on tier-1's
``testpaths``).  The benchmark's modules are plain files beside
``bench/run.py``; put that directory on the path the way running the
script does."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
