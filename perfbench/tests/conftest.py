"""perfbench's own tests: ``python -m pytest perfbench/tests``.

Kept out of tier-1 (``testpaths`` stays ``tests``). The program under
``src/`` and the ``perfbench`` package are put on ``sys.path`` here, the
way ``perfbench/run.py`` does for itself.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

# as the harness pins them for every measured child
for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(name, "1")
