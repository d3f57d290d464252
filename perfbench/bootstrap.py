"""Process set-up shared by the benchmark's entry points.

Importing this module caps BLAS at one worker thread (before numpy loads)
and puts the checkout's `src/` ahead of any installed copy of surfacefuse.
It refuses to continue when `src/` is missing, so the benchmark never
measures some other copy of the library.
"""

import os
import sys
from pathlib import Path

THREAD_CAP = "1"
_THREAD_VARS = ("SURFACEFUSE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

if "numpy" in sys.modules:
    raise RuntimeError("bootstrap must be imported before numpy")
for _var in _THREAD_VARS:
    os.environ[_var] = THREAD_CAP

if not (SRC / "surfacefuse" / "__init__.py").is_file():
    sys.exit(f"perfbench: no surfacefuse sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))
