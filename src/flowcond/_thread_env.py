"""Pin BLAS worker threads before numpy ever loads.

Bitwise reproducibility of matrix products requires a fixed BLAS thread
count.  If FLOWCOND_THREADS is set and numpy has not been imported yet,
propagate it to the usual knobs; once numpy is loaded the setting can no
longer take effect and is left alone.
"""

from __future__ import annotations

import os
import sys

_KNOBS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    raw = os.environ.get("FLOWCOND_THREADS")
    if not raw:
        return
    n = int(raw)
    if "numpy" in sys.modules:
        return
    for knob in _KNOBS:
        os.environ.setdefault(knob, str(n))


pin_threads()
