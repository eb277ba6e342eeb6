"""Pin BLAS worker threads before numpy ever loads.

Bitwise reproducibility of matrix products requires a fixed BLAS thread
count.  If FLOWCOND_THREADS is set and numpy has not been imported yet,
propagate it to the usual knobs.  Once numpy is loaded the setting can
no longer take effect; if a knob then differs from it, a warning says
so instead of failing silently.  A value that is not a positive integer
is reported the same way and pins nothing.
"""

from __future__ import annotations

import os
import sys
import warnings

_KNOBS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    raw = os.environ.get("FLOWCOND_THREADS")
    if not raw:
        return
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        warnings.warn(
            f"FLOWCOND_THREADS={raw!r} is not a positive integer; BLAS threads left unpinned",
            RuntimeWarning,
        )
        return
    if "numpy" in sys.modules:
        unpinned = [knob for knob in _KNOBS if os.environ.get(knob) != str(n)]
        if unpinned:
            warnings.warn(
                f"FLOWCOND_THREADS={n} has no effect: numpy was imported before flowcond, "
                f"with {', '.join(unpinned)} not set to {n}; import flowcond first",
                RuntimeWarning,
            )
        return
    for knob in _KNOBS:
        os.environ.setdefault(knob, str(n))


pin_threads()
