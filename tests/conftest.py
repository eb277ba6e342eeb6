"""Pin BLAS to one thread for the test session.

The BLAS library reads its thread count once, when numpy loads, and no
test module has loaded numpy yet when this file runs.  A value already
set in the environment wins.
"""

import os

for knob in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(knob, "1")
