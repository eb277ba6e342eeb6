"""Pin BLAS to one thread for the test session.

The package pins the BLAS thread count from FLOWCOND_THREADS when it is
imported before numpy, so importing it here, before any test module
loads numpy, makes the pin take effect.  An explicit FLOWCOND_THREADS in
the environment still wins.
"""

import os

os.environ.setdefault("FLOWCOND_THREADS", "1")

import flowcond  # noqa: E402,F401
