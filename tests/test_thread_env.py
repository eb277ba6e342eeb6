"""FLOWCOND_THREADS pins BLAS only when flowcond loads before numpy,
and only to a positive integer.

Each case runs a fresh interpreter, since the pin acts at import time.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
KNOBS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE = """
import os, warnings
warnings.simplefilter("always")
with warnings.catch_warnings(record=True) as caught:
    {imports}
print(len(caught))
for w in caught:
    print(w.message)
print(",".join(str(os.environ.get(k)) for k in {knobs!r}))
"""


def probe(imports: str, threads: str = "1", **env_knobs: str) -> list[str]:
    env = {k: v for k, v in os.environ.items() if k not in KNOBS}
    env.update(env_knobs, FLOWCOND_THREADS=threads, PYTHONPATH=str(SRC))
    code = PROBE.format(imports=imports, knobs=KNOBS)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.splitlines()


def test_flowcond_first_pins_silently():
    assert probe("import flowcond; import numpy") == ["0", "1,1,1"]


def test_numpy_first_warns_once():
    lines = probe("import numpy; import flowcond")
    assert lines[0] == "1"
    assert "FLOWCOND_THREADS=1 has no effect" in lines[1]
    assert "OPENBLAS_NUM_THREADS" in lines[1]
    assert lines[2] == "None,None,None"


@pytest.mark.parametrize("imports", ["import numpy; import flowcond", "import flowcond"])
def test_knobs_already_pinned_stay_silent(imports):
    assert probe(imports, **{k: "1" for k in KNOBS}) == ["0", "1,1,1"]


@pytest.mark.parametrize("threads", ["two", "0", "-3"])
def test_bad_value_warns_once_and_pins_nothing(threads):
    lines = probe("import flowcond; import numpy", threads=threads)
    assert lines[0] == "1"
    assert f"FLOWCOND_THREADS='{threads}' is not a positive integer" in lines[1]
    assert lines[2] == "None,None,None"
