"""Importing flowcond leaves the process alone, and flowcond never loads scipy.

``import flowcond`` edits no environment variable: BLAS threads are
pinned by the launching environment.  numpy is the only runtime
dependency: ``seqmodel.erf`` computes float32 in numpy and float64
through libm's ``math.erf``.  The probe runs in a fresh interpreter
with scipy made unimportable (``sys.modules["scipy"] = None``), so every
command (``synth``, ``curate``, ``eval``, ``train``, ``sample``) and a
float64 forward and backward would fail on any import of it.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

BLAS_KNOBS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

PROBE = """
import os
import sys
from pathlib import Path

sys.modules["scipy"] = None  # any import of scipy now raises ImportError
before = dict(os.environ)
import flowcond
print("environ", dict(os.environ) == before)
from flowcond import cli

def loaded():
    return any(name.split(".")[0] == "scipy" and module is not None
               for name, module in sys.modules.items())

tmp = Path(sys.argv[1])
print("import", loaded())
assert cli.main(["synth", "--count", "3", "--frames", "8", "--out", str(tmp / "c")]) == 0
print("synth", loaded())
assert cli.main(["curate", "--in", str(tmp / "c" / "manifest.jsonl"),
                 "--out", str(tmp / "kept.jsonl")]) == 0
print("curate", loaded())
assert cli.main(["eval", "emo-sim", "--a", str(tmp / "c" / "mixed_00000.emo.fmat"),
                 "--b", str(tmp / "c" / "mixed_00001.emo.fmat")]) == 0
print("eval", loaded())
assert cli.main(["train", "--manifest", str(tmp / "c" / "manifest.jsonl"), "--steps", "2",
                 "--batch-frames", "16", "--out", str(tmp / "run")]) == 0
print("train", loaded())

import numpy as np
from flowcond import ModelConfig, VectorFieldModel, init_params, save_checkpoint
from flowcond.infill import BatchInputs, EMO_DIM, NV_DIM

cfg = ModelConfig(n_layers=1, d_model=8, d_ffn=16, feature_dim=4)
rng = np.random.default_rng(0)
save_checkpoint(tmp / "small.fmck", cfg, init_params(cfg, rng, zero_output=False))
(tmp / "text.phn").write_text("1 2 3 4 5 6")
assert cli.main(["sample", "--checkpoint", str(tmp / "small.fmck"), "--text-phonemes",
                 str(tmp / "text.phn"), "--zero-nv", "--zero-emo", "--nfe", "4",
                 "--out", str(tmp / "gen.fmat")]) == 0
print("sample", loaded())
B, T = 2, 5
inputs = BatchInputs(
    x_t=rng.standard_normal((B, cfg.feature_dim, T)),
    context=np.zeros((B, cfg.feature_dim, T)),
    tokens=np.ones((B, T), dtype=np.int64),
    nv=np.zeros((B, NV_DIM, T)),
    emo=np.zeros((B, EMO_DIM, T)),
    mask_bits=np.ones((B, T)),
    t=np.full(B, 0.5),
)
model = VectorFieldModel(cfg)
params = init_params(cfg, rng, zero_output=False)
v, cache = model.forward_batch(inputs, params)
grads = model.backward_batch(np.ones_like(v), cache, params)
assert v.dtype == grads["out_w"].dtype == np.float64
print("forward", loaded())

import math
from flowcond import seqmodel
x = rng.standard_normal(4096) * 3
want = np.array(list(map(math.erf, x.tolist())))
got = seqmodel.erf(x)
assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
out = np.empty_like(x)
assert seqmodel.erf(x, out=out) is out and out.tobytes() == want.tobytes()
assert seqmodel.erf(0.5).tobytes() == np.float64(math.erf(0.5)).tobytes()
x32 = x.astype(np.float32)
got32 = seqmodel.erf(x32)
assert got32.dtype == np.float32
assert np.abs(got32 - list(map(math.erf, x32.tolist()))).max() <= 5e-7
print("erf float64 equals math.erf, float32 within 5e-7")
"""


def test_flowcond_never_loads_scipy(tmp_path):
    # The BLAS knobs start unset, so an import that pinned them would show.
    env = {k: v for k, v in os.environ.items() if k not in BLAS_KNOBS}
    env.update(PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    status = [line for line in done.stdout.splitlines()
              if line.split()[0] in ("environ", "import", "synth", "curate", "eval", "train",
                                         "sample", "forward", "erf")]
    assert status == [
        "environ True",
        "import False",
        "synth False",
        "curate False",
        "eval False",
        "train False",
        "sample False",
        "forward False",
        "erf float64 equals math.erf, float32 within 5e-7",
    ]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_numpy_is_the_only_runtime_dependency():
    import tomllib

    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[A-Za-z0-9._-]+", d).group() for d in project["dependencies"]] == ["numpy"]
