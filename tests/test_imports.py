"""Importing flowcond leaves the process alone, and scipy loads only with a float64 forward.

``import flowcond`` edits no environment variable: BLAS threads are
pinned by the launching environment.  ``seqmodel.erf`` computes float32
in numpy and imports ``scipy.special`` on its first float64 call, so
``train`` (float32 forward and backward), the float32 ``sample`` field
and the commands that run no model (``synth``, ``curate``, ``eval``)
run on numpy alone, and a float64 forward loads it.  The test session
itself has numpy and ``scipy.special`` loaded, so each check runs in a
fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

BLAS_KNOBS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

PROBE = """
import os
import sys
from pathlib import Path

before = dict(os.environ)
import flowcond
print("environ", dict(os.environ) == before)
from flowcond import cli

def loaded():
    return "scipy.special" in sys.modules

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
VectorFieldModel(cfg).forward_batch(inputs, init_params(cfg, rng))
print("forward", loaded())

from scipy.special import erf
from flowcond import seqmodel
x = rng.standard_normal(4096) * 3
got, want = seqmodel.erf(x), erf(x)
assert got.dtype == want.dtype == np.float64
assert got.tobytes() == want.tobytes()
out = np.empty_like(x)
assert seqmodel.erf(x, out=out) is out and out.tobytes() == want.tobytes()
x32 = x.astype(np.float32)
got32 = seqmodel.erf(x32)
assert got32.dtype == np.float32
assert np.abs(got32 - erf(x32.astype(np.float64))).max() <= 5e-7
print("erf float64 bitwise, float32 within 5e-7")
"""


def test_scipy_special_loads_only_with_the_model(tmp_path):
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
        "forward True",
        "erf float64 bitwise, float32 within 5e-7",
    ]
