"""Train the fixed checkpoint that the `sample` workload generates from.

Run from the repository root:

    python3 perfbench/make_checkpoint.py

It synthesizes a mixed oracle corpus at the workload's frame length
(32 reference + 64 generated frames = 96), trains the desk preset on it
with a fixed seed and one BLAS thread, and writes
``perfbench/data/sample_model.fmck`` plus ``sample_model.json`` (the
settings, this command, the final loss and the file's sha256).  The
checkpoint is committed so that every commit samples from the same
weights; rerun this script only to change them.
"""

from __future__ import annotations

import os

for _knob in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_knob] = "1"

import hashlib
import json
import shutil
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from flowcond.features import generate_corpus  # noqa: E402
from flowcond.seqmodel import PRESETS  # noqa: E402
from flowcond.training import TrainSettings, load_corpus, train_loop  # noqa: E402

FRAMES = 96
CORPUS = {"kind": "mixed", "count": 600, "frames": FRAMES, "seed": 2407}
SETTINGS = TrainSettings(
    steps=4000, batch_frames=576, peak_lr=2e-3, warmup_steps=100, seed=12229
)
OUT = HERE / "data" / "sample_model.fmck"


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix="ckpt-", dir=HERE))
    try:
        manifest = generate_corpus(
            work, CORPUS["kind"], CORPUS["count"], CORPUS["frames"], CORPUS["seed"]
        )
        corpus = load_corpus(manifest)
        cfg = PRESETS["desk"]
        _, history, _ = train_loop(cfg, [corpus], [1.0], SETTINGS, checkpoint_path=OUT)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "command": "python3 perfbench/make_checkpoint.py",
        "corpus": CORPUS,
        "model": asdict(cfg),
        "settings": asdict(SETTINGS),
        "final_loss_mean_last_100": sum(h[1] for h in history[-100:]) / 100,
        "sha256": hashlib.sha256(OUT.read_bytes()).hexdigest(),
    }
    OUT.with_suffix(".json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
