"""Mask a span of a synthetic sequence and regenerate it from context.

Builds a small oracle corpus where frame amplitude encodes arousal,
trains briefly, then infills a hidden span of a held-out example and
compares against the known truth.  (Short budget; expect a rough fit.
The acceptance suite trains longer and checks a hard threshold.)
"""

import numpy as np

from flowcond import (
    BatchInputs,
    GuidanceConfig,
    ModelConfig,
    integrate_batch,
    make_field_fn,
    VectorFieldModel,
)
from flowcond.features import synth_condition_oracle, synth_phonemes
from flowcond.training import Corpus, TrainSettings, train_loop

T, F = 48, 8


def make_examples(n, seed):
    streams = np.random.SeedSequence(seed).spawn(n)
    records = []
    for s in streams:
        r = np.random.default_rng(s)
        emo, nv, feats = synth_condition_oracle("sinusoid", T, r, feature_dim=F)
        records.append((feats, synth_phonemes(T, r), nv, emo))
    return Corpus(*(np.stack(stream) for stream in zip(*records)))


corpus = make_examples(150, seed=0)
cfg = ModelConfig(feature_dim=F)
settings = TrainSettings(steps=800, batch_frames=12 * T, peak_lr=2e-3,
                         warmup_steps=100, seed=1)
print("training on the sinusoid oracle corpus ...")
params, history, _ = train_loop(cfg, [corpus], [1.0], settings)
print(f"  loss {history[0][1]:.3f} -> {history[-1][1]:.3f} over {len(history)} steps")

held = make_examples(1, seed=99)[0]
start, end = T // 4, 3 * T // 4  # hide the middle half
mask = np.zeros(T)
mask[start:end] = 1.0
prompt = BatchInputs.from_examples(
    np.zeros((1, F, T)), np.zeros(1), held.phonemes[None], held.nv[None], held.emo[None],
    held.features[None], mask[None],
)
out = integrate_batch(
    make_field_fn(VectorFieldModel(cfg), params),
    prompt,
    GuidanceConfig(strength=1.0, nfe=32),
    np.random.default_rng(2),
)[0]
truth = held.features[:, start:end]
rmse = np.sqrt(np.mean((out - truth) ** 2))
base = np.concatenate(
    [held.features[:, :start], held.features[:, end:]], axis=1
).mean(axis=1, keepdims=True)
base_rmse = np.sqrt(np.mean((base - truth) ** 2))
print(f"\ninfilled frames [{start}, {end}) of a held-out example")
print(f"  model RMSE    {rmse:.4f}")
print(f"  mean baseline {base_rmse:.4f}")
