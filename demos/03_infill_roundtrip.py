"""Mask a span of a synthetic sequence and regenerate it from context.

Builds a small oracle corpus where frame amplitude encodes arousal,
trains briefly, then infills a hidden span of a held-out example and
compares against the known truth.  (Short budget; expect a rough fit.
The acceptance suite trains longer and checks a hard threshold.)
"""

# flowcond goes before numpy so that FLOWCOND_THREADS can pin BLAS threads.
from flowcond import (
    GuidanceConfig,
    ModelConfig,
    build_example,
    integrate_batch,
    make_field_fn,
    sample_mask,
    VectorFieldModel,
)
from flowcond.features import synth_condition_oracle, synth_phonemes
from flowcond.training import Corpus, TrainSettings, train_loop

import numpy as np

T, F = 48, 8
rng = np.random.default_rng(7)


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
mask = sample_mask(1, T, rng, (0.5, 0.5))[0]
start = int(np.argmax(mask))
end = start + int(mask.sum())
prompt = build_example(held.features, held.phonemes, held.nv, held.emo, mask)
out = integrate_batch(
    make_field_fn(VectorFieldModel(cfg), params),
    [prompt],
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
