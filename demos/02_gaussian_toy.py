"""Train the field on a 2-d Gaussian target and sample it back.

A minimal end-to-end run of the training objective: the data
distribution is N(mu=(1,-1), diag(0.25, 1)), conditions are all blank,
and after a short run the integrated flow reproduces the target's
moments.  (The acceptance suite runs a longer, tighter version.)
"""

import numpy as np

from flowcond import (
    BatchInputs,
    GuidanceConfig,
    LrSchedule,
    ModelConfig,
    OptimizerState,
    VectorFieldModel,
    init_params,
    integrate_batch,
    make_field_fn,
    train_step,
)

SIGMA_MIN = 1e-5
STEPS, BATCH = 1200, 128
mu = np.array([1.0, -1.0])
std = np.array([0.5, 1.0])

rng = np.random.default_rng(0)
cfg = ModelConfig(n_layers=2, n_heads=2, d_model=64, d_ffn=128, d_phn=4,
                  n_phonemes=4, feature_dim=2)
model = VectorFieldModel(cfg)
params = init_params(cfg, rng)
state = OptimizerState(schedule=LrSchedule(peak=2e-3, warmup_steps=100, total_steps=STEPS))

blank = dict(
    tokens=np.zeros((BATCH, 1), dtype=np.int64),
    nv=np.zeros((BATCH, 32, 1)),
    emo=np.zeros((BATCH, 2, 1)),
    context=np.zeros((BATCH, 2, 1)),
    mask_bits=np.ones((BATCH, 1)),
)
for step in range(1, STEPS + 1):
    x1 = mu[None, :, None] + std[None, :, None] * rng.standard_normal((BATCH, 2, 1))
    x0 = rng.standard_normal((BATCH, 2, 1))
    ts = rng.uniform(0, 1, BATCH)
    x_t = ts[:, None, None] * x1 + (1 - (1 - SIGMA_MIN) * ts[:, None, None]) * x0
    u = x1 - (1 - SIGMA_MIN) * x0
    params, loss, _ = train_step(model, BatchInputs(x_t=x_t, t=ts, **blank), u, params, state)
    if step % 300 == 0:
        print(f"step {step:5d}  loss {loss:.4f}")

# 4000 blank one-frame prompts; every frame is generated.
n = 4000
prompts = BatchInputs.from_examples(
    np.zeros((n, 2, 1)), np.zeros(n), np.zeros((n, 1), dtype=np.int64),
    np.zeros((n, 32, 1)), np.zeros((n, 2, 1)), np.zeros((n, 2, 1)), np.ones((n, 1)),
)
samples = integrate_batch(
    make_field_fn(model, params),
    prompts,
    GuidanceConfig(strength=0.0, nfe=32),
    np.random.default_rng(1),
)
arr = samples[:, :, 0]
print("\nsampled moments vs target:")
print(f"  mean {arr.mean(axis=0).round(3)}  target {mu}")
print(f"  var  {arr.var(axis=0).round(3)}  target {std ** 2}")
