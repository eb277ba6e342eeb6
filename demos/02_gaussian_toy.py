"""Train the field on a 2-d Gaussian target and sample it back.

A minimal end-to-end run of the training objective: the data
distribution is N(mu=(1,-1), diag(0.25, 1)), conditions are all blank,
and after a short run the integrated flow reproduces the target's
moments.  (The acceptance suite runs a longer, tighter version.)
"""

# flowcond goes before numpy so that FLOWCOND_THREADS can pin BLAS threads.
from flowcond import (
    ConditionBundle,
    GuidanceConfig,
    LrSchedule,
    ModelConfig,
    OptimizerState,
    VectorFieldModel,
    init_params,
    integrate_batch,
    make_field_fn,
)
from flowcond.seqmodel import BatchInputs, adam_update, masked_batch_loss_grad

import numpy as np

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
    inputs = BatchInputs(x_t=x_t, t=ts, **blank)
    v, cache = model.forward_batch(inputs, params, want_cache=True)
    loss, dv = masked_batch_loss_grad(v, u, inputs.mask_bits)
    grads = model.backward_batch(dv, cache, params)
    adam_update(params, grads, state)
    if step % 300 == 0:
        print(f"step {step:5d}  loss {loss:.4f}")

prompt = ConditionBundle(
    phonemes=np.zeros(1, dtype=np.int64),
    nv=np.zeros((32, 1)),
    emo=np.zeros((2, 1)),
    context=np.zeros((2, 1)),
    mask=np.ones(1),
)
samples = integrate_batch(
    make_field_fn(model, params),
    [prompt] * 4000,
    GuidanceConfig(strength=0.0, nfe=32),
    np.random.default_rng(1),
)
arr = np.array([s[:, 0] for s in samples])
print("\nsampled moments vs target:")
print(f"  mean {arr.mean(axis=0).round(3)}  target {mu}")
print(f"  var  {arr.var(axis=0).round(3)}  target {std ** 2}")
