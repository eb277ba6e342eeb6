"""Score trajectory similarity and aggregate over repeated runs.

Frame-wise cosine similarity after aligning lengths (shorter resampled
up to longer), plus the multi-seed mean/std summary used to report
repeated generation runs.
"""

import numpy as np

from flowcond import aggregate_seeds, aro_val_sim, frame_cosine_sim
from flowcond.features import synth_condition_oracle

rng = np.random.default_rng(0)

# identical, antipodal, and independent embedding trajectories
a = rng.standard_normal((16, 120))
print(f"self similarity:        {frame_cosine_sim(a, a):+.4f}")
print(f"antipodal similarity:   {frame_cosine_sim(a, -a):+.4f}")
b = rng.standard_normal((16, 120))
print(f"independent similarity: {frame_cosine_sim(a, b):+.4f}")

# arousal/valence trajectories of different lengths are aligned first
emo_a, _, _ = synth_condition_oracle("sinusoid", 80, np.random.default_rng(1))
emo_b, _, _ = synth_condition_oracle("sinusoid", 50, np.random.default_rng(1))
emo_c, _, _ = synth_condition_oracle("step", 50, np.random.default_rng(2))
print(f"\nsame law, different length: {aro_val_sim(emo_a, emo_b):+.4f}")
print(f"different trajectories:     {aro_val_sim(emo_a, emo_c):+.4f}")

# constant hand-checkable case: cos((0.3,0.4),(0.3,-0.4)) = -0.28
x = np.tile([[0.3], [0.4]], (1, 6))
y = np.tile([[0.3], [-0.4]], (1, 6))
print(f"hand-checkable cosine:      {aro_val_sim(x, y):+.4f}")

# multi-seed reporting: score the same pairs under three generation seeds
scores = {}
for s, seed_name in enumerate(("s1", "s2", "s3")):
    noise_rng = np.random.default_rng(100 + s)
    scores[seed_name] = [
        frame_cosine_sim(a, a + 0.1 * noise_rng.standard_normal(a.shape))
        for _ in range(3)
    ]
report = aggregate_seeds(scores)
print("\nper-seed means:", {k: round(v, 4) for k, v in report.per_seed_mean.items()})
print(f"cross-seed mean {report.mean:.4f}  std {report.std:.4f}")
