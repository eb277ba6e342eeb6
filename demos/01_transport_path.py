"""Walk through the affine transport path and its exactness properties.

The conditional path from a prior draw x0 to a data sample x1 is affine
in t, and the target field is constant along it.  That means a forward
Euler integrator lands on the endpoint exactly, with any step budget.
"""

import numpy as np

from flowcond import (
    conditional_vector_field,
    on_path_field,
    path_mean_std,
    sample_conditional_path,
)

rng = np.random.default_rng(0)
sigma_min = 1e-5

x0 = rng.standard_normal((4, 6))  # prior draw, F=4 features x T=6 frames
x1 = rng.standard_normal((4, 6))  # data sample

print("path mean coefficient / std at a few times:")
for t in (0.0, 0.25, 0.5, 0.75, 1.0):
    mean_c, std = path_mean_std(t, sigma_min)
    print(f"  t={t:4.2f}  mean_coeff={mean_c:.4f}  std={std:.6f}")

print("\nendpoints:")
print("  x(0) == x0:", np.array_equal(sample_conditional_path(x1, 0.0, x0, sigma_min), x0))
x_end = sample_conditional_path(x1, 1.0, x0, sigma_min)
print(f"  max |x(1) - x1| = {np.max(np.abs(x_end - x1)):.2e}  (sigma_min residue)")

print("\nfield constancy along the path:")
expected = on_path_field(x0, x1, sigma_min)
for t in (0.1, 0.5, 0.9):
    x_t = sample_conditional_path(x1, t, x0, sigma_min)
    u = conditional_vector_field(x_t, x1, t, sigma_min)
    print(f"  t={t}: max |u - (x1 - (1-s)x0)| = {np.max(np.abs(u - expected)):.2e}")

print("\nEuler exactness for any number of steps:")
target = x1 + sigma_min * x0
for n in (1, 4, 32):
    x = x0.copy()
    h = 1.0 / n
    for k in range(n):
        x = x + h * conditional_vector_field(x, x1, k * h, sigma_min)
    print(f"  nfe={n:3d}: max endpoint error = {np.max(np.abs(x - target)):.2e}")
