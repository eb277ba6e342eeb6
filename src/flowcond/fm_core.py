"""Closed-form conditional flow-matching math.

Everything here is exact, double-precision math on F x T frame matrices,
or on (B, F, T) batches of them with one time per row: the affine
probability path from a standard-normal prior draw to a data sample and
the target vector field along that path.  The masked
regression loss that trains a parametric field against this target is
``seqmodel.masked_batch_loss_grad``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Denominators at or below this are treated as singular.
_EPS = 1e-12


@dataclass(frozen=True)
class PathConfig:
    """Shape of the affine probability path.

    ``sigma_min`` is the residual noise scale left at the data endpoint;
    it must be small and nonnegative, and keeps the target field finite
    at t=1 when positive.
    """

    sigma_min: float = 1e-5

    def __post_init__(self):
        if not 0.0 <= self.sigma_min < 1.0:
            raise ValueError(f"sigma_min must be in [0, 1), got {self.sigma_min}")


def path_mean_std(t, cfg: PathConfig) -> tuple:
    """Mean coefficient and standard deviation of the path at time t.

    The path is Gaussian around t*x1 with std 1 - (1 - sigma_min)*t, so
    it starts at the prior (mean 0, std 1) and contracts linearly onto
    the data up to the residual sigma_min.  ``t`` is a float or an array
    of times, and the result has its type and shape.
    """
    if not np.all((0.0 <= t) & (t <= 1.0)):
        raise ValueError(f"t must be in [0, 1], got {t}")
    return t, 1.0 - (1.0 - cfg.sigma_min) * t


def sample_conditional_path(
    x1: np.ndarray, t, x0: np.ndarray, cfg: PathConfig
) -> np.ndarray:
    """Point on the path at time t for prior draw x0 and data x1.

    x_t = t*x1 + (1 - (1 - sigma_min)*t) * x0, elementwise.  For a
    (B, F, T) batch, ``t`` has shape (B, 1, 1): one time per row.
    """
    if x0.shape != x1.shape:
        raise ValueError(f"x0 shape {x0.shape} != x1 shape {x1.shape}")
    mean_coeff, std = path_mean_std(t, cfg)
    return mean_coeff * x1 + std * x0


def conditional_vector_field(
    x: np.ndarray, x1: np.ndarray, t: float, cfg: PathConfig
) -> np.ndarray:
    """Target vector field u(x | x1) at time t.

    u = (x1 - (1 - sigma_min)*x) / (1 - (1 - sigma_min)*t).  The
    denominator vanishes only at t=1 with sigma_min=0, which is rejected
    as singular.
    """
    if x.shape != x1.shape:
        raise ValueError(f"x shape {x.shape} != x1 shape {x1.shape}")
    denom = 1.0 - (1.0 - cfg.sigma_min) * t
    if denom <= _EPS:
        raise ZeroDivisionError(
            f"path field singular: 1 - (1 - sigma_min)*t = {denom} at t={t}"
        )
    return (x1 - (1.0 - cfg.sigma_min) * x) / denom


def on_path_field(x0: np.ndarray, x1: np.ndarray, cfg: PathConfig) -> np.ndarray:
    """Target field evaluated on the path itself: x1 - (1 - sigma_min)*x0.

    Algebraically identical to ``conditional_vector_field`` at
    x = sample_conditional_path(x1, t, x0) for every t, but free of the
    near-singular division, so it is the stable form for training
    targets.
    """
    if x0.shape != x1.shape:
        raise ValueError(f"x0 shape {x0.shape} != x1 shape {x1.shape}")
    return x1 - (1.0 - cfg.sigma_min) * x0
