"""Time-varying similarity metrics between embedding trajectories.

Two trajectories are aligned to a common length (the shorter is
resampled up to the longer, so nothing is discarded), scored frame by
frame with cosine similarity, and averaged.  Both per-frame and
utterance-level embeddings work: a single-column trajectory broadcasts
to the other side's length under the alignment rule.  A multi-seed
aggregator summarizes repeated generation runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .features import interpolate_stream
from .infill import EMO_BOUND


@dataclass
class SimilarityReport:
    """Per-pair scores per seed, plus the cross-seed summary."""

    per_pair: dict[str, list[float]]
    per_seed_mean: dict[str, float]
    mean: float
    std: float


def _align(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("trajectories must be 2-d (D x T)")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"embedding dims differ: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[1] < 1 or b.shape[1] < 1:
        raise ValueError("trajectories must contain at least one frame")
    if a.shape[1] < b.shape[1]:
        a = interpolate_stream(a, b.shape[1])
    elif b.shape[1] < a.shape[1]:
        b = interpolate_stream(b, a.shape[1])
    return a, b


def frame_cosine_profile(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame cosine scores and a flag for zero-norm frames.

    Frames where either side has zero norm score 0 and are flagged; the
    remaining scores are clipped to [-1, 1] against rounding excursions.
    """
    a, b = _align(a, b)
    na = np.linalg.norm(a, axis=0)
    nb = np.linalg.norm(b, axis=0)
    zero = (na == 0.0) | (nb == 0.0)
    denom = np.where(zero, 1.0, na * nb)
    scores = np.where(zero, 0.0, np.sum(a * b, axis=0) / denom)
    return np.clip(scores, -1.0, 1.0), zero


def frame_cosine_sim(a: np.ndarray, b: np.ndarray) -> float:
    """Average frame-wise cosine similarity after length alignment."""
    scores, _ = frame_cosine_profile(a, b)
    return float(scores.mean())


def aro_val_sim(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine-trajectory similarity of two centered arousal/valence series."""
    for name, arr in (("a", a), ("b", b)):
        arr = np.asarray(arr)
        if arr.ndim != 2 or arr.shape[0] != 2:
            raise ValueError(f"{name} must be a 2 x K arousal/valence series, got {arr.shape}")
        if arr.size and (arr.min() < -EMO_BOUND or arr.max() > EMO_BOUND):
            raise ValueError(
                f"{name} is not centered: values must lie in [-{EMO_BOUND}, {EMO_BOUND}]"
            )
    return frame_cosine_sim(a, b)


def aggregate_seeds(scores_by_seed: dict[str, list[float]]) -> SimilarityReport:
    """Summarize per-pair scores across seeds.

    Every seed must score the same number of pairs.  The cross-seed mean
    is the arithmetic mean of per-seed means; the spread is the
    population standard deviation of those means.
    """
    if not scores_by_seed:
        raise ValueError("need at least one seed")
    lengths = {len(v) for v in scores_by_seed.values()}
    if len(lengths) != 1:
        raise ValueError(f"seeds scored different pair counts: {lengths}")
    if lengths == {0}:
        raise ValueError("no pair scores to aggregate")
    per_seed_mean = {
        seed: float(np.mean(scores)) for seed, scores in scores_by_seed.items()
    }
    means = np.array(list(per_seed_mean.values()))
    return SimilarityReport(
        per_pair={seed: list(map(float, v)) for seed, v in scores_by_seed.items()},
        per_seed_mean=per_seed_mean,
        mean=float(means.mean()),
        std=float(means.std()),
    )
