"""Training loop over synthetic or ingested corpora.

The loop is deliberately sequential and single-threaded: one master rng
drives source selection, masking, condition dropout, and path sampling
in a fixed order, so a (corpus, settings, seed) triple fully determines
every checkpoint byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .fm_core import PathConfig, make_flow_sample
from .infill import apply_condition_dropout, build_example, sample_mask
from .features import load_feature_matrix, load_phonemes, read_manifest
from .seqmodel import (
    LrSchedule,
    ModelConfig,
    OptimizerState,
    VectorFieldModel,
    init_params,
    save_checkpoint,
    train_step,
)


@dataclass
class TrainSettings:
    steps: int = 200
    batch_frames: int = 768
    peak_lr: float = 1e-3
    warmup_steps: int = 20
    sigma_min: float = 1e-5
    mask_ratio_lo: float = 0.7
    mask_ratio_hi: float = 1.0
    p_drop: float = 0.2
    checkpoint_every: int = 0  # 0: only the final checkpoint
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.batch_frames < 1:
            raise ValueError(f"batch_frames must be >= 1, got {self.batch_frames}")


@dataclass
class LoadedExample:
    features: np.ndarray  # (F, T) float64
    phonemes: np.ndarray  # (T,) int
    nv: np.ndarray  # (32, T)
    emo: np.ndarray  # (2, T)


def load_corpus(manifest_path: str | Path) -> list[LoadedExample]:
    """Materialize every record of a manifest into memory (desk scale)."""
    root = Path(manifest_path).parent
    out = []
    for _, rec in read_manifest(manifest_path):
        out.append(
            LoadedExample(
                features=load_feature_matrix(root / rec.features_path).values.astype(np.float64),
                phonemes=load_phonemes(root / rec.phonemes_path),
                nv=load_feature_matrix(root / rec.nv_path).values.astype(np.float64),
                emo=load_feature_matrix(root / rec.emo_path).values.astype(np.float64),
            )
        )
    return out


def check_ratios(ratios: Sequence[float]) -> None:
    """Reject mixing ratios that are not finite, non-negative and summing to 1."""
    arr = np.asarray(ratios, dtype=np.float64)
    if not (np.isfinite(arr).all() and (arr >= 0.0).all()):
        raise ValueError(f"mixing ratios must be finite and non-negative, got {arr.tolist()}")
    if abs(arr.sum() - 1.0) > 1e-9:
        raise ValueError(f"mixing ratios must sum to 1, got {arr.tolist()}")


def draw_source(rng: np.random.Generator, ratios: Sequence[float]) -> int:
    """Categorical source pick; one draw per training example."""
    ratios = np.asarray(ratios, dtype=np.float64)
    if abs(ratios.sum() - 1.0) > 1e-9:
        raise ValueError(f"mixing ratios must sum to 1, got {ratios.tolist()}")
    return int(rng.choice(len(ratios), p=ratios))


def train_loop(
    model_cfg: ModelConfig,
    corpora: Sequence[Sequence[LoadedExample]],
    ratios: Sequence[float],
    settings: TrainSettings,
    *,
    checkpoint_path: str | Path | None = None,
    on_step: Callable[[int, float, float], None] | None = None,
) -> tuple[dict, list[tuple[int, float, float]], dict[int, int]]:
    """Run the full loop; returns (params, history, per-source draw counts).

    All corpora must share frame length so examples stack into batches.
    ``on_step`` receives (step, loss, lr) after each update.  When a
    checkpoint path is given, the file is rewritten every
    ``checkpoint_every`` steps and at the end; a divergence abort leaves
    the last written checkpoint in place.
    """
    if len(corpora) != len(ratios):
        raise ValueError(f"{len(corpora)} corpora but {len(ratios)} ratios")
    check_ratios(ratios)
    if any(len(c) == 0 for c in corpora):
        raise ValueError("every corpus must contain at least one example")
    lengths = {ex.features.shape[1] for c in corpora for ex in c}
    if len(lengths) != 1:
        raise ValueError(f"corpora disagree in frame length: {sorted(lengths)}")
    T = lengths.pop()
    n_per_batch = max(1, settings.batch_frames // T)

    rng = np.random.default_rng(settings.seed)
    model = VectorFieldModel(model_cfg)
    params = init_params(model_cfg, rng)
    state = OptimizerState(
        schedule=LrSchedule(
            peak=settings.peak_lr,
            warmup_steps=settings.warmup_steps,
            total_steps=max(settings.steps, 1),
        )
    )
    path_cfg = PathConfig(sigma_min=settings.sigma_min)

    def write_checkpoint(step: int | None = None):
        if checkpoint_path is None:
            return
        save_checkpoint(checkpoint_path, model_cfg, params)
        if step is not None:  # retained interval snapshot
            ck = Path(checkpoint_path)
            save_checkpoint(ck.with_name(f"{ck.stem}_step{step:06d}{ck.suffix}"),
                            model_cfg, params)

    write_checkpoint()  # steps=0 leaves the initial state on disk

    history: list[tuple[int, float, float]] = []
    source_counts: dict[int, int] = {i: 0 for i in range(len(corpora))}
    for step in range(1, settings.steps + 1):
        batch = []
        for _ in range(n_per_batch):
            src = draw_source(rng, ratios)
            source_counts[src] += 1
            corpus = corpora[src]
            ex = corpus[int(rng.integers(len(corpus)))]
            mask = sample_mask(T, rng, (settings.mask_ratio_lo, settings.mask_ratio_hi))
            cond = build_example(ex.features, ex.phonemes, ex.nv, ex.emo, mask)
            cond = apply_condition_dropout(cond, settings.p_drop, rng)
            flow = make_flow_sample(ex.features, rng, path_cfg)
            batch.append((flow, cond))
        params, loss, lr = train_step(model, batch, params, state)
        history.append((step, loss, lr))
        if on_step is not None:
            on_step(step, loss, lr)
        if settings.checkpoint_every and step % settings.checkpoint_every == 0:
            write_checkpoint(step)

    write_checkpoint()
    return params, history, source_counts
