"""Training loop over synthetic or ingested corpora.

The loop is deliberately sequential and single-threaded: one master rng
drives source selection, masking, condition dropout, and path sampling
in a fixed order, so a (corpus, settings, seed) triple fully determines
every checkpoint byte.  Each quantity is drawn once per batch, as one
array over the batch's rows (``draw_batch``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .fm_core import SIGMA_MIN, on_path_field, sample_conditional_path
from .infill import EMO_BOUND, EMO_DIM, NV_DIM, BatchInputs, sample_mask
from .features import FormatError, _read_fmat, load_phonemes, read_manifest
from .seqmodel import (
    LrSchedule,
    ModelConfig,
    OptimizerState,
    TrainingDivergedError,
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
    checkpoint_every: int = 0  # 0: only the final checkpoint
    seed: int = 0
    # Fixed by the recipe, not per run; still recorded in provenance.
    sigma_min: float = field(default=SIGMA_MIN, init=False)
    p_drop: float = field(default=0.2, init=False)  # condition dropout for guidance

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.batch_frames < 1:
            raise ValueError(f"batch_frames must be >= 1, got {self.batch_frames}")
        if not 0.0 < self.peak_lr < math.inf:
            raise ValueError(f"peak_lr must be finite and > 0, got {self.peak_lr}")
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, got {self.warmup_steps}")
        if self.checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


class LoadedExample(NamedTuple):
    """One corpus record: views into the stacks of its ``Corpus``."""

    features: np.ndarray  # (F, T) float64
    phonemes: np.ndarray  # (T,) int
    nv: np.ndarray  # (32, T)
    emo: np.ndarray  # (2, T)


class CorpusValueError(ValueError):
    """A corpus record with non-finite values or emo outside [-0.5, 0.5]."""

    def __init__(self, record: int, problem: str):
        super().__init__(f"record {record} {problem}")
        self.record, self.problem = record, problem


@dataclass(eq=False)
class Corpus:
    """Frame-aligned training records stacked along a leading record axis.

    Every record has F x T features, T phoneme ids, a 32 x T nv stream
    and a 2 x T emo stream in [-0.5, 0.5], all finite.  ``corpus[k]`` is
    a view of record k (``LoadedExample``); iteration runs over them.
    """

    features: np.ndarray  # (N, F, T) float64
    phonemes: np.ndarray  # (N, T) int
    nv: np.ndarray  # (N, 32, T) float64
    emo: np.ndarray  # (N, 2, T) float64

    def __post_init__(self):
        n, t = self.features.shape[0], self.features.shape[-1]
        shapes = (self.features.ndim, self.phonemes.shape, self.nv.shape, self.emo.shape)
        if shapes != (3, (n, t), (n, NV_DIM, t), (n, EMO_DIM, t)) or min(n, t) < 1:
            raise ValueError(
                f"corpus streams are not frame-aligned: features {self.features.shape}, "
                f"phonemes {self.phonemes.shape}, nv {self.nv.shape}, emo {self.emo.shape} "
                f"(want N, T >= 1, features (N, F, T), phonemes (N, T), nv (N, {NV_DIM}, T), "
                f"emo (N, {EMO_DIM}, T))"
            )
        finite = [np.isfinite(a).all(axis=(1, 2)) for a in (self.features, self.nv, self.emo)]
        for ok, problem in ((np.logical_and.reduce(finite), "has non-finite values"),
                            ((np.abs(self.emo) <= EMO_BOUND).all(axis=(1, 2)),
                             f"has emo values outside [-{EMO_BOUND}, {EMO_BOUND}]")):
            if not ok.all():
                raise CorpusValueError(int(np.argmin(ok)), problem)

    def __len__(self) -> int:
        return self.features.shape[0]

    def __getitem__(self, k: int) -> LoadedExample:
        return LoadedExample(self.features[k], self.phonemes[k], self.nv[k], self.emo[k])


def _read_record(paths) -> tuple[np.ndarray, ...]:
    """A record's features, phonemes, nv and emo, read and checked in that
    order; each FMAT stream is the float32 view ``_read_fmat`` returns."""
    features, phonemes, nv, emo = paths
    return _read_fmat(features)[0], load_phonemes(phonemes), _read_fmat(nv)[0], _read_fmat(emo)[0]


def load_corpus(manifest_path: str | Path) -> Corpus:
    """Read every record of a manifest into one stacked corpus (desk scale).

    The manifest must name at least one record.  Every record's streams
    must have the shapes the first record's F x T sets, with T >= 1: F x T
    features, T phoneme ids, a 32 x T nv stream and a 2 x T emo stream in
    [-0.5, 0.5].  A record that breaks this raises ``FormatError`` naming
    its manifest line.  A record's paths are relative to the manifest's
    directory.  Each FMAT file is read whole and checked as a float32 view
    of its bytes, and that view is copied straight into its float64
    stack, so the corpus is held in memory once and no per-file array is
    made.
    """
    # The directory as pathlib spells it; "" for a bare file name, as
    # Path(".") / name is name.
    root = os.path.dirname(Path(manifest_path))
    entries = list(read_manifest(manifest_path))
    n = len(entries)
    if not n:
        raise FormatError(f"manifest {manifest_path} has no records")
    for k, (lineno, rec) in enumerate(entries):
        names = (rec.features_path, rec.phonemes_path, rec.nv_path, rec.emo_path)
        # String joins: with Path joins, the 800-file desk corpus loads
        # about 3 ms (a quarter) slower.  pathlib drops "." parts, "//" and
        # a trailing "/", which only ever lets a path resolve where the
        # string fails; so when the string fails, the pathlib paths decide:
        # they load what pathlib loads, or fail with the file named as
        # pathlib spells it.
        try:
            streams = _read_record([os.path.join(root, name) for name in names])
        except (OSError, FormatError):
            streams = _read_record([Path(root, name) for name in names])
        if k == 0:
            F, T = streams[0].shape
            want = ((F, T), (T,), (NV_DIM, T), (EMO_DIM, T))
            stacks = (np.empty((n, F, T)), np.empty((n, T), dtype=np.int64),
                      np.empty((n, NV_DIM, T)), np.empty((n, EMO_DIM, T)))
        got = tuple(stream.shape for stream in streams)
        if got != want or T < 1:
            raise FormatError(
                f"manifest line {lineno}: record {rec.id!r} has features, phonemes, nv and "
                f"emo of shapes {got}, want {want} (the first record's F x T, T >= 1)"
            )
        for stack, values in zip(stacks, streams):
            stack[k] = values
    try:
        return Corpus(*stacks)
    except CorpusValueError as exc:
        lineno, rec = entries[exc.record]
        raise FormatError(f"manifest line {lineno}: record {rec.id!r} {exc.problem}") from None


def check_corpora(corpora: Sequence[Corpus], ratios: Sequence[float]) -> tuple[int, int]:
    """Return the F x T the corpora share, after checking their mixing ratios."""
    arr = np.asarray(ratios, dtype=np.float64)
    if len(corpora) != len(arr):
        raise ValueError(f"{len(corpora)} corpora but {len(arr)} mixing ratios")
    if not (np.isfinite(arr).all() and (arr >= 0.0).all()):
        raise ValueError(f"mixing ratios must be finite and non-negative, got {arr.tolist()}")
    if abs(arr.sum() - 1.0) > 1e-9:
        raise ValueError(f"mixing ratios must sum to 1, got {arr.tolist()}")
    shapes = sorted({c.features.shape[1:] for c in corpora})
    if len(shapes) != 1:
        raise ValueError("corpora disagree in feature count or frame length (F x T): "
                         + ", ".join(f"{f} x {t}" for f, t in shapes))
    return shapes[0]


def draw_batch(
    corpora: Sequence[Corpus], ratios: Sequence[float], B: int, p_drop: float,
    rng: np.random.Generator,
) -> tuple[BatchInputs, np.ndarray, np.ndarray]:
    """One batch of B masked-infill rows; returns (inputs, u_target, sources).

    Each quantity is drawn once for all B rows, in this order: every
    row's source corpus and record, the masks, t, x0, and the dropout
    coins.  The path leaves residual noise ``SIGMA_MIN``.  A dropped row
    has its phonemes, nv, emo and context blanked (the unconditional
    branch); its mask and x_t stay.  The corpora and ratios must pass
    ``check_corpora``.
    """
    sources = rng.choice(len(corpora), size=B, p=ratios)
    records = rng.integers(np.array([len(c) for c in corpora])[sources])
    # each corpus's (batch rows, its records), picked once for all streams
    picks = [(rows, records[rows]) for rows in (sources == s for s in range(len(corpora)))]

    def gather(stream: str) -> np.ndarray:
        stacks = [getattr(corpus, stream) for corpus in corpora]
        if len(stacks) == 1:  # every row from the one corpus: no scatter
            return stacks[0].take(records, axis=0)
        out = np.empty((B,) + stacks[0].shape[1:], dtype=stacks[0].dtype)
        for stack, (rows, picked) in zip(stacks, picks):
            out[rows] = stack[picked]
        return out

    x1, tokens, nv, emo = (gather(name) for name in ("features", "phonemes", "nv", "emo"))
    mask_bits = sample_mask(B, x1.shape[2], rng)
    t = rng.uniform(0.0, 1.0, B)
    x0 = rng.standard_normal(x1.shape)
    drop = rng.uniform(size=B) < p_drop
    inputs = BatchInputs.from_examples(
        sample_conditional_path(x1, t[:, None, None], x0, SIGMA_MIN), t, tokens, nv, emo, x1,
        mask_bits,
    )
    inputs.blank(drop)
    return inputs, on_path_field(x0, x1, SIGMA_MIN), sources


def snapshot_path(checkpoint_path: Path, step: int) -> Path:
    """Where ``train_loop`` keeps the interval snapshot taken after ``step``."""
    return checkpoint_path.with_name(
        f"{checkpoint_path.stem}_step{step:06d}{checkpoint_path.suffix}")


def train_loop(
    model_cfg: ModelConfig,
    corpora: Sequence[Corpus],
    ratios: Sequence[float],
    settings: TrainSettings,
    *,
    checkpoint_path: str | Path | None = None,
    on_step: Callable[[int, float, float], None] | None = None,
) -> tuple[dict, list[tuple[int, float, float]], dict[int, int]]:
    """Run the full loop; returns (params, history, per-source draw counts).

    The corpora and ratios must pass ``check_corpora``.  ``on_step``
    receives (step, loss, lr) after each update.  When a checkpoint path
    is given, the file is rewritten every ``checkpoint_every`` steps and
    at the end; a divergence abort, including parameters that no longer
    fit the checkpoint's float32, leaves the last written checkpoint in
    place.
    """
    B = max(1, settings.batch_frames // check_corpora(corpora, ratios)[1])

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

    def write_checkpoint(step: int | None = None):
        if checkpoint_path is None:
            return
        try:
            save_checkpoint(checkpoint_path, model_cfg, params)
        except ValueError as exc:  # a master weight past float32's range
            raise TrainingDivergedError(f"{exc} after optimizer step {state.step}") from None
        if step is not None:  # retained interval snapshot
            save_checkpoint(snapshot_path(Path(checkpoint_path), step), model_cfg, params)

    write_checkpoint()  # steps=0 leaves the initial state on disk

    history: list[tuple[int, float, float]] = []
    source_counts = np.zeros(len(corpora), dtype=np.int64)
    for step in range(1, settings.steps + 1):
        inputs, u_target, sources = draw_batch(corpora, ratios, B, settings.p_drop, rng)
        source_counts += np.bincount(sources, minlength=len(corpora))
        params, loss, lr = train_step(model, inputs, u_target, params, state)
        history.append((step, loss, lr))
        if on_step is not None:
            on_step(step, loss, lr)
        if settings.checkpoint_every and step % settings.checkpoint_every == 0:
            write_checkpoint(step)

    write_checkpoint()
    return params, history, {i: int(n) for i, n in enumerate(source_counts)}
