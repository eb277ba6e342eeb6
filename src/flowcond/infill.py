"""Frame-sequence infilling task construction.

A training example hides a contiguous span of frames behind a binary
temporal mask; the model sees the remaining context plus frame-aligned
condition streams and must regenerate the hidden span.  ``BatchInputs``
is the stacked form of a batch of bundles, the model's input, and
``zero_conditions`` blanks a bundle: the unconditional branch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

NV_DIM = 32
EMO_DIM = 2

# Token id 0 is reserved as the blank/ dropped-condition phoneme.
BLANK_TOKEN = 0


@dataclass
class ConditionBundle:
    """Frame-aligned condition streams plus the visible context.

    ``phonemes`` holds integer token ids of length T; ``nv`` is the
    32 x T nonverbal-vocalization embedding stream; ``emo`` the 2 x T
    arousal/valence stream centered in [-0.5, 0.5]; ``context`` is the
    feature matrix with the masked span zeroed; ``mask`` is the (T,)
    uint8 0/1 array whose 1s mark the frames to generate.
    """

    phonemes: np.ndarray
    nv: np.ndarray
    emo: np.ndarray
    context: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.phonemes = np.asarray(self.phonemes)
        if self.phonemes.ndim != 1:
            raise ValueError("phonemes must be a 1-d token id sequence")
        t = self.phonemes.shape[0]
        for name, arr, rows in (("nv", self.nv, NV_DIM), ("emo", self.emo, EMO_DIM)):
            if arr.shape != (rows, t):
                raise ValueError(
                    f"{name} must have shape ({rows}, {t}), got {arr.shape}"
                )
        if self.context.ndim != 2 or self.context.shape[1] != t:
            raise ValueError(
                f"context must be F x {t}, got shape {self.context.shape}"
            )
        self.mask = np.asarray(self.mask, dtype=np.uint8)
        if self.mask.shape != (t,):
            raise ValueError(f"mask must have shape ({t},), got {self.mask.shape}")
        if t and self.mask.max() > 1:
            raise ValueError("mask bits must be 0 or 1")
        if self.emo.size and (self.emo.min() < -0.5 or self.emo.max() > 0.5):
            raise ValueError("emo values must lie in [-0.5, 0.5]")

    @property
    def length(self) -> int:
        return self.phonemes.shape[0]


@dataclass
class BatchInputs:
    """Stacked per-example arrays; every example must share F and T."""

    x_t: np.ndarray  # (B, F, T)
    t: np.ndarray  # (B,)
    tokens: np.ndarray  # (B, T)
    nv: np.ndarray  # (B, 32, T)
    emo: np.ndarray  # (B, 2, T)
    context: np.ndarray  # (B, F, T)
    mask_bits: np.ndarray  # (B, T)

    @classmethod
    def from_examples(
        cls, x_t: Sequence[np.ndarray], t: Sequence[float], conds: Sequence[ConditionBundle]
    ) -> "BatchInputs":
        shapes = {np.shape(x) for x in x_t}
        if len(shapes) != 1:
            raise ValueError(f"batch examples disagree in shape: {shapes}")
        t_len = shapes.pop()[1]
        bad = {c.length for c in conds if c.length != t_len}
        if bad:
            raise ValueError(f"condition length(s) {sorted(bad)} != state length {t_len}")
        return cls(
            x_t=np.stack([np.asarray(x, dtype=np.float64) for x in x_t]),
            t=np.asarray(t, dtype=np.float64),
            tokens=np.stack([c.phonemes for c in conds]),
            nv=np.stack([np.asarray(c.nv, dtype=np.float64) for c in conds]),
            emo=np.stack([np.asarray(c.emo, dtype=np.float64) for c in conds]),
            context=np.stack([np.asarray(c.context, dtype=np.float64) for c in conds]),
            mask_bits=np.stack([c.mask for c in conds]).astype(np.float64),
        )


def sample_mask(
    B: int, T: int, rng: np.random.Generator, ratio_range: tuple[float, float] = (0.7, 1.0)
) -> np.ndarray:
    """Sample B masks, each one contiguous span covering round(r*T) frames.

    Each row's r is uniform on ``ratio_range`` and its span start is
    uniform among valid offsets; all B ratios are drawn before the B
    starts.  A span is clamped to at least one frame so every mask is
    usable for training.  Returns a (B, T) uint8 0/1 array.
    """
    lo, hi = ratio_range
    if not 0.0 < lo <= hi <= 1.0:
        raise ValueError(f"ratio_range must satisfy 0 < lo <= hi <= 1, got {ratio_range}")
    if T < 1:
        raise ValueError(f"sequence length must be >= 1, got {T}")
    r = rng.uniform(lo, hi, B)
    span = np.floor(r * T + 0.5).astype(np.int64)  # round half up, avoids banker's rounding
    np.clip(span, 1, T, out=span)
    offset = np.arange(T) - rng.integers(T - span + 1)[:, None]  # frame index - span start
    return ((offset >= 0) & (offset < span[:, None])).astype(np.uint8)


def build_example(
    features: np.ndarray,
    phonemes: np.ndarray,
    nv: np.ndarray,
    emo: np.ndarray,
    mask: np.ndarray,
) -> ConditionBundle:
    """Condition bundle whose visible context hides the masked span.

    context = (1 - m) * features: frames under the mask are zero and
    every other frame is copied from ``features`` unchanged.
    """
    mask = np.asarray(mask)
    if not mask.any():
        raise ValueError("training mask must select at least one frame")
    if features.ndim != 2 or features.shape[1:] != mask.shape:
        raise ValueError(
            f"features must be F x T for a mask of shape {mask.shape}, "
            f"got shape {features.shape}"
        )
    context = (1.0 - mask.astype(np.float64)) * features
    return ConditionBundle(phonemes=phonemes, nv=nv, emo=emo, context=context, mask=mask)


def zero_conditions(cond: ConditionBundle) -> ConditionBundle:
    """Bundle with every condition stream blanked (the unconditional branch)."""
    return replace(
        cond,
        phonemes=np.full_like(cond.phonemes, BLANK_TOKEN),
        nv=np.zeros_like(cond.nv),
        emo=np.zeros_like(cond.emo),
        context=np.zeros_like(cond.context),
    )
