"""Frame-sequence infilling task construction.

A training example hides a contiguous span of frames behind a binary
temporal mask; the model sees the remaining context plus frame-aligned
condition streams and must regenerate the hidden span.  ``BatchInputs``
is the model's only input type: B such rows stacked, whether a training
batch or a sampling prompt.  ``BatchInputs.from_examples`` hides the
masked frames of the features, and ``BatchInputs.blank`` blanks the
conditions of chosen rows: the unconditional branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NV_DIM = 32
EMO_DIM = 2

# Token id 0 is reserved as the blank/ dropped-condition phoneme.
BLANK_TOKEN = 0


@dataclass
class BatchInputs:
    """B masked-infill rows that share F and T, stacked along axis 0.

    ``x_t`` is the flow state at times ``t``; ``tokens`` holds phoneme
    ids; ``nv`` is the 32-row nonverbal-vocalization stream and ``emo``
    the 2-row arousal/valence stream, centered in [-0.5, 0.5];
    ``context`` is the features with the masked frames zeroed; the 0/1
    ``mask_bits`` mark the frames to generate.  Construction checks every
    stream's shape against x_t's (B, F, T), the mask bits and the emo
    range; B = 0 passes.
    """

    x_t: np.ndarray  # (B, F, T)
    t: np.ndarray  # (B,)
    tokens: np.ndarray  # (B, T)
    nv: np.ndarray  # (B, 32, T)
    emo: np.ndarray  # (B, 2, T)
    context: np.ndarray  # (B, F, T)
    mask_bits: np.ndarray  # (B, T)

    def __post_init__(self):
        if np.ndim(self.x_t) != 3:
            raise ValueError(f"x_t must be B x F x T, got shape {np.shape(self.x_t)}")
        b, f, t_len = np.shape(self.x_t)
        for name, want in (
            ("t", (b,)),
            ("tokens", (b, t_len)),
            ("nv", (b, NV_DIM, t_len)),
            ("emo", (b, EMO_DIM, t_len)),
            ("context", (b, f, t_len)),
            ("mask_bits", (b, t_len)),
        ):
            got = np.shape(getattr(self, name))
            if got != want:
                raise ValueError(f"{name} must have shape {want}, got {got}")
        bits = self.mask_bits
        if np.any((bits != 0) & (bits != 1)):
            raise ValueError("mask bits must be 0 or 1")
        emo = self.emo
        if emo.size and (emo.min() < -0.5 or emo.max() > 0.5):
            raise ValueError("emo values must lie in [-0.5, 0.5]")

    @classmethod
    def from_examples(
        cls,
        x_t: np.ndarray,
        t: np.ndarray,
        tokens: np.ndarray,
        nv: np.ndarray,
        emo: np.ndarray,
        features: np.ndarray,
        mask_bits: np.ndarray,
    ) -> "BatchInputs":
        """Stacked rows whose context hides the masked frames of ``features``.

        context = (1 - m) * features: frames under the mask are zero and
        every other frame is copied from ``features`` unchanged.  Every
        row's mask must select at least one frame.  Streams are cast to
        float64; ``tokens`` keep their integer type.
        """
        f64 = np.float64
        batch = cls(  # checks every shape; the context is masked below
            x_t=np.asarray(x_t, dtype=f64),
            t=np.asarray(t, dtype=f64),
            tokens=np.asarray(tokens),
            nv=np.asarray(nv, dtype=f64),
            emo=np.asarray(emo, dtype=f64),
            context=np.asarray(features, dtype=f64),
            mask_bits=np.asarray(mask_bits, dtype=f64),
        )
        if not batch.mask_bits.any(axis=1).all():
            raise ValueError("training mask must select at least one frame")
        batch.context = (1.0 - batch.mask_bits)[:, None, :] * batch.context
        return batch

    def blank(self, rows) -> None:
        """Blank the conditions of ``rows`` in place (the unconditional branch).

        Their phonemes become ``BLANK_TOKEN`` and their nv, emo and
        context zero; x_t, t and the mask stay.  ``rows`` is any numpy
        index over the batch axis.
        """
        self.tokens[rows] = BLANK_TOKEN
        for stream in (self.nv, self.emo, self.context):
            stream[rows] = 0.0


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
