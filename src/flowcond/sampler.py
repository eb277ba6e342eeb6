"""Inference-side machinery.

A prompt is a condition bundle, the same masked-context task the model
trains on: the visible context holds the reference-audio features
followed by zeros, and the mask marks the frames to generate.  A learned
vector field is integrated from noise to data over the whole sequence
under classifier-free guidance; only the masked frames are returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .infill import BatchInputs, ConditionBundle, build_example, zero_conditions

# A field callable maps stacked model inputs (state x_t (B,F,T), times,
# condition streams) to velocities of the same shape as the state.
FieldFn = Callable[[BatchInputs], np.ndarray]


@dataclass(frozen=True)
class GuidanceConfig:
    """ODE integration budget and guidance strength."""

    strength: float = 1.0
    nfe: int = 32
    solver: str = "euler"

    def __post_init__(self):
        if not 0.0 <= self.strength < math.inf:
            raise ValueError(f"guidance strength must be finite and >= 0, got {self.strength}")
        if self.nfe < 1:
            raise ValueError(f"nfe must be >= 1, got {self.nfe}")
        if self.solver not in ("euler", "midpoint"):
            raise ValueError(f"unknown solver {self.solver!r}")


def interpolate_stream(src: np.ndarray, target_len: int) -> np.ndarray:
    """Linearly resample each row of a D x L stream to length ``target_len``.

    Endpoints are preserved: column 0 maps to column 0 and column L-1 to
    column target_len-1.  Equal lengths return the values unchanged.
    Output is float64.
    """
    src = np.asarray(src)
    if src.ndim != 2:
        raise ValueError(f"stream must be 2-d, got shape {src.shape}")
    d, length = src.shape
    if length < 1:
        raise ValueError("stream must have at least one column")
    if target_len < 1:
        raise ValueError(f"target length must be >= 1, got {target_len}")
    if length == target_len:
        return src.astype(np.float64)
    # np.interp returns a knot's value exactly when a query lands on it, so
    # one column broadcasts and one query reads column 0.
    xs = np.arange(length, dtype=np.float64)
    xq = np.linspace(0.0, float(length - 1), target_len)
    out = np.empty((d, target_len), dtype=np.float64)
    for i in range(d):
        out[i] = np.interp(xq, xs, src[i].astype(np.float64))
    return out


def assemble_prompt(
    spk_features: np.ndarray,
    spk_phonemes: np.ndarray,
    spk_nv: np.ndarray,
    spk_emo: np.ndarray,
    text_phonemes: np.ndarray,
    nv_prompt: np.ndarray,
    emo_prompt: np.ndarray,
) -> ConditionBundle:
    """The infilling example of the reference streams followed by the text region.

    The features are the reference features followed by zeros, the mask
    marks the text region (the model generates it), and ``nv_prompt``
    and ``emo_prompt`` are resampled to the text length.  ``build_example``
    and ``ConditionBundle`` reject streams that do not line up.
    """
    text_phonemes = np.asarray(text_phonemes)
    t_text = text_phonemes.shape[0]
    if t_text < 1:
        raise ValueError("text prompt must contain at least one frame")
    t_spk = np.shape(spk_phonemes)[0]
    features = np.concatenate(
        [spk_features, np.zeros((spk_features.shape[0], t_text))], axis=1
    )
    bits = np.zeros(t_spk + t_text, dtype=np.uint8)
    bits[t_spk:] = 1
    return build_example(
        features,
        np.concatenate([spk_phonemes, text_phonemes]),
        np.concatenate([spk_nv, interpolate_stream(nv_prompt, t_text)], axis=1),
        np.concatenate([spk_emo, interpolate_stream(emo_prompt, t_text)], axis=1),
        bits,
    )


def guided_field(
    v_cond: np.ndarray, v_uncond: np.ndarray, strength: float
) -> np.ndarray:
    """Classifier-free combination v_uncond + (1 + w)(v_cond - v_uncond).

    Strength 0 returns the conditional field itself, bitwise.
    """
    if v_cond.shape != v_uncond.shape:
        raise ValueError(
            f"field shapes differ: {v_cond.shape} vs {v_uncond.shape}"
        )
    if strength == 0.0:
        return v_cond.copy()
    return v_uncond + (1.0 + strength) * (v_cond - v_uncond)


def integrate_batch(
    field: FieldFn,
    conds: Sequence[ConditionBundle],
    cfg: GuidanceConfig,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Integrate the guided field from noise to data for a batch of prompts.

    All bundles must share the context shape and the mask; the mask must
    select at least one frame and the context must be zero under it.
    The state starts as standard-normal noise over the whole sequence
    and is stepped from t=0 to t=1 in ``cfg.nfe`` steps; under guidance
    each step evaluates the field once with the real conditions and once
    with blanked conditions.  Both condition batches are stacked once;
    an evaluation swaps in only the state and the time.  The masked
    columns of each final state are returned.
    """
    if not conds:
        raise ValueError("no prompts to integrate")
    shapes = {c.context.shape for c in conds}
    if len(shapes) != 1:
        raise ValueError(f"batched prompts disagree in context shape: {sorted(shapes)}")
    b = len(conds)
    x = rng.standard_normal((b, *shapes.pop()))
    cond_batch = BatchInputs.from_examples(x, np.zeros(b), conds)
    bits = cond_batch.mask_bits
    if np.any(bits != bits[0]):
        raise ValueError("batched prompts must share one mask")
    sel = bits[0] == 1.0
    if not sel.any():
        raise ValueError("prompt mask must select at least one frame")
    if np.any(cond_batch.context[:, :, sel] != 0.0):
        raise ValueError("prompt context must be zero under the mask")
    blank_batch = (
        BatchInputs.from_examples(x, np.zeros(b), [zero_conditions(c) for c in conds])
        if cfg.strength > 0
        else None
    )

    def velocity(state: np.ndarray, t: float) -> np.ndarray:
        ts = np.full(b, t)
        v_cond = field(replace(cond_batch, x_t=state, t=ts))
        if blank_batch is None:
            return v_cond
        v_uncond = field(replace(blank_batch, x_t=state, t=ts))
        return guided_field(v_cond, v_uncond, cfg.strength)

    h = 1.0 / cfg.nfe
    for k in range(cfg.nfe):
        t = k * h
        v = velocity(x, t)
        if cfg.solver == "euler":
            x = x + h * v
        else:  # midpoint
            x_mid = x + 0.5 * h * v
            x = x + h * velocity(x_mid, t + 0.5 * h)
        if not np.isfinite(x).all():
            raise FloatingPointError(f"non-finite state after step {k + 1}/{cfg.nfe}")

    return list(x[:, :, sel])
