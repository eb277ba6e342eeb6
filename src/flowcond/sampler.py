"""Inference-side machinery.

A prompt is a ``BatchInputs``, the same masked-infill task the model
trains on: the visible context holds the reference-audio features
followed by zeros, and the mask marks the frames to generate.  A learned
vector field is integrated from noise to data over the whole sequence
under classifier-free guidance; only the masked frames are returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .infill import BatchInputs

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
) -> BatchInputs:
    """The one-row infilling batch of the reference streams followed by the text region.

    The features are the reference features followed by zeros, the mask
    marks the text region (the model generates it), and ``nv_prompt``
    and ``emo_prompt`` are resampled to the text length.  ``x_t`` and
    ``t`` are zero; the sampler replaces them.  ``BatchInputs`` rejects
    streams that do not line up.
    """
    text_phonemes = np.asarray(text_phonemes)
    t_text = text_phonemes.shape[0]
    if t_text < 1:
        raise ValueError("text prompt must contain at least one frame")
    tokens = np.concatenate([spk_phonemes, text_phonemes])
    features = np.concatenate(
        [spk_features, np.zeros((spk_features.shape[0], t_text))], axis=1
    )
    bits = np.zeros(tokens.shape[0])
    bits[np.shape(spk_phonemes)[0]:] = 1.0
    return BatchInputs.from_examples(
        np.zeros((1, features.shape[0], tokens.shape[0])),
        np.zeros(1),
        tokens[None],
        np.concatenate([spk_nv, interpolate_stream(nv_prompt, t_text)], axis=1)[None],
        np.concatenate([spk_emo, interpolate_stream(emo_prompt, t_text)], axis=1)[None],
        features[None],
        bits[None],
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
    prompts: BatchInputs,
    cfg: GuidanceConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Integrate the guided field from noise to data for a batch of prompts.

    All rows must share the mask; the mask must select at least one
    frame and the context must be zero under it.  The state starts as
    standard-normal noise of the prompts' x_t shape and is stepped from
    t=0 to t=1 in ``cfg.nfe`` steps; under guidance each step evaluates
    the field once with the real conditions and once with blanked
    conditions.  Both batches are built once; an evaluation swaps in only
    the state and the time, and the caller's prompts are left unchanged.
    Returns the masked frames of the final state, (B, F, masked frames).
    """
    b = prompts.x_t.shape[0]
    if b == 0:
        raise ValueError("no prompts to integrate")
    bits = prompts.mask_bits
    if np.any(bits != bits[0]):
        raise ValueError("batched prompts must share one mask")
    sel = bits[0] == 1.0
    if not sel.any():
        raise ValueError("prompt mask must select at least one frame")
    if np.any(prompts.context[:, :, sel] != 0.0):
        raise ValueError("prompt context must be zero under the mask")
    x = rng.standard_normal(prompts.x_t.shape)
    # Own objects, so swapping x_t and t leaves the prompts alone; the
    # blank batch also owns the streams it blanks.
    cond_batch = replace(prompts)
    blank_batch = None
    if cfg.strength > 0:
        blank_batch = replace(prompts, **{name: getattr(prompts, name).copy()
                                          for name in ("tokens", "nv", "emo", "context")})
        blank_batch.blank(slice(None))

    def velocity(state: np.ndarray, t: float) -> np.ndarray:
        cond_batch.x_t, cond_batch.t = state, np.full(b, t)
        v_cond = field(cond_batch)
        if blank_batch is None:
            return v_cond
        blank_batch.x_t, blank_batch.t = state, cond_batch.t
        return guided_field(v_cond, field(blank_batch), cfg.strength)

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

    return x[:, :, sel]
