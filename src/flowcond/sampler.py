"""Inference-side machinery.

A prompt is assembled by concatenating reference-audio streams with the
streams for the text to generate (features zero there), then a learned
vector field is integrated from noise to data over the whole assembly
under classifier-free guidance.  Only the generated slice is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .infill import ConditionBundle, TemporalMask, zero_conditions

# A field callable maps (state batch (B,F,T), time, condition bundles) to
# velocities of the same shape as the state.
FieldFn = Callable[[np.ndarray, float, Sequence[ConditionBundle]], np.ndarray]


@dataclass(frozen=True)
class GuidanceConfig:
    """ODE integration budget and guidance strength."""

    strength: float = 1.0
    nfe: int = 32
    solver: str = "euler"

    def __post_init__(self):
        if self.strength < 0:
            raise ValueError(f"guidance strength must be >= 0, got {self.strength}")
        if self.nfe < 1:
            raise ValueError(f"nfe must be >= 1, got {self.nfe}")
        if self.solver not in ("euler", "midpoint"):
            raise ValueError(f"unknown solver {self.solver!r}")


@dataclass
class PromptAssembly:
    """Reference and to-generate streams concatenated along time.

    ``generated_region`` is the half-open frame interval the model must
    fill; the feature block there is exactly zero.
    """

    features: np.ndarray
    phonemes: np.ndarray
    nv: np.ndarray
    emo: np.ndarray
    generated_region: tuple[int, int]

    def __post_init__(self):
        total = self.phonemes.shape[0]
        for name, arr in (("features", self.features), ("nv", self.nv), ("emo", self.emo)):
            if arr.shape[1] != total:
                raise ValueError(f"{name} length {arr.shape[1]} != phoneme length {total}")
        lo, hi = self.generated_region
        if not (0 <= lo < hi <= total):
            raise ValueError(f"generated_region {self.generated_region} out of range for T={total}")
        if np.any(self.features[:, lo:hi] != 0.0):
            raise ValueError("feature block of the generated region must be all zero")

    @property
    def total_length(self) -> int:
        return self.phonemes.shape[0]

    def condition_bundle(self) -> ConditionBundle:
        """Bundle for the full assembly; the generated region is the mask."""
        bits = np.zeros(self.total_length, dtype=np.uint8)
        lo, hi = self.generated_region
        bits[lo:hi] = 1
        return ConditionBundle(
            phonemes=self.phonemes,
            nv=self.nv,
            emo=self.emo,
            context=self.features,
            mask=TemporalMask(bits),
        )


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
    if length == 1:
        return np.repeat(src.astype(np.float64), target_len, axis=1)
    if target_len == 1:
        return src[:, :1].astype(np.float64)
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
) -> PromptAssembly:
    """Concatenate reference streams with the text-region streams.

    ``nv_prompt`` and ``emo_prompt`` are resampled to the text length
    when their lengths differ from it.  The feature block of the text
    region is zero-filled; the model generates it.
    """
    text_phonemes = np.asarray(text_phonemes)
    t_text = text_phonemes.shape[0]
    if t_text < 1:
        raise ValueError("text prompt must contain at least one frame")
    spk_phonemes = np.asarray(spk_phonemes)
    t_spk = spk_phonemes.shape[0]
    f = spk_features.shape[0]
    if spk_features.shape[1] != t_spk:
        raise ValueError(
            f"speaker features length {spk_features.shape[1]} != phoneme length {t_spk}"
        )
    for name, arr in (("spk_nv", spk_nv), ("spk_emo", spk_emo)):
        if arr.shape[1] != t_spk:
            raise ValueError(f"{name} length {arr.shape[1]} != speaker length {t_spk}")

    nv_text = (
        nv_prompt.astype(np.float64)
        if nv_prompt.shape[1] == t_text
        else interpolate_stream(nv_prompt, t_text)
    )
    emo_text = (
        emo_prompt.astype(np.float64)
        if emo_prompt.shape[1] == t_text
        else interpolate_stream(emo_prompt, t_text)
    )

    features = np.concatenate(
        [spk_features.astype(np.float64), np.zeros((f, t_text))], axis=1
    )
    return PromptAssembly(
        features=features,
        phonemes=np.concatenate([spk_phonemes, text_phonemes]),
        nv=np.concatenate([spk_nv.astype(np.float64), nv_text], axis=1),
        emo=np.concatenate([spk_emo.astype(np.float64), emo_text], axis=1),
        generated_region=(t_spk, t_spk + t_text),
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


def _guided_eval(
    field: FieldFn,
    x: np.ndarray,
    t: float,
    conds: Sequence[ConditionBundle],
    conds_zero: Sequence[ConditionBundle] | None,
    strength: float,
) -> np.ndarray:
    v_cond = field(x, t, conds)
    if strength == 0.0:
        return v_cond
    v_uncond = field(x, t, conds_zero)
    return guided_field(v_cond, v_uncond, strength)


def integrate_batch(
    field: FieldFn,
    prompts: Sequence[PromptAssembly],
    cfg: GuidanceConfig,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Integrate the guided field from noise to data for a batch of prompts.

    All prompts must share the same feature dimension, total length and
    generated region.  The state starts as standard-normal noise over
    the full assembly and is stepped from t=0 to t=1 in ``cfg.nfe``
    steps; under guidance each step evaluates the field once with the
    real conditions and once with blanked conditions.  The generated
    slice of each final state is returned.
    """
    if not prompts:
        raise ValueError("no prompts to integrate")
    first = prompts[0]
    f, total = first.features.shape
    region = first.generated_region
    for p in prompts[1:]:
        if p.features.shape != (f, total) or p.generated_region != region:
            raise ValueError("batched prompts must share shape and generated region")

    conds = [p.condition_bundle() for p in prompts]
    conds_zero = [zero_conditions(c) for c in conds] if cfg.strength > 0 else None

    b = len(prompts)
    x = rng.standard_normal((b, f, total))
    h = 1.0 / cfg.nfe
    for k in range(cfg.nfe):
        t = k * h
        v = _guided_eval(field, x, t, conds, conds_zero, cfg.strength)
        if cfg.solver == "euler":
            x = x + h * v
        else:  # midpoint
            x_mid = x + 0.5 * h * v
            v_mid = _guided_eval(field, x_mid, t + 0.5 * h, conds, conds_zero, cfg.strength)
            x = x + h * v_mid
        if not np.isfinite(x).all():
            raise FloatingPointError(f"non-finite state after step {k + 1}/{cfg.nfe}")

    lo, hi = region
    return [x[i, :, lo:hi] for i in range(b)]

