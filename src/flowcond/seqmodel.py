"""Parametric time-dependent vector field over frame sequences.

A small pre-norm attention network regresses the transport velocity from
the noisy state, the visible context, and the frame-aligned condition
streams.  Forward, backward, and the optimizer are written directly in
numpy so every gradient can be checked against finite differences.
Training runs in float64; the sampling field runs in float32.  The
forward pass computes in the dtype of the parameters it is given, so
``make_field_fn`` casts them to float32 once and the sampler needs no
precision option.

Input fusion: [x_t; context; phoneme-embedding; nv; emo] are concatenated
per frame, projected to the model width, and a sinusoidal embedding of
the path time t is added (plus an optional sinusoidal positional code).
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.special import erf

from .fm_core import FlowSample
from .infill import BatchInputs, ConditionBundle, NV_DIM, EMO_DIM
from .features import FormatError

CHECKPOINT_MAGIC = b"FMCK"
CHECKPOINT_VERSION = 1

_LN_EPS = 1e-6
# Python floats, not numpy scalars: under NEP 50 a float64 scalar would
# promote a float32 forward to float64.
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 2
    n_heads: int = 2
    d_model: int = 64
    d_ffn: int = 128
    d_phn: int = 8
    d_nv: int = NV_DIM
    d_emo: int = EMO_DIM
    n_phonemes: int = 16
    feature_dim: int = 8
    frames_per_second: float = 100.0
    use_positional: bool = True

    def __post_init__(self):
        counts = {
            "n_layers": self.n_layers,
            "n_heads": self.n_heads,
            "d_model": self.d_model,
            "d_ffn": self.d_ffn,
            "d_phn": self.d_phn,
            "n_phonemes": self.n_phonemes,
            "feature_dim": self.feature_dim,
        }
        for name, value in counts.items():
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.d_nv != NV_DIM:
            raise ValueError(f"d_nv must be {NV_DIM}, got {self.d_nv}")
        if self.d_emo != EMO_DIM:
            raise ValueError(f"d_emo must be {EMO_DIM}, got {self.d_emo}")

    @property
    def input_dim(self) -> int:
        return 2 * self.feature_dim + self.d_phn + self.d_nv + self.d_emo


# Desk scale trains on a laptop CPU in minutes; fullscale mirrors a
# production-size stack and is not runnable at desk.
PRESETS: dict[str, ModelConfig] = {
    "desk": ModelConfig(),
    "fullscale": ModelConfig(
        n_layers=24,
        n_heads=16,
        d_model=1024,
        d_ffn=4096,
        d_phn=128,
        n_phonemes=256,
        feature_dim=80,
    ),
}


def _param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every tensor, in the canonical (checkpoint) order."""
    d, f = cfg.d_model, cfg.d_ffn
    shapes: dict[str, tuple[int, ...]] = {
        "phn_emb": (cfg.n_phonemes, cfg.d_phn),
        "in_w": (cfg.input_dim, d),
        "in_b": (d,),
    }
    block = {
        "ln1_g": (d,), "ln1_b": (d,),
        "wq": (d, d), "bq": (d,), "wk": (d, d), "bk": (d,),
        "wv": (d, d), "bv": (d,), "wo": (d, d), "bo": (d,),
        "ln2_g": (d,), "ln2_b": (d,),
        "ffn_w1": (d, f), "ffn_b1": (f,), "ffn_w2": (f, d), "ffn_b2": (d,),
    }
    for i in range(cfg.n_layers):
        shapes.update({f"block{i}.{name}": shape for name, shape in block.items()})
    shapes["out_ln_g"] = (d,)
    shapes["out_ln_b"] = (d,)
    shapes["out_w"] = (d, cfg.feature_dim)
    shapes["out_b"] = (cfg.feature_dim,)
    return shapes


def param_names(cfg: ModelConfig) -> list[str]:
    """Canonical parameter order, also the checkpoint serialization order."""
    return list(_param_shapes(cfg))


def init_params(
    cfg: ModelConfig, rng: np.random.Generator, *, zero_output: bool = True
) -> dict[str, np.ndarray]:
    """Initialize all tensors.

    Weights are scaled-normal, norms/biases are identity/zero, and the
    output projection starts at zero by default so the untrained field
    is the zero field.  Draws are made in float32 and held in float64,
    which keeps fresh parameters exactly representable in the 32-bit
    checkpoint format.
    """
    params: dict[str, np.ndarray] = {}
    for name, shape in _param_shapes(cfg).items():
        if name.endswith("_g"):
            params[name] = np.ones(shape)  # layernorm gains
        elif len(shape) == 1:
            params[name] = np.zeros(shape)  # every bias / layernorm offset
        elif name == "out_w" and zero_output:
            params[name] = np.zeros(shape)
        else:
            scale = 1.0 / np.sqrt(shape[0])
            draw = rng.standard_normal(shape).astype(np.float32) * np.float32(scale)
            params[name] = draw.astype(np.float64)
    return params


def embed_phonemes(tokens: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Look up token ids in the embedding table; returns d_phn x T."""
    tokens = np.asarray(tokens)
    if tokens.size and (tokens.min() < 0 or tokens.max() >= table.shape[0]):
        raise IndexError(
            f"phoneme id out of vocabulary (size {table.shape[0]}): "
            f"range [{tokens.min()}, {tokens.max()}]"
        )
    return table[tokens].T


def time_embedding(t: np.ndarray, d_model: int) -> np.ndarray:
    """Sinusoidal embedding of path time, one row per batch element."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    half = d_model // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half, 1))
    ang = 1000.0 * t[:, None] * freqs[None, :]
    emb = np.concatenate([np.sin(ang), np.cos(ang)], axis=1)
    if emb.shape[1] < d_model:  # odd width: pad the leftover column
        emb = np.concatenate([emb, np.zeros((emb.shape[0], 1))], axis=1)
    return emb


@functools.lru_cache(maxsize=32)
def positional_encoding(T: int, d_model: int) -> np.ndarray:
    """Standard sinusoidal position code, (T, d_model).

    Cached per shape, since the sampler asks for the same code on every
    field evaluation; the array is read-only because callers share it.
    The bound keeps a long-lived process that sees many lengths from
    growing the cache without limit.
    """
    pos = np.arange(T, dtype=np.float64)[:, None]
    i = np.arange(d_model, dtype=np.float64)[None, :]
    ang = pos / np.power(10000.0, (2.0 * (i // 2)) / d_model)
    pe = np.empty((T, d_model))
    pe[:, 0::2] = np.sin(ang[:, 0::2])
    pe[:, 1::2] = np.cos(ang[:, 1::2])
    pe.flags.writeable = False
    return pe


def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(B,T,i) @ (i,o) + (o,) as one flat GEMM."""
    bt = x.shape[:-1]
    y = x.reshape(-1, x.shape[-1]) @ w
    y += b
    return y.reshape(*bt, w.shape[1])


def _linear_backward(x: np.ndarray, dy: np.ndarray, w: np.ndarray):
    """Returns (dx, dw, db) for y = x @ w + b."""
    i, o = w.shape
    x2 = x.reshape(-1, i)
    dy2 = dy.reshape(-1, o)
    dw = x2.T @ dy2
    db = dy2.sum(axis=0)
    dx = (dy2 @ w.T).reshape(x.shape)
    return dx, dw, db


def _gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU(x) and its erf(x/sqrt 2) term, which the gradient reuses."""
    e = x / _SQRT2
    erf(e, out=e)
    y = 0.5 * x
    y *= 1.0 + e
    return y, e


def _gelu_grad(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """dGELU/dx given the cached e = erf(x/sqrt 2)."""
    g = x * x
    g *= -0.5
    np.exp(g, out=g)
    g *= x
    g *= _INV_SQRT_2PI
    g += 0.5
    g += 0.5 * e
    return g


def _layernorm(x, g, b):
    xc = x - x.mean(axis=-1, keepdims=True)
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    var += _LN_EPS
    istd = 1.0 / np.sqrt(var, out=var)
    xc *= istd  # now xhat
    y = g * xc
    y += b
    return y, (xc, istd, g)


def _layernorm_backward(dy, cache):
    xhat, istd, g = cache
    dy2 = dy.reshape(-1, dy.shape[-1])
    db = dy2.sum(axis=0)
    dxhat = dy * g
    t = dy * xhat
    dg = t.reshape(dy2.shape).sum(axis=0)
    np.multiply(dxhat, xhat, out=t)
    m2 = t.mean(axis=-1, keepdims=True)
    np.multiply(xhat, m2, out=t)
    dxhat -= dxhat.mean(axis=-1, keepdims=True)
    dxhat -= t
    dxhat *= istd
    return dxhat, dg, db


def _split_heads(x, n_heads):
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


class VectorFieldModel:
    """The learned velocity field v(x_t, t, conditions)."""

    def __init__(self, config: ModelConfig):
        self.config = config

    # -- forward -----------------------------------------------------------

    def forward_batch(self, inputs: BatchInputs, params, *, want_cache: bool = False):
        """Velocities (B, F, T) in the dtype of ``params``.

        The inputs are checked for non-finite values as given and then
        cast to the parameter dtype.
        """
        cfg = self.config
        dtype = params["in_w"].dtype
        x_t = inputs.x_t
        b, f, t_len = x_t.shape
        if f != cfg.feature_dim:
            raise ValueError(f"feature dim {f} != configured {cfg.feature_dim}")
        for arr in (inputs.x_t, inputs.nv, inputs.emo, inputs.context):
            if not np.isfinite(arr).all():
                raise FloatingPointError("non-finite value in model input")

        emb = embed_phonemes(inputs.tokens.reshape(-1), params["phn_emb"])
        emb = emb.T.reshape(b, t_len, cfg.d_phn)
        u = np.concatenate(
            [
                x_t.transpose(0, 2, 1),
                inputs.context.transpose(0, 2, 1),
                emb,
                inputs.nv.transpose(0, 2, 1),
                inputs.emo.transpose(0, 2, 1),
            ],
            axis=2,
            dtype=dtype,
        )
        z = _linear(u, params["in_w"], params["in_b"])
        z += time_embedding(inputs.t, cfg.d_model).astype(dtype, copy=False)[:, None, :]
        if cfg.use_positional:
            z += positional_encoding(t_len, cfg.d_model).astype(dtype, copy=False)[None, :, :]

        blocks = []
        heads, d_head = cfg.n_heads, cfg.d_model // cfg.n_heads
        scale = 1.0 / math.sqrt(d_head)
        for i in range(cfg.n_layers):
            p = f"block{i}."
            y1, ln1c = _layernorm(z, params[p + "ln1_g"], params[p + "ln1_b"])
            # one (d, 3d) GEMM for q|k|v; the checkpoint keeps three tensors
            w_qkv = np.concatenate([params[p + "wq"], params[p + "wk"], params[p + "wv"]], axis=1)
            b_qkv = np.concatenate([params[p + "bq"], params[p + "bk"], params[p + "bv"]])
            qkv = _linear(y1, w_qkv, b_qkv).reshape(b, t_len, 3, heads, d_head)
            q, k, v = (qkv[:, :, j].transpose(0, 2, 1, 3) for j in range(3))
            attn_p = np.matmul(q, k.transpose(0, 1, 3, 2))
            attn_p *= scale
            attn_p -= attn_p.max(axis=-1, keepdims=True)
            np.exp(attn_p, out=attn_p)
            attn_p /= attn_p.sum(axis=-1, keepdims=True)
            o = np.empty((b, t_len, heads, d_head), dtype=dtype)
            np.matmul(attn_p, v, out=o.transpose(0, 2, 1, 3))
            o = o.reshape(b, t_len, cfg.d_model)
            z_attn = _linear(o, params[p + "wo"], params[p + "bo"])
            z_attn += z

            y2, ln2c = _layernorm(z_attn, params[p + "ln2_g"], params[p + "ln2_b"])
            h1 = _linear(y2, params[p + "ffn_w1"], params[p + "ffn_b1"])
            a1, erf1 = _gelu(h1)
            z = _linear(a1, params[p + "ffn_w2"], params[p + "ffn_b2"])
            z += z_attn

            blocks.append(
                {"y1": y1, "ln1c": ln1c, "w_qkv": w_qkv, "q": q, "k": k, "v": v,
                 "p": attn_p, "o": o, "y2": y2, "ln2c": ln2c, "h1": h1, "erf1": erf1,
                 "a1": a1}
            )

        g_out, lnfc = _layernorm(z, params["out_ln_g"], params["out_ln_b"])
        v_out = _linear(g_out, params["out_w"], params["out_b"])
        out = v_out.transpose(0, 2, 1)
        if not want_cache:
            return out, None
        cache = {"u": u, "tokens": inputs.tokens, "blocks": blocks,
                 "g_out": g_out, "lnfc": lnfc, "scale": scale}
        return out, cache

    # -- backward ----------------------------------------------------------

    def backward_batch(self, grad_out: np.ndarray, cache, params):
        """Gradients of a scalar loss w.r.t. every parameter tensor.

        ``grad_out`` is dLoss/dOutput with output shape (B, F, T);
        ``cache`` comes from forward_batch(want_cache=True).
        """
        if cache is None:
            raise RuntimeError("backward requires a cache from forward_batch(want_cache=True)")
        cfg = self.config
        b, _, t_len = grad_out.shape
        d, heads = cfg.d_model, cfg.n_heads
        grads = {}

        dg_out, grads["out_w"], grads["out_b"] = _linear_backward(
            cache["g_out"], grad_out.transpose(0, 2, 1), params["out_w"]
        )
        dz, grads["out_ln_g"], grads["out_ln_b"] = _layernorm_backward(
            dg_out, cache["lnfc"]
        )

        scale = cache["scale"]
        # dq|dk|dv land in one buffer laid out like the fused q|k|v output
        d_qkv = np.empty((b, t_len, 3, heads, d // heads))
        dq, dk, dv = (d_qkv[:, :, j].transpose(0, 2, 1, 3) for j in range(3))
        for i in reversed(range(cfg.n_layers)):
            p = f"block{i}."
            blk = cache["blocks"][i]

            # FFN sub-block: z_next = z_attn + ffn(ln2(z_attn))
            da1, grads[p + "ffn_w2"], grads[p + "ffn_b2"] = _linear_backward(
                blk["a1"], dz, params[p + "ffn_w2"]
            )
            da1 *= _gelu_grad(blk["h1"], blk["erf1"])
            dy2, grads[p + "ffn_w1"], grads[p + "ffn_b1"] = _linear_backward(
                blk["y2"], da1, params[p + "ffn_w1"]
            )
            dz_attn, grads[p + "ln2_g"], grads[p + "ln2_b"] = _layernorm_backward(
                dy2, blk["ln2c"]
            )
            dz_attn += dz  # residual branch

            # attention sub-block: z_attn = z + attn(ln1(z))
            do, grads[p + "wo"], grads[p + "bo"] = _linear_backward(
                blk["o"], dz_attn, params[p + "wo"]
            )
            do_heads = _split_heads(do, heads)
            attn_p = blk["p"]
            ds = np.matmul(do_heads, blk["v"].transpose(0, 1, 3, 2))  # dL/dp
            np.matmul(attn_p.transpose(0, 1, 3, 2), do_heads, out=dv)
            # softmax backward: ds = p * (dp - rowdot(dp, p)), with scale folded in
            ds -= np.einsum("...i,...i->...", ds, attn_p)[..., None]
            ds *= attn_p
            ds *= scale
            np.matmul(ds, blk["k"], out=dq)
            np.matmul(ds.transpose(0, 1, 3, 2), blk["q"], out=dk)
            dy1, dw, db = _linear_backward(blk["y1"], d_qkv, blk["w_qkv"])
            for j, name in enumerate("qkv"):
                grads[p + "w" + name] = dw[:, j * d : (j + 1) * d]
                grads[p + "b" + name] = db[j * d : (j + 1) * d]
            dz, grads[p + "ln1_g"], grads[p + "ln1_b"] = _layernorm_backward(
                dy1, blk["ln1c"]
            )
            dz += dz_attn  # residual branch

        # input projection; of its input gradient only the phoneme-embedding
        # rows feed a parameter
        u, dz2 = cache["u"], dz.reshape(-1, d)
        grads["in_w"] = u.reshape(-1, u.shape[-1]).T @ dz2
        grads["in_b"] = dz2.sum(axis=0)
        emb_rows = slice(2 * cfg.feature_dim, 2 * cfg.feature_dim + cfg.d_phn)
        grads["phn_emb"] = np.zeros_like(params["phn_emb"])
        np.add.at(grads["phn_emb"], cache["tokens"].reshape(-1), dz2 @ params["in_w"][emb_rows].T)
        return grads


# -- loss, optimizer, training step --------------------------------------


class TrainingDivergedError(RuntimeError):
    """Raised when the batch loss becomes non-finite."""


def masked_batch_loss_grad(
    v_pred: np.ndarray, u_target: np.ndarray, mask_bits: np.ndarray
) -> tuple[float, np.ndarray]:
    """Flow-matching regression loss and its gradient w.r.t. v_pred.

    The loss is the mean squared error between predicted and target
    fields (B, F, T) over the frames that ``mask_bits`` (B, T) selects;
    an all-ones mask scores every element.  A mask that selects nothing
    is rejected since it leaves nothing to score.
    """
    diff = v_pred - u_target
    sel = mask_bits[:, None, :]
    count = float(sel.sum() * v_pred.shape[1])
    if count == 0:
        raise ValueError("batch mask selects no frames")
    loss = float(np.sum(diff * diff * sel) / count)
    return loss, 2.0 * diff * sel / count


@dataclass(frozen=True)
class LrSchedule:
    """Linear warmup to the peak rate, then linear decay to zero."""

    peak: float
    warmup_steps: int
    total_steps: int

    def at(self, step: int) -> float:
        if step < 1:
            raise ValueError(f"step must be >= 1, got {step}")
        if self.warmup_steps > 0 and step <= self.warmup_steps:
            return self.peak * step / self.warmup_steps
        if self.total_steps <= self.warmup_steps:
            return self.peak
        frac = (self.total_steps - step) / (self.total_steps - self.warmup_steps)
        return self.peak * max(frac, 0.0)


@dataclass
class OptimizerState:
    """Adam moments plus the step counter driving the schedule."""

    schedule: LrSchedule
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_update(params, grads, state: OptimizerState) -> float:
    """Apply one Adam step in place; returns the learning rate used."""
    state.step += 1
    lr = state.schedule.at(state.step)
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**state.step
    bc2 = 1.0 - b2**state.step
    for name, g in grads.items():
        if name not in state.m:
            state.m[name] = np.zeros_like(g)
            state.v[name] = np.zeros_like(g)
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        step = m / bc1
        step *= lr
        denom = v / bc2
        np.sqrt(denom, out=denom)
        denom += state.eps
        step /= denom
        params[name] -= step
    return lr


def train_step(
    model: VectorFieldModel,
    batch: Sequence[tuple[FlowSample, ConditionBundle]],
    params,
    opt_state: OptimizerState,
) -> tuple[dict, float, float]:
    """One optimizer update on a batch of (flow sample, conditions) pairs.

    Returns (params, pre-update batch loss, learning rate applied).  The
    loss is restricted to the masked frames of each example.
    """
    if not batch:
        raise ValueError("batch must be nonempty")
    samples = [s for s, _ in batch]
    conds = [c for _, c in batch]
    inputs = BatchInputs.from_examples(
        [s.x_t for s in samples], [s.t for s in samples], conds
    )
    u_target = np.stack([s.u_target for s in samples])

    v_pred, cache = model.forward_batch(inputs, params, want_cache=True)
    loss, dv = masked_batch_loss_grad(v_pred, u_target, inputs.mask_bits)
    if not np.isfinite(loss):
        raise TrainingDivergedError(
            f"non-finite loss at optimizer step {opt_state.step + 1}"
        )
    grads = model.backward_batch(dv, cache, params)
    lr = adam_update(params, grads, opt_state)
    return params, loss, lr


# Precision of the sampling field.  Checkpoints store float32, so a float64
# forward would buy the sampler nothing but time.
FIELD_DTYPE = np.float32


def make_field_fn(model: VectorFieldModel, params):
    """Adapt the model to the sampler's field interface: BatchInputs -> velocities.

    The parameters are cast to ``FIELD_DTYPE`` once, here, so every field
    evaluation runs a float32 forward and returns float32 velocities;
    the caller's parameters are left as they are.
    """
    params = {name: arr.astype(FIELD_DTYPE) for name, arr in params.items()}

    def field(inputs: BatchInputs) -> np.ndarray:
        return model.forward_batch(inputs, params)[0]

    return field


# -- checkpoint I/O -------------------------------------------------------


def save_checkpoint(path: str | Path, cfg: ModelConfig, params) -> None:
    """Write config and tensors: magic, version, JSON config block, then
    length-prefixed named tensors as little-endian float32."""
    names = param_names(cfg)
    cfg_json = json.dumps(asdict(cfg), sort_keys=True).encode()
    parts = [
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        struct.pack("<I", len(cfg_json)),
        cfg_json,
        struct.pack("<I", len(names)),
    ]
    for name in names:
        arr = np.ascontiguousarray(params[name], dtype="<f4")
        nb = name.encode()
        parts.append(struct.pack("<I", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_checkpoint(path: str | Path) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    """Read a checkpoint back; tensors are returned as float64 arrays."""
    blob = Path(path).read_bytes()
    off = 0

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise FormatError(f"truncated checkpoint {path}: while reading {what}")
        chunk = blob[off : off + n]
        off += n
        return chunk

    if take(4, "magic") != CHECKPOINT_MAGIC:
        raise FormatError(f"bad magic in {path}: expected {CHECKPOINT_MAGIC!r}")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version} in {path}")
    (cfg_len,) = struct.unpack("<I", take(4, "config length"))
    cfg_block = take(cfg_len, "config block")
    try:
        cfg = ModelConfig(**json.loads(cfg_block))
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad config block in checkpoint {path}: {exc}") from exc
    (n_tensors,) = struct.unpack("<I", take(4, "tensor count"))

    params: dict[str, np.ndarray] = {}
    for _ in range(n_tensors):
        (name_len,) = struct.unpack("<I", take(4, "tensor name length"))
        name = take(name_len, "tensor name").decode()
        (ndim,) = struct.unpack("<I", take(4, "tensor rank"))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, "tensor shape"))
        n_elem = int(np.prod(shape)) if ndim else 1
        raw = take(4 * n_elem, f"tensor {name} payload")
        arr = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float64)
        if not np.isfinite(arr).all():
            raise FormatError(f"non-finite values in tensor {name} of {path}")
        params[name] = arr
    if off != len(blob):
        raise FormatError(f"trailing bytes after tensors in {path}")

    shapes = _param_shapes(cfg)
    if params.keys() != shapes.keys():
        missing = shapes.keys() - params.keys()
        extra = params.keys() - shapes.keys()
        raise FormatError(
            f"checkpoint {path} tensor names mismatch config: "
            f"missing={sorted(missing)} extra={sorted(extra)}"
        )
    for name, shape in shapes.items():
        if params[name].shape != shape:
            raise FormatError(
                f"checkpoint {path} tensor {name} has shape {params[name].shape}, "
                f"config expects {shape}"
            )
    return cfg, params
