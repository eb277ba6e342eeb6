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

Memory layout: a training step allocates no large array.
- Arena: ``init_params`` and ``load_checkpoint`` return a name -> array
  dict whose arrays are views of one contiguous float64 vector, in
  ``param_names`` (checkpoint) order.  ``backward_batch`` writes the
  gradients into a second arena of the same layout, and the Adam moments
  are flat vectors of that layout, so ``adam_update`` runs over the
  whole model in a few slices instead of once per tensor.
- Workspace: a ``VectorFieldModel`` keeps one workspace for the
  (B, T, dtype) of its latest forward pass; a pass at another shape
  replaces it.  It holds the forward cache and, once a backward pass has
  run, the backward temporaries and the gradient arena; the kernels write
  into it with ``out=``.
- Aliasing: the velocities ``forward_batch`` returns are a fresh array on
  every call, so callers may hold them across calls.  A forward cache is
  valid until the next ``forward_batch`` call on the model, and
  ``backward_batch`` rejects a stale one; the gradients it returns are
  valid until its next call at that shape.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .infill import BatchInputs, NV_DIM, EMO_DIM
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


# The model `flowcond train` builds: trains on a laptop CPU in minutes.
PRESETS: dict[str, ModelConfig] = {"desk": ModelConfig()}


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


def _arena(shapes: dict[str, tuple[int, ...]], dtype=np.float64) -> dict[str, np.ndarray]:
    """Zeroed name -> array views that tile one contiguous vector in order."""
    flat = np.zeros(sum(math.prod(shape) for shape in shapes.values()), dtype)
    views, off = {}, 0
    for name, shape in shapes.items():
        n = math.prod(shape)
        views[name] = flat[off : off + n].reshape(shape)
        off += n
    return views


def _arena_vector(tensors: dict[str, np.ndarray], what: str) -> np.ndarray:
    """The one vector an ``_arena`` dict tiles; rejects any other dict."""
    base = next(iter(tensors.values())).base
    if base is None or base.ndim != 1 or any(a.base is not base for a in tensors.values()):
        raise ValueError(
            f"{what} must be the arena dict from init_params, load_checkpoint "
            "or backward_batch, with no tensor replaced"
        )
    return base


def init_params(
    cfg: ModelConfig, rng: np.random.Generator, *, zero_output: bool = True
) -> dict[str, np.ndarray]:
    """Initialize all tensors, as views of one float64 arena.

    Weights are scaled-normal, norms/biases are identity/zero, and the
    output projection starts at zero by default so the untrained field
    is the zero field.  Draws are made in float32 and held in float64,
    which keeps fresh parameters exactly representable in the 32-bit
    checkpoint format.
    """
    params = _arena(_param_shapes(cfg))  # zeros: biases, offsets, zero output head
    for name, arr in params.items():
        if name.endswith("_g"):
            arr.fill(1.0)  # layernorm gains
        elif arr.ndim > 1 and not (name == "out_w" and zero_output):
            scale = 1.0 / np.sqrt(arr.shape[0])
            arr[...] = rng.standard_normal(arr.shape).astype(np.float32) * np.float32(scale)
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


@functools.lru_cache(maxsize=32)
def _time_freqs(half: int) -> np.ndarray:
    """The frequencies of ``time_embedding``, cached per width and read-only."""
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half, 1))
    freqs.flags.writeable = False
    return freqs


def time_embedding(t: np.ndarray, d_model: int) -> np.ndarray:
    """Sinusoidal embedding of path time, one row per batch element."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    ang = 1000.0 * t[:, None] * _time_freqs(d_model // 2)[None, :]
    emb = np.concatenate([np.sin(ang), np.cos(ang)], axis=1)
    if emb.shape[1] < d_model:  # odd width: pad the leftover column
        emb = np.concatenate([emb, np.zeros((emb.shape[0], 1))], axis=1)
    return emb


@functools.lru_cache(maxsize=32)
def positional_encoding(T: int, d_model: int, dtype=np.float64) -> np.ndarray:
    """Standard sinusoidal position code, (T, d_model), computed in float64
    and returned in ``dtype``.

    Cached per shape and dtype, since the sampler asks for the same code
    on every field evaluation; the array is read-only because callers
    share it.  The bound keeps a long-lived process that sees many
    lengths from growing the cache without limit.
    """
    pos = np.arange(T, dtype=np.float64)[:, None]
    i = np.arange(d_model, dtype=np.float64)[None, :]
    ang = pos / np.power(10000.0, (2.0 * (i // 2)) / d_model)
    pe = np.empty((T, d_model))
    pe[:, 0::2] = np.sin(ang[:, 0::2])
    pe[:, 1::2] = np.cos(ang[:, 1::2])
    pe = pe.astype(dtype, copy=False)
    pe.flags.writeable = False
    return pe


def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out = (B,T,i) @ (i,o) + (o,), as one flat GEMM; ``out`` is contiguous."""
    y = out.reshape(-1, w.shape[1])
    np.matmul(x.reshape(-1, x.shape[-1]), w, out=y)
    y += b


def _linear_backward(x, dy, w, dx, dw, db) -> None:
    """For y = x @ w + b, writes dL/dx into ``dx``, dL/dw into ``dw`` and
    dL/db into ``db``."""
    i, o = w.shape
    x2 = x.reshape(-1, i)
    dy2 = dy.reshape(-1, o)
    np.matmul(x2.T, dy2, out=dw)
    np.add.reduce(dy2, axis=0, out=db)
    np.matmul(dy2, w.T, out=dx.reshape(-1, i))


def erf(x, out=None):
    """scipy.special.erf; scipy.special loads on the first call.  Only the
    model's GELU needs scipy, so commands that run no model never load it."""
    from scipy.special import erf as scipy_erf

    return scipy_erf(x, out=out)


def _gelu(x, y, e, tmp) -> None:
    """GELU(x) into ``y``, keeping e = erf(x/sqrt 2) for the gradient;
    ``tmp`` is scratch."""
    np.divide(x, _SQRT2, out=e)
    erf(e, out=e)
    np.multiply(0.5, x, out=y)
    np.add(1.0, e, out=tmp)
    y *= tmp


def _gelu_grad(x, e, g, tmp) -> None:
    """dGELU/dx into ``g`` given the cached e = erf(x/sqrt 2); ``tmp`` is scratch."""
    np.multiply(x, x, out=g)
    g *= -0.5
    np.exp(g, out=g)
    g *= x
    g *= _INV_SQRT_2PI
    g += 0.5
    np.multiply(0.5, e, out=tmp)
    g += tmp


def _layernorm(x, g, b, y, xhat, istd) -> None:
    """y = g * xhat + b, keeping xhat and the inverse std for the backward.

    A row mean is ``np.add.reduce`` and a divide by the width: bitwise
    what ``np.mean`` gives, without its Python wrapper.  (For float32,
    np.mean divides in float64 and rounds; a float64 quotient rounded to
    float32 is the correctly rounded float32 quotient.)
    """
    width = x.shape[-1]
    np.add.reduce(x, axis=-1, keepdims=True, out=istd)
    istd /= width
    np.subtract(x, istd, out=xhat)
    np.multiply(xhat, xhat, out=y)
    np.add.reduce(y, axis=-1, keepdims=True, out=istd)
    istd /= width
    istd += _LN_EPS
    np.sqrt(istd, out=istd)
    np.divide(1.0, istd, out=istd)
    xhat *= istd
    np.multiply(g, xhat, out=y)
    y += b


def _layernorm_backward(dy, cache, g, dx, dg, db, tmp, stat) -> None:
    """Writes dL/dx into ``dx`` and the gain and offset gradients into
    ``dg`` and ``db``; ``tmp`` (like dy) and ``stat`` (one per row) are scratch."""
    xhat, istd = cache
    width = dy.shape[-1]
    dy2 = dy.reshape(-1, width)
    np.add.reduce(dy2, axis=0, out=db)
    np.multiply(dy, g, out=dx)
    np.multiply(dy, xhat, out=tmp)
    np.add.reduce(tmp.reshape(dy2.shape), axis=0, out=dg)
    np.multiply(dx, xhat, out=tmp)
    np.add.reduce(tmp, axis=-1, keepdims=True, out=stat)  # row means, as in _layernorm
    stat /= width
    np.multiply(xhat, stat, out=tmp)
    np.add.reduce(dx, axis=-1, keepdims=True, out=stat)
    stat /= width
    dx -= stat
    dx -= tmp
    dx *= istd


def _split_heads(x, n_heads):
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


class _Workspace:
    """Every array a forward and backward pass at one (B, T, dtype) writes.

    The forward cache has one set of buffers per block.  The backward
    temporaries are one set shared by all blocks, and the two residual
    stream buffers of the forward, which the backward never reads, carry
    the residual gradients there; so a backward leaves the cache intact.
    The backward half, with the gradient arena ``grads``, is made by the
    first backward pass, so the sampler never holds it.  ``generation``
    counts the forward passes run here, so a backward can tell a stale
    cache.
    """

    def __init__(self, cfg: ModelConfig, b: int, t: int, dtype):
        d, f, h = cfg.d_model, cfg.d_ffn, cfg.n_heads
        dh = d // h
        self.cfg, self.key = cfg, (b, t, np.dtype(dtype))
        self.generation = 0
        buf = self._buf
        self.u = buf(b, t, cfg.input_dim)
        self.z, self.z_attn = buf(b, t, d), buf(b, t, d)
        self.blocks = []
        for _ in range(cfg.n_layers):
            qkv, o = buf(b, t, 3, h, dh), buf(b, t, d)
            q, k, v = (qkv[:, :, j].transpose(0, 2, 1, 3) for j in range(3))
            self.blocks.append(
                {"y1": buf(b, t, d), "ln1c": (buf(b, t, d), buf(b, t, 1)),
                 "w_qkv": buf(d, 3 * d), "b_qkv": buf(3 * d), "qkv": qkv,
                 "q": q, "k": k, "v": v, "p": buf(b, h, t, t), "o": o,
                 "o_heads": o.reshape(b, t, h, dh).transpose(0, 2, 1, 3),
                 "y2": buf(b, t, d), "ln2c": (buf(b, t, d), buf(b, t, 1)),
                 "h1": buf(b, t, f), "erf1": buf(b, t, f), "a1": buf(b, t, f)}
            )
        self.g_out, self.lnfc = buf(b, t, d), (buf(b, t, d), buf(b, t, 1))
        self.row = buf(b, h, t, 1)  # softmax row max, sum and dot
        self.f1 = buf(b, t, f)
        self.grads: dict[str, np.ndarray] | None = None

    def _buf(self, *shape) -> np.ndarray:
        return np.empty(shape, self.key[2])

    def ensure_backward(self) -> None:
        """Make the backward temporaries and the gradient arena on first use."""
        if self.grads is not None:
            return
        cfg, (b, t, dtype) = self.cfg, self.key
        d, f, h = cfg.d_model, cfg.d_ffn, cfg.n_heads
        buf = self._buf
        self.f2 = buf(b, t, f)
        self.dy, self.tmp, self.stat = buf(b, t, d), buf(b, t, d), buf(b, t, 1)
        self.ds = buf(b, h, t, t)
        # dq|dk|dv land in one buffer laid out like the fused q|k|v output
        self.d_qkv = buf(b, t, 3, h, d // h)
        self.dq, self.dk, self.dv = (self.d_qkv[:, :, j].transpose(0, 2, 1, 3) for j in range(3))
        self.dw_qkv, self.db_qkv = buf(d, 3 * d), buf(3 * d)
        self.d_emb = buf(b * t, cfg.d_phn)
        self.grads = _arena(_param_shapes(cfg), dtype)


class VectorFieldModel:
    """The learned velocity field v(x_t, t, conditions).

    The model keeps one workspace, for the (B, T, dtype) of its latest
    forward pass; a pass at another shape replaces it.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        self._ws: _Workspace | None = None

    # -- forward -----------------------------------------------------------

    def forward_batch(self, inputs: BatchInputs, params, *, want_cache: bool = False):
        """Velocities (B, F, T) in the dtype of ``params``.

        The inputs are checked for non-finite values as given and then
        cast to the parameter dtype.  The velocities are a fresh array on
        every call.  The cache lives in the model's workspace and is valid
        until the next forward_batch call.
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

        ws = self._ws
        if ws is None or ws.key != (b, t_len, dtype):
            ws = self._ws = _Workspace(cfg, b, t_len, dtype)
        ws.generation += 1

        emb = embed_phonemes(inputs.tokens.reshape(-1), params["phn_emb"])
        emb = emb.T.reshape(b, t_len, cfg.d_phn)
        np.concatenate(
            [
                x_t.transpose(0, 2, 1),
                inputs.context.transpose(0, 2, 1),
                emb,
                inputs.nv.transpose(0, 2, 1),
                inputs.emo.transpose(0, 2, 1),
            ],
            axis=2,
            out=ws.u,
        )
        z, z_attn = ws.z, ws.z_attn
        _linear(ws.u, params["in_w"], params["in_b"], z)
        z += time_embedding(inputs.t, cfg.d_model).astype(dtype, copy=False)[:, None, :]
        if cfg.use_positional:
            z += positional_encoding(t_len, cfg.d_model, dtype)[None, :, :]

        scale = 1.0 / math.sqrt(cfg.d_model // cfg.n_heads)
        for i, blk in enumerate(ws.blocks):
            p = f"block{i}."
            _layernorm(z, params[p + "ln1_g"], params[p + "ln1_b"], blk["y1"], *blk["ln1c"])
            # one (d, 3d) GEMM for q|k|v; the checkpoint keeps three tensors
            np.concatenate([params[p + "wq"], params[p + "wk"], params[p + "wv"]], axis=1,
                           out=blk["w_qkv"])
            np.concatenate([params[p + "bq"], params[p + "bk"], params[p + "bv"]],
                           out=blk["b_qkv"])
            _linear(blk["y1"], blk["w_qkv"], blk["b_qkv"], blk["qkv"])
            attn_p = blk["p"]
            np.matmul(blk["q"], blk["k"].transpose(0, 1, 3, 2), out=attn_p)
            attn_p *= scale
            np.maximum.reduce(attn_p, axis=-1, keepdims=True, out=ws.row)
            attn_p -= ws.row
            np.exp(attn_p, out=attn_p)
            np.add.reduce(attn_p, axis=-1, keepdims=True, out=ws.row)
            attn_p /= ws.row
            np.matmul(attn_p, blk["v"], out=blk["o_heads"])
            _linear(blk["o"], params[p + "wo"], params[p + "bo"], z_attn)
            z_attn += z

            _layernorm(z_attn, params[p + "ln2_g"], params[p + "ln2_b"], blk["y2"], *blk["ln2c"])
            _linear(blk["y2"], params[p + "ffn_w1"], params[p + "ffn_b1"], blk["h1"])
            _gelu(blk["h1"], blk["a1"], blk["erf1"], ws.f1)
            _linear(blk["a1"], params[p + "ffn_w2"], params[p + "ffn_b2"], z)
            z += z_attn

        _layernorm(z, params["out_ln_g"], params["out_ln_b"], ws.g_out, *ws.lnfc)
        # fresh: callers hold velocities across calls (guidance, midpoint)
        v_out = np.empty((b, t_len, cfg.feature_dim), dtype)
        _linear(ws.g_out, params["out_w"], params["out_b"], v_out)
        out = v_out.transpose(0, 2, 1)
        if not want_cache:
            return out, None
        cache = {"workspace": ws, "generation": ws.generation, "u": ws.u,
                 "tokens": inputs.tokens, "blocks": ws.blocks, "g_out": ws.g_out,
                 "lnfc": ws.lnfc, "scale": scale}
        return out, cache

    # -- backward ----------------------------------------------------------

    def backward_batch(self, grad_out: np.ndarray, cache, params):
        """Gradients of a scalar loss w.r.t. every parameter tensor.

        ``grad_out`` is dLoss/dOutput with output shape (B, F, T);
        ``cache`` comes from the latest forward_batch(want_cache=True).
        The gradients are views of the workspace's gradient arena and
        are valid until the next backward_batch call at this shape.
        """
        if cache is None:
            raise RuntimeError("backward requires a cache from forward_batch(want_cache=True)")
        ws = cache["workspace"]
        if ws is not self._ws or cache["generation"] != ws.generation:
            raise RuntimeError(
                "stale forward cache: a later forward_batch call has overwritten it"
            )
        ws.ensure_backward()
        cfg = self.config
        d, heads = cfg.d_model, cfg.n_heads
        grads = ws.grads
        dy, dz, dz_attn = ws.dy, ws.z, ws.z_attn
        scratch = (ws.tmp, ws.stat)

        _linear_backward(cache["g_out"], grad_out.transpose(0, 2, 1), params["out_w"],
                         dy, grads["out_w"], grads["out_b"])
        _layernorm_backward(dy, cache["lnfc"], params["out_ln_g"], dz,
                            grads["out_ln_g"], grads["out_ln_b"], *scratch)

        scale = cache["scale"]
        for i in reversed(range(cfg.n_layers)):
            p = f"block{i}."
            blk = cache["blocks"][i]

            # FFN sub-block: z_next = z_attn + ffn(ln2(z_attn))
            da1, gelu_g = ws.f1, ws.f2
            _gelu_grad(blk["h1"], blk["erf1"], gelu_g, da1)
            _linear_backward(blk["a1"], dz, params[p + "ffn_w2"],
                             da1, grads[p + "ffn_w2"], grads[p + "ffn_b2"])
            da1 *= gelu_g
            _linear_backward(blk["y2"], da1, params[p + "ffn_w1"],
                             dy, grads[p + "ffn_w1"], grads[p + "ffn_b1"])
            _layernorm_backward(dy, blk["ln2c"], params[p + "ln2_g"], dz_attn,
                                grads[p + "ln2_g"], grads[p + "ln2_b"], *scratch)
            dz_attn += dz  # residual branch

            # attention sub-block: z_attn = z + attn(ln1(z))
            _linear_backward(blk["o"], dz_attn, params[p + "wo"],
                             dy, grads[p + "wo"], grads[p + "bo"])
            do_heads = _split_heads(dy, heads)
            attn_p, ds = blk["p"], ws.ds
            np.matmul(do_heads, blk["v"].transpose(0, 1, 3, 2), out=ds)  # dL/dp
            np.matmul(attn_p.transpose(0, 1, 3, 2), do_heads, out=ws.dv)
            # softmax backward: ds = p * (dp - rowdot(dp, p)), with scale folded in
            np.einsum("...i,...i->...", ds, attn_p, out=ws.row[..., 0])
            ds -= ws.row
            ds *= attn_p
            ds *= scale
            np.matmul(ds, blk["k"], out=ws.dq)
            np.matmul(ds.transpose(0, 1, 3, 2), blk["q"], out=ws.dk)
            _linear_backward(blk["y1"], ws.d_qkv, blk["w_qkv"], dy, ws.dw_qkv, ws.db_qkv)
            for j, name in enumerate("qkv"):
                grads[p + "w" + name][...] = ws.dw_qkv[:, j * d : (j + 1) * d]
                grads[p + "b" + name][...] = ws.db_qkv[j * d : (j + 1) * d]
            _layernorm_backward(dy, blk["ln1c"], params[p + "ln1_g"], dz,
                                grads[p + "ln1_g"], grads[p + "ln1_b"], *scratch)
            dz += dz_attn  # residual branch

        # input projection; of its input gradient only the phoneme-embedding
        # rows feed a parameter
        u, dz2 = cache["u"], dz.reshape(-1, d)
        np.matmul(u.reshape(-1, u.shape[-1]).T, dz2, out=grads["in_w"])
        np.add.reduce(dz2, axis=0, out=grads["in_b"])
        emb_rows = slice(2 * cfg.feature_dim, 2 * cfg.feature_dim + cfg.d_phn)
        np.matmul(dz2, params["in_w"][emb_rows].T, out=ws.d_emb)
        grads["phn_emb"].fill(0.0)
        np.add.at(grads["phn_emb"], cache["tokens"].reshape(-1), ws.d_emb)
        return dict(grads)


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


# Adam's moment decay rates and denominator floor: the published defaults.
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8
# Adam runs over the flat vectors in slices of this many elements: the
# update's two temporaries then stay in L2 and its scratch stays small.
_ADAM_SLICE = 1 << 14


@dataclass
class OptimizerState:
    """Adam moments plus the step counter driving the schedule.

    ``m`` and ``v`` are flat vectors in parameter-arena order, made on
    the first update; ``scratch`` holds the update's two temporaries.
    """

    schedule: LrSchedule
    step: int = field(default=0, init=False)
    m: np.ndarray | None = field(default=None, init=False)
    v: np.ndarray | None = field(default=None, init=False)
    scratch: np.ndarray | None = field(default=None, init=False, repr=False)


def adam_update(params, grads, state: OptimizerState) -> float:
    """Apply one Adam step in place; returns the learning rate used.

    ``params`` and ``grads`` are arena dicts (from ``init_params`` or
    ``load_checkpoint``, and from ``backward_batch``), so the update runs
    over flat vectors, a few slices per step instead of one pass per
    tensor.
    """
    p = _arena_vector(params, "params")
    g = _arena_vector(grads, "grads")
    if p.shape != g.shape or list(params) != list(grads):
        raise ValueError("params and grads must hold the same tensors in the same order")
    if state.m is None:
        state.m, state.v = np.zeros_like(p), np.zeros_like(p)
        state.scratch = np.empty((2, min(p.size, _ADAM_SLICE)), p.dtype)
    state.step += 1
    lr = state.schedule.at(state.step)
    b1, b2 = _ADAM_BETA1, _ADAM_BETA2
    bc1 = 1.0 - b1**state.step
    bc2 = 1.0 - b2**state.step
    for lo in range(0, p.size, _ADAM_SLICE):
        sl = slice(lo, lo + _ADAM_SLICE)
        ps, gs, m, v = p[sl], g[sl], state.m[sl], state.v[sl]
        step, denom = state.scratch[:, : ps.size]
        m *= b1
        np.multiply(1.0 - b1, gs, out=step)
        m += step
        v *= b2
        np.multiply(gs, gs, out=step)
        step *= 1.0 - b2
        v += step
        np.divide(m, bc1, out=step)
        step *= lr
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += _ADAM_EPS
        step /= denom
        ps -= step
    return lr


def train_step(
    model: VectorFieldModel,
    inputs: BatchInputs,
    u_target: np.ndarray,
    params,
    opt_state: OptimizerState,
) -> tuple[dict, float, float]:
    """One optimizer update on a batch and its (B, F, T) target field.

    Returns (params, pre-update batch loss, learning rate applied).  The
    loss is restricted to the masked frames of each row.
    """
    if inputs.x_t.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    if u_target.shape != inputs.x_t.shape:
        raise ValueError(f"u_target shape {u_target.shape} != x_t shape {inputs.x_t.shape}")
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
    """Read a checkpoint back; tensors are returned as views of one
    float64 arena, in ``param_names`` order."""
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
    except RecursionError:
        raise FormatError(f"bad config block in checkpoint {path}: nested too deeply") from None
    (n_tensors,) = struct.unpack("<I", take(4, "tensor count"))

    tensors: dict[str, np.ndarray] = {}
    for _ in range(n_tensors):
        (name_len,) = struct.unpack("<I", take(4, "tensor name length"))
        name = take(name_len, "tensor name").decode()
        (ndim,) = struct.unpack("<I", take(4, "tensor rank"))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, "tensor shape"))
        n_elem = int(np.prod(shape)) if ndim else 1
        raw = take(4 * n_elem, f"tensor {name} payload")
        arr = np.frombuffer(raw, dtype="<f4").reshape(shape)
        if not np.isfinite(arr).all():
            raise FormatError(f"non-finite values in tensor {name} of {path}")
        tensors[name] = arr
    if off != len(blob):
        raise FormatError(f"trailing bytes after tensors in {path}")

    shapes = _param_shapes(cfg)
    if tensors.keys() != shapes.keys():
        missing = shapes.keys() - tensors.keys()
        extra = tensors.keys() - shapes.keys()
        raise FormatError(
            f"checkpoint {path} tensor names mismatch config: "
            f"missing={sorted(missing)} extra={sorted(extra)}"
        )
    for name, shape in shapes.items():
        if tensors[name].shape != shape:
            raise FormatError(
                f"checkpoint {path} tensor {name} has shape {tensors[name].shape}, "
                f"config expects {shape}"
            )
    params = _arena(shapes)
    for name, arr in params.items():
        arr[...] = tensors[name]
    return cfg, params
