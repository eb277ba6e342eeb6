"""Parametric time-dependent vector field over frame sequences.

A small pre-norm attention network regresses the transport velocity from
the noisy state, the visible context, and the frame-aligned condition
streams.  Forward, backward, and the optimizer are written directly in
numpy so every gradient can be checked against finite differences.
The kernels compute in the dtype of the parameters they are given.
Both the sampling field and training compute in ``FIELD_DTYPE``
(float32): ``make_field_fn`` casts the parameters once, and
``train_step`` runs the forward, loss and backward on a float32 copy of
the float64 master weights, which Adam updates in float64 (mixed
precision, Micikevicius et al., arXiv:1710.03740).  The gradient checks
run the same kernels in float64.  The module needs numpy alone: the
GELU's ``erf`` is a numpy rational approximation in float32 and libm's
``math.erf`` in float64.

Reductions: a row sum (the layernorm mean and variance, the two row
means of its backward, the softmax denominator) is one ``np.einsum`` over
the last axis, and a column sum (the bias and gain gradients) is one GEMV
against a cached vector of ones.  Row sums stay off BLAS: OpenBLAS sums a
row of a GEMV in an order that depends on how many rows share the call,
so a row's output would depend on the other rows of its batch.  With
einsum it does not: each row of a forward is bitwise a forward of that
row alone.

Input fusion: [x_t; context; phoneme-embedding; nv; emo] are concatenated
per frame, projected to the model width, and sinusoidal codes of the
path time t and of the frame position are added.

Memory layout: a training step allocates no large array, and a sampling
request prepares its prompt once.
- Arena: ``init_params`` and ``load_checkpoint`` return a name -> array
  dict whose arrays are views of one contiguous float64 vector, in
  ``param_names`` (checkpoint) order.  ``backward_batch`` writes the
  gradients into a second arena of the same layout, in the parameters'
  dtype.  The Adam moments and ``train_step``'s float32 compute copy are
  flat vectors of that layout too, so refreshing the copy is one
  ``np.copyto`` and ``adam_update`` runs over the whole model in a few
  slices instead of once per tensor.
- Input stage: a forward pass reads a prepared prompt (``_Prompt``):
  the input matrix ``u`` with every column but x_t's filled (context,
  phoneme embedding, nv, emo, each checked finite) and each block's fused
  q|k|v weights.  The pass itself checks x_t, writes its columns of
  ``u`` and adds the time code.  Training prepares every batch inline,
  into the workspace.  ``make_field_fn``'s field prepares each batch it
  is handed once, into buffers of its own, so a guided request prepares
  two prompts, not one per evaluation.  ``u`` and the input GEMM are the
  same either way, and so are the output bytes.
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
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .infill import BatchInputs, NV_DIM, EMO_DIM
from .features import FRAME_RATE, FormatError, _read_file, _write_file

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
    n_phonemes: int = 16
    feature_dim: int = 8
    # Constants, kept as fields so that the checkpoint's config block records them.
    d_nv: int = field(default=NV_DIM, init=False)
    d_emo: int = field(default=EMO_DIM, init=False)
    frames_per_second: float = field(default=FRAME_RATE, init=False)
    use_positional: bool = field(default=True, init=False)

    def __post_init__(self):
        for f in fields(self):  # every settable field is a count
            if f.init and getattr(self, f.name) <= 0:
                raise ValueError(f"{f.name} must be positive, got {getattr(self, f.name)}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )

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


@functools.lru_cache(maxsize=32)
def _ones(n: int, dtype) -> np.ndarray:
    """n ones in ``dtype``, cached per length and read-only: a column sum is
    one GEMV against it."""
    ones = np.ones(n, dtype)
    ones.flags.writeable = False
    return ones


def _col_sum(a2: np.ndarray, out: np.ndarray) -> None:
    """Column sums of the 2-D ``a2`` into ``out``, as one GEMV."""
    np.matmul(_ones(a2.shape[0], a2.dtype), a2, out=out)


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
    _col_sum(dy2, db)
    np.matmul(dy2, w.T, out=dx.reshape(-1, i))


# erf(x) = x P(x^2) / Q(x^2) for float32 on x clamped to [-4, 4], where
# float32 erf has rounded to +-1.  The coefficients are Eigen's and XLA's
# float32 erf (highest degree first); max abs error 4.5e-7 over [-6, 6].
_ERF32_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
            -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
            -1.60960333262415e-02)
_ERF32_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
            -7.37332916720468e-03, -1.42647390514189e-02)


# Python's math.erf (libm) as an object ufunc; erf casts its results to float64.
_ERF64 = np.frompyfunc(math.erf, 1, 1)


def erf(x, out=None, *, scratch=None):
    """The error function, in float32 for float32 input, else in float64.

    float32 input takes an odd rational approximation in numpy (no
    ``exp``; exactly odd, erf(+-inf) = +-1, NaN stays NaN).  Anything
    else is converted to float64 and goes element by element through
    libm's ``math.erf``: slow, but only the float64 gradient checks run
    it.  ``scratch`` is two float32 buffers
    of ``x``'s shape for the float32 path's temporaries; it changes no
    result.
    """
    if np.asarray(x).dtype != np.float32:
        x = np.asarray(x, dtype=np.float64)
        if out is None:
            out = np.empty_like(x)
        return _ERF64(x, out=out, casting="unsafe")
    if out is None:
        out = np.empty_like(x)
    x2, p = scratch if scratch is not None else (np.empty_like(x), np.empty_like(x))
    np.clip(x, -4.0, 4.0, out=out)
    np.multiply(out, out, out=x2)
    np.multiply(x2, _ERF32_P[0], out=p)
    p += _ERF32_P[1]
    for c in _ERF32_P[2:]:
        p *= x2
        p += c
    p *= out
    np.multiply(x2, _ERF32_Q[0], out=out)
    out += _ERF32_Q[1]
    for c in _ERF32_Q[2:]:
        out *= x2
        out += c
    return np.divide(p, out, out=out)


def _gelu(x, y, phi, tmp) -> None:
    """GELU(x) = x * phi into ``y``, keeping the gate phi = (1 + erf(x/sqrt 2))
    * 0.5, the normal CDF, in ``phi`` for the gradient.  ``y`` and ``tmp``
    are erf's scratch before ``y`` takes its value, so the float32 path
    allocates nothing.  The halving is exact, so y has the bits of
    0.5 * x * (1 + erf)."""
    np.divide(x, _SQRT2, out=phi)
    erf(phi, out=phi, scratch=(y, tmp))
    phi += 1.0
    phi *= 0.5
    np.multiply(x, phi, out=y)


def _gelu_grad(x, phi, g) -> None:
    """dGELU/dx = x * pdf(x) + phi into ``g``, given the cached gate phi."""
    np.multiply(x, x, out=g)
    g *= -0.5
    np.exp(g, out=g)
    g *= x
    g *= _INV_SQRT_2PI
    g += phi


def _layernorm(x, g, b, y, xhat, istd) -> None:
    """y = g * xhat + b, keeping xhat and the inverse std for the backward.

    A row mean is an ``np.einsum`` row sum and a divide by the width; the
    variance sums the row's squares in the same einsum, without writing
    them out.
    """
    width = x.shape[-1]
    rows = istd[..., 0]
    np.einsum("...i->...", x, out=rows)
    istd /= width
    np.subtract(x, istd, out=xhat)
    np.einsum("...i,...i->...", xhat, xhat, out=rows)
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
    _col_sum(dy2, db)
    np.multiply(dy, xhat, out=tmp)
    _col_sum(tmp.reshape(dy2.shape), dg)
    np.multiply(dy, g, out=dx)
    rows = stat[..., 0]  # row means, as in _layernorm
    np.einsum("...i,...i->...", dx, xhat, out=rows)
    stat /= width
    np.multiply(xhat, stat, out=tmp)
    np.einsum("...i->...", dx, out=rows)
    stat /= width
    dx -= stat
    dx -= tmp
    dx *= istd


def _split_heads(x, n_heads):
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _prompt_buffers(cfg: ModelConfig, b: int, t: int, dtype):
    """The input matrix ``u`` and the per-block fused (w_qkv, b_qkv) a
    ``_Prompt`` fills, for B rows of T frames in ``dtype``."""
    d = cfg.d_model
    u = np.empty((b, t, cfg.input_dim), dtype)
    return u, [(np.empty((d, 3 * d), dtype), np.empty(3 * d, dtype)) for _ in range(cfg.n_layers)]


class _Prompt:
    """The input stage of a forward pass, run once for a batch and a parameter dict.

    It checks the batch's context, nv and emo for non-finite values, looks
    up its phonemes, fills every column of the input matrix ``u``
    (B, T, input_dim) but x_t's, and fuses each block's q|k|v weights and
    biases into ``qkv`` (one (d, 3d) GEMM; the checkpoint keeps three
    tensors).  ``forward_batch`` reads ``x_t`` and ``t`` from it, checks
    x_t and writes its columns of ``u``; a caller that evaluates the same
    conditions again sets only those two.
    """

    __slots__ = ("x_t", "t", "tokens", "u", "qkv", "params")

    def __init__(self, cfg: ModelConfig, inputs: BatchInputs, params, u, qkv):
        b, f, t_len = inputs.context.shape
        if f != cfg.feature_dim:
            raise ValueError(f"feature dim {f} != configured {cfg.feature_dim}")
        for arr in (inputs.nv, inputs.emo, inputs.context):
            if not np.isfinite(arr).all():
                raise FloatingPointError("non-finite value in model input")
        emb = embed_phonemes(inputs.tokens.reshape(-1), params["phn_emb"])
        np.concatenate(
            [
                inputs.context.transpose(0, 2, 1),
                emb.T.reshape(b, t_len, cfg.d_phn),
                inputs.nv.transpose(0, 2, 1),
                inputs.emo.transpose(0, 2, 1),
            ],
            axis=2,
            out=u[:, :, f:],
        )
        for i, (w_qkv, b_qkv) in enumerate(qkv):
            p = f"block{i}."
            np.concatenate([params[p + "wq"], params[p + "wk"], params[p + "wv"]], axis=1,
                           out=w_qkv)
            np.concatenate([params[p + "bq"], params[p + "bk"], params[p + "bv"]], out=b_qkv)
        self.x_t, self.t, self.tokens = inputs.x_t, inputs.t, inputs.tokens
        self.u, self.qkv, self.params = u, qkv, params


class _Workspace:
    """Every array a forward and backward pass at one (B, T, dtype) writes.

    The forward cache has one set of buffers per block, and the input
    buffers of the ``_Prompt`` a training forward prepares.  The backward
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
        self.u, self.qkv = _prompt_buffers(cfg, b, t, dtype)
        self.z, self.z_attn = buf(b, t, d), buf(b, t, d)
        self.blocks = []
        for _ in range(cfg.n_layers):
            qkv, o = buf(b, t, 3, h, dh), buf(b, t, d)
            q, k, v = (qkv[:, :, j].transpose(0, 2, 1, 3) for j in range(3))
            self.blocks.append(
                {"y1": buf(b, t, d), "ln1c": (buf(b, t, d), buf(b, t, 1)),
                 "qkv": qkv,
                 "q": q, "k": k, "v": v, "p": buf(b, h, t, t), "o": o,
                 "o_heads": o.reshape(b, t, h, dh).transpose(0, 2, 1, 3),
                 "y2": buf(b, t, d), "ln2c": (buf(b, t, d), buf(b, t, 1)),
                 # erf1 keeps the GELU gate (1 + erf(h1/sqrt 2)) * 0.5
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

    def forward_batch(self, inputs: BatchInputs | _Prompt, params):
        """``(velocities, cache)``: velocities (B, F, T) in the dtype of ``params``.

        ``inputs`` is a ``BatchInputs``, whose input stage runs here into
        the workspace, or a ``_Prompt`` prepared for this ``params`` dict,
        of which the pass reads x_t and t.  The inputs are checked for
        non-finite values as given and then cast to the parameter dtype.
        The velocities are a fresh array on every call.  The cache refers
        to the model's workspace and the prompt's input buffers, and is
        valid until the next forward_batch call.
        """
        cfg = self.config
        dtype = params["in_w"].dtype
        x_t = inputs.x_t
        b, f, t_len = x_t.shape
        if f != cfg.feature_dim:
            raise ValueError(f"feature dim {f} != configured {cfg.feature_dim}")
        if not np.isfinite(x_t).all():
            raise FloatingPointError("non-finite value in model input")

        ws = self._ws
        if ws is None or ws.key != (b, t_len, dtype):
            ws = _Workspace(cfg, b, t_len, dtype)

        if isinstance(inputs, _Prompt):
            prompt = inputs
            if prompt.params is not params:
                raise ValueError("the prompt was prepared for another parameter dict")
            if prompt.u.shape[:2] != (b, t_len):
                raise ValueError(f"x_t shape {x_t.shape} does not match the prompt's "
                                 f"{prompt.u.shape[0]} rows of {prompt.u.shape[1]} frames")
        else:
            prompt = _Prompt(cfg, inputs, params, ws.u, ws.qkv)
        # Inputs that fail a check leave the previous forward's cache valid.
        self._ws = ws
        ws.generation += 1
        prompt.u[:, :, :f] = x_t.transpose(0, 2, 1)
        z, z_attn = ws.z, ws.z_attn
        _linear(prompt.u, params["in_w"], params["in_b"], z)
        z += time_embedding(prompt.t, cfg.d_model).astype(dtype, copy=False)[:, None, :]
        z += positional_encoding(t_len, cfg.d_model, dtype)[None, :, :]

        scale = 1.0 / math.sqrt(cfg.d_model // cfg.n_heads)
        for i, blk in enumerate(ws.blocks):
            p = f"block{i}."
            _layernorm(z, params[p + "ln1_g"], params[p + "ln1_b"], blk["y1"], *blk["ln1c"])
            _linear(blk["y1"], *prompt.qkv[i], blk["qkv"])
            attn_p = blk["p"]
            np.matmul(blk["q"], blk["k"].transpose(0, 1, 3, 2), out=attn_p)
            attn_p *= scale
            # fmax gives max's bits on a row without NaN, faster; a NaN
            # score still turns its whole row NaN at the exp and the sum
            np.fmax.reduce(attn_p, axis=-1, keepdims=True, out=ws.row)
            attn_p -= ws.row
            np.exp(attn_p, out=attn_p)
            np.einsum("...i->...", attn_p, out=ws.row[..., 0])
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
        # fresh: callers hold velocities across calls (guidance)
        v_out = np.empty((b, t_len, cfg.feature_dim), dtype)
        _linear(ws.g_out, params["out_w"], params["out_b"], v_out)
        cache = {"workspace": ws, "generation": ws.generation, "u": prompt.u,
                 "tokens": prompt.tokens, "qkv": prompt.qkv, "blocks": ws.blocks,
                 "g_out": ws.g_out, "lnfc": ws.lnfc, "scale": scale}
        return v_out.transpose(0, 2, 1), cache

    # -- backward ----------------------------------------------------------

    def backward_batch(self, grad_out: np.ndarray, cache, params):
        """Gradients of a scalar loss w.r.t. every parameter tensor.

        ``grad_out`` is dLoss/dOutput with output shape (B, F, T);
        ``cache`` comes from the latest forward_batch.
        The gradients are views of the workspace's gradient arena and
        are valid until the next backward_batch call at this shape.
        """
        if cache is None:
            raise RuntimeError("backward requires a cache from forward_batch")
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
            _gelu_grad(blk["h1"], blk["erf1"], gelu_g)
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
            _linear_backward(blk["y1"], ws.d_qkv, cache["qkv"][i][0], dy, ws.dw_qkv, ws.db_qkv)
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
        _col_sum(dz2, grads["in_b"])
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
    is rejected since it leaves nothing to score.  Both are computed in
    the dtype of ``v_pred``, so a float32 forward gets a float32 gradient.
    """
    dtype = v_pred.dtype
    diff = v_pred - u_target.astype(dtype, copy=False)
    sel = mask_bits.astype(dtype, copy=False)[:, None, :]
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


# Precision of every forward and backward pass outside the gradient checks:
# the sampling field and training's compute copy.  Checkpoints store
# float32, so a float64 forward would buy the sampler nothing but time,
# and float32 halves a training step's cost.
FIELD_DTYPE = np.float32

# Adam's moment decay rates and denominator floor: the published defaults.
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8
# Adam runs over the flat vectors in slices of this many elements: the
# update's two temporaries then stay in L2 and its scratch stays small.
_ADAM_SLICE = 1 << 14


@dataclass
class OptimizerState:
    """Adam moments plus the step counter driving the schedule.

    ``m`` and ``v`` are flat vectors in parameter-arena order, made on
    the first update; ``scratch`` holds the update's three temporaries.
    ``compute`` is ``train_step``'s ``FIELD_DTYPE`` copy of the parameter
    arena, made on its first step and refreshed from the master before
    every step.
    """

    schedule: LrSchedule
    step: int = field(default=0, init=False)
    m: np.ndarray | None = field(default=None, init=False)
    v: np.ndarray | None = field(default=None, init=False)
    scratch: np.ndarray | None = field(default=None, init=False, repr=False)
    compute: dict[str, np.ndarray] | None = field(default=None, init=False, repr=False)


def adam_update(params, grads, state: OptimizerState) -> float:
    """Apply one Adam step in place; returns the learning rate used.

    ``params`` and ``grads`` are arena dicts (from ``init_params`` or
    ``load_checkpoint``, and from ``backward_batch``), so the update runs
    over flat vectors, a few slices per step instead of one pass per
    tensor.  The moments and the update are computed in the dtype of
    ``params``, whatever the dtype of ``grads``.  The update takes Kingma &
    Ba's efficient form (arXiv:1412.6980, section 2): the bias corrections
    fold into the step size, lr * sqrt(1 - b2^t) / (1 - b1^t), and the
    floor, eps * sqrt(1 - b2^t), so an element costs one sqrt and one
    divide.  It is algebraically the same update.
    """
    p = _arena_vector(params, "params")
    g = _arena_vector(grads, "grads")
    if p.shape != g.shape or list(params) != list(grads):
        raise ValueError("params and grads must hold the same tensors in the same order")
    if state.m is None:
        state.m, state.v = np.zeros_like(p), np.zeros_like(p)
        state.scratch = np.empty((3, min(p.size, _ADAM_SLICE)), p.dtype)
    state.step += 1
    lr = state.schedule.at(state.step)
    b1, b2 = _ADAM_BETA1, _ADAM_BETA2
    root_bc2 = math.sqrt(1.0 - b2**state.step)
    alpha = lr * root_bc2 / (1.0 - b1**state.step)
    eps_hat = _ADAM_EPS * root_bc2
    for lo in range(0, p.size, _ADAM_SLICE):
        sl = slice(lo, lo + _ADAM_SLICE)
        ps, gs, m, v = p[sl], g[sl], state.m[sl], state.v[sl]
        wide, step, denom = state.scratch[:, : ps.size]
        # A float32 gradient is widened once, and every product below is
        # one of float64 operands.
        np.copyto(wide, gs)
        m *= b1
        np.multiply(wide, 1.0 - b1, out=step)
        m += step
        v *= b2
        wide *= wide
        wide *= 1.0 - b2
        v += wide
        np.sqrt(v, out=denom)
        denom += eps_hat
        np.multiply(m, alpha, out=step)
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
    loss is restricted to the masked frames of each row.  ``params`` is
    the master arena; the forward, loss and backward run on its
    ``FIELD_DTYPE`` copy in ``opt_state``, and Adam updates the master.
    A master value that overflows that dtype ends the run like a
    non-finite loss.  numpy's overflow and invalid-value warnings are
    silenced for the step: a diverging run is reported by those two
    checks, or at the next step or ``save_checkpoint``, as one error.
    """
    if inputs.x_t.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    if u_target.shape != inputs.x_t.shape:
        raise ValueError(f"u_target shape {u_target.shape} != x_t shape {inputs.x_t.shape}")
    master = _arena_vector(params, "params")
    if opt_state.compute is None:
        opt_state.compute = _arena({k: a.shape for k, a in params.items()}, FIELD_DTYPE)
    compute = opt_state.compute
    copy = _arena_vector(compute, "compute")
    with np.errstate(over="ignore", invalid="ignore"):
        np.copyto(copy, master)
        if not np.isfinite(copy).all():
            raise TrainingDivergedError(
                f"a parameter is not finite in {copy.dtype} at optimizer step {opt_state.step + 1}"
            )
        v_pred, cache = model.forward_batch(inputs, compute)
        loss, dv = masked_batch_loss_grad(v_pred, u_target, inputs.mask_bits)
        if not np.isfinite(loss):
            raise TrainingDivergedError(
                f"non-finite loss at optimizer step {opt_state.step + 1}"
            )
        grads = model.backward_batch(dv, cache, compute)
        lr = adam_update(params, grads, opt_state)
    return params, loss, lr


def make_field_fn(model: VectorFieldModel, params):
    """Adapt the model to the sampler's field interface: BatchInputs -> velocities.

    The parameters are cast to ``FIELD_DTYPE`` once, here, so every field
    evaluation runs a float32 forward and returns float32 velocities;
    the caller's parameters are left as they are.

    The field runs the input stage (``_Prompt``) once for each batch it is
    handed; each evaluation after that checks and writes only x_t and the
    time code, in one ``forward_batch`` call.  It holds the two batches it
    saw last (a guided request's conditional and blanked batch) by
    reference, so a recycled ``id()`` cannot match a stale prompt, and it
    prepares again for any other batch object, or for a batch whose
    tokens, nv, emo or context array was replaced.

    Contract: a batch's condition streams (tokens, nv, emo, context)
    must not be written in place after the field first sees that batch,
    since the field would go on using the values it prepared.
    ``integrate_batch`` blanks its unconditional batch before the first
    call and never writes a stream after.
    """
    params = {name: arr.astype(FIELD_DTYPE) for name, arr in params.items()}
    cfg = model.config
    prepared: list[tuple[BatchInputs, tuple, _Prompt]] = []  # the latest last

    def field(inputs: BatchInputs) -> np.ndarray:
        streams = (inputs.tokens, inputs.nv, inputs.emo, inputs.context)
        for batch, held, prompt in prepared:
            if batch is inputs and all(a is b for a, b in zip(held, streams)):
                break
        else:
            b, _, t_len = inputs.context.shape
            buffers = _prompt_buffers(cfg, b, t_len, FIELD_DTYPE)
            prompt = _Prompt(cfg, inputs, params, *buffers)
            prepared.append((inputs, streams, prompt))
            del prepared[:-2]
        prompt.x_t, prompt.t = inputs.x_t, inputs.t
        return model.forward_batch(prompt, params)[0]

    return field


# -- checkpoint I/O -------------------------------------------------------


def save_checkpoint(path: str | Path, cfg: ModelConfig, params) -> None:
    """Write config and tensors: magic, version, JSON config block, then
    length-prefixed named tensors as little-endian float32.

    A tensor that is not finite in float32 (such as a float64 value past
    float32's range) raises ``ValueError`` before anything is written,
    since ``load_checkpoint`` would reject the file.
    """
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
        with np.errstate(over="ignore"):  # an overflow is reported below
            arr = np.ascontiguousarray(params[name], dtype="<f4")
        if not np.isfinite(arr).all():
            raise ValueError(f"tensor {name} is not finite in float32; {path} not written")
        nb = name.encode()
        parts.append(struct.pack("<I", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.tobytes())
    _write_file(path, b"".join(parts))


def load_checkpoint(path: str | Path, blob: bytes | None = None
                    ) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    """Read a checkpoint back; tensors are returned as views of one
    float64 arena, in ``param_names`` order.  ``blob``, when given, is the
    file's bytes as the caller already read them; ``path`` then only names
    the file in errors."""
    if blob is None:
        blob = _read_file(path)
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
        raw = json.loads(cfg_block)
        if not isinstance(raw, dict):
            raise ValueError("not a JSON object")
        for f in fields(ModelConfig):
            if not f.init:  # a constant: absent, or its value with its JSON type
                got = raw.pop(f.name, f.default)
                if type(got) is not type(f.default) or got != f.default:
                    raise ValueError(f"{f.name} must be {json.dumps(f.default)}")
        cfg = ModelConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad config block in checkpoint {path}: {exc}") from exc
    except RecursionError:
        raise FormatError(f"bad config block in checkpoint {path}: nested too deeply") from None
    (n_tensors,) = struct.unpack("<I", take(4, "tensor count"))

    tensors: dict[str, np.ndarray] = {}
    for index in range(n_tensors):
        (name_len,) = struct.unpack("<I", take(4, "tensor name length"))
        raw_name = take(name_len, "tensor name")
        try:
            name = raw_name.decode()
        except UnicodeDecodeError:
            name = None
        if name is None or not name.isprintable():  # errors quote it on one line
            raise FormatError(f"tensor {index} of checkpoint {path} has a name that is "
                              "not printable UTF-8")
        (ndim,) = struct.unpack("<I", take(4, "tensor rank"))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, "tensor shape"))
        raw = take(4 * math.prod(shape), f"tensor {name} payload")  # exact: no int64 wrap
        try:
            arr = np.frombuffer(raw, dtype="<f4").reshape(shape)
        except ValueError:  # no payload, but other dimensions past numpy's size limit
            raise FormatError(f"tensor {name} of {path} has impossible shape {shape}") from None
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
