import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from flowcond import (
    BatchInputs,
    LrSchedule,
    ModelConfig,
    OptimizerState,
    TrainingDivergedError,
    VectorFieldModel,
    embed_phonemes,
    init_params,
    load_checkpoint,
    make_field_fn,
    save_checkpoint,
    train_step,
)
from flowcond import seqmodel
from flowcond.fm_core import on_path_field, sample_conditional_path
from flowcond.seqmodel import (
    PRESETS,
    _param_shapes,
    masked_batch_loss_grad,
    param_names,
    positional_encoding,
)

# The float64 yardstick for erf: libm itself, not reached through seqmodel.erf.
libm_erf = np.vectorize(math.erf, otypes=[np.float64])

SMALL = ModelConfig(
    n_layers=2, n_heads=2, d_model=16, d_ffn=24, d_phn=4, n_phonemes=6, feature_dim=3
)


def make_cond(T, F, rng, cfg=SMALL):
    """One example's condition streams and context, by field name."""
    bits = np.zeros(T)
    bits[T // 3 : T // 3 + max(1, T // 2)] = 1.0
    return dict(
        tokens=rng.integers(0, cfg.n_phonemes, T),
        nv=rng.standard_normal((32, T)) * 0.3,
        emo=rng.uniform(-0.5, 0.5, (2, T)),
        context=rng.standard_normal((F, T)),
        mask_bits=bits,
    )


def stack_examples(x_t, t, conds):
    """The batch of the given states, times and ``make_cond`` streams."""
    return BatchInputs(x_t=np.stack(x_t), t=np.asarray(t, dtype=np.float64),
                       **{k: np.stack([c[k] for c in conds]) for k in conds[0]})


def forward_one(model, x_t, t, cond, params):
    """Model output for a single example, shaped like x_t."""
    out, _ = model.forward_batch(stack_examples([x_t], [t], [cond]), params)
    return out[0]


def make_batch(B, T, cfg, rng):
    F = cfg.feature_dim
    conds = [make_cond(T, F, rng, cfg) for _ in range(B)]
    x_t = [rng.standard_normal((F, T)) for _ in range(B)]
    ts = list(rng.uniform(0, 1, B))
    return stack_examples(x_t, ts, conds), conds


# -- config and embedding ------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(d_model=10, n_heads=3)
    with pytest.raises(ValueError):
        ModelConfig(n_layers=0)
    # Constants of the model, not settings: no caller can pass them.
    for name, value in (("d_nv", 16), ("d_emo", 3), ("use_positional", False),
                        ("frames_per_second", 50.0)):
        with pytest.raises(TypeError, match=name):
            ModelConfig(**{name: value})


def test_embed_same_token_same_column():
    table = np.random.default_rng(0).standard_normal((6, 4))
    out = embed_phonemes(np.array([2, 2, 2]), table)
    assert out.shape == (4, 3)
    assert np.array_equal(out[:, 0], out[:, 1])
    assert np.array_equal(out[:, 0], table[2])


def test_embed_empty_sequence():
    table = np.zeros((6, 4))
    out = embed_phonemes(np.zeros(0, dtype=np.int64), table)
    assert out.shape == (4, 0)


def test_embed_one_hot_table_gives_basis_vectors():
    table = np.eye(6)
    out = embed_phonemes(np.array([3]), table)
    expected = np.zeros(6)
    expected[3] = 1.0
    assert np.array_equal(out[:, 0], expected)


def test_embed_out_of_vocab():
    table = np.zeros((6, 4))
    with pytest.raises(IndexError):
        embed_phonemes(np.array([6]), table)
    with pytest.raises(IndexError):
        embed_phonemes(np.array([-1]), table)


# -- forward -------------------------------------------------------------------


def test_forward_deterministic_and_shaped():
    rng = np.random.default_rng(1)
    model = VectorFieldModel(SMALL)
    params = init_params(SMALL, rng, zero_output=False)
    cond = make_cond(7, 3, rng)
    x_t = rng.standard_normal((3, 7))
    a = forward_one(model, x_t, 0.4, cond, params)
    b = forward_one(model, x_t, 0.4, cond, params)
    assert a.shape == (3, 7)
    assert np.array_equal(a, b)
    assert np.isfinite(a).all()


def test_forward_output_shape_tracks_length():
    rng = np.random.default_rng(2)
    model = VectorFieldModel(SMALL)
    params = init_params(SMALL, rng, zero_output=False)
    for T in (1, 2, 5, 13):
        cond = make_cond(T, 3, rng)
        out = forward_one(model, rng.standard_normal((3, T)), 0.5, cond, params)
        assert out.shape == (3, T)


def test_forward_zero_output_projection_gives_zero_field():
    rng = np.random.default_rng(3)
    model = VectorFieldModel(SMALL)
    params = init_params(SMALL, rng, zero_output=True)
    cond = make_cond(6, 3, rng)
    out = forward_one(model, rng.standard_normal((3, 6)), 0.7, cond, params)
    assert np.all(out == 0.0)


def test_positional_encoding_cached_read_only():
    pe = positional_encoding(9, 16)
    assert positional_encoding(9, 16) is pe
    assert not pe.flags.writeable
    with pytest.raises(ValueError):
        pe[0, 0] = 1.0
    assert np.array_equal(pe, positional_encoding.__wrapped__(9, 16))
    assert pe[3, 0] == np.sin(3.0) and pe[3, 1] == np.cos(3.0)


def test_forward_rejects_nonfinite_input():
    rng = np.random.default_rng(4)
    model = VectorFieldModel(SMALL)
    params = init_params(SMALL, rng)
    cond = make_cond(5, 3, rng)
    x = rng.standard_normal((3, 5))
    x[0, 0] = np.nan
    with pytest.raises(FloatingPointError):
        forward_one(model, x, 0.5, cond, params)


@pytest.mark.parametrize("via", ["batch", "prompt"])
@pytest.mark.parametrize("t, error, message", [
    ([0.5, np.nan], FloatingPointError, "^non-finite value in model input$"),
    ([-np.inf, 0.5], FloatingPointError, "^non-finite value in model input$"),
    (0.5, ValueError, r"^t must have shape \(2,\), got \(\)$"),
    ([0.5, 0.5, 0.5], ValueError, r"^t must have shape \(2,\), got \(3,\)$"),
], ids=["nan", "inf", "0-d", "too-long"])
def test_forward_checks_t_where_it_checks_x_t(t, error, message, via):
    # A NaN time would give its row NaN velocities, and a 0-d time would
    # be broadcast over the rows by the time code.
    rng = np.random.default_rng(4)
    model = VectorFieldModel(SMALL)
    params = init_params(SMALL, rng)
    inputs, _ = make_batch(2, 5, SMALL, rng)
    t = np.array(t)
    with pytest.raises(error, match=message):
        if via == "batch":
            inputs.t = t
            model.forward_batch(inputs, params)
        else:
            make_field_fn(model, params)(inputs)(inputs.x_t, t)


def test_forward_permutation_equivariant_without_positions(monkeypatch):
    # With a zero position code, attention sees the frames as a set.
    monkeypatch.setattr(seqmodel, "positional_encoding",
                        lambda T, d_model, dtype: np.zeros((T, d_model), dtype))
    rng = np.random.default_rng(5)
    model = VectorFieldModel(SMALL)
    params = init_params(SMALL, rng, zero_output=False)
    T = 9
    cond = make_cond(T, 3, rng)
    x_t = rng.standard_normal((3, T))
    out = forward_one(model, x_t, 0.3, cond, params)

    perm = rng.permutation(T)
    cond_p = {k: v[..., perm] for k, v in cond.items()}
    out_p = forward_one(model, x_t[:, perm], 0.3, cond_p, params)
    assert np.allclose(out_p, out[:, perm], atol=1e-12)


def test_forward_sensitive_to_emo_stream():
    rng = np.random.default_rng(6)
    model = VectorFieldModel(SMALL)
    params = init_params(SMALL, rng, zero_output=False)
    cond = make_cond(6, 3, rng)
    x_t = rng.standard_normal((3, 6))
    base = forward_one(model, x_t, 0.5, cond, params)
    bumped = {**cond, "emo": np.clip(cond["emo"] + 0.2, -0.5, 0.5)}
    out = forward_one(model, x_t, 0.5, bumped, params)
    assert np.max(np.abs(out - base)) > 0.0


# -- backward ------------------------------------------------------------------


def fd_check(model, params, inputs, u_target, names, coords_per_tensor, rng, h=1e-4):
    """Central-difference oracle; returns the worst relative error per tensor
    and the hand gradients it checked."""

    def loss_fn():
        v, _ = model.forward_batch(inputs, params)
        loss, _ = masked_batch_loss_grad(v, u_target, inputs.mask_bits)
        return loss

    v, cache = model.forward_batch(inputs, params)
    _, dv = masked_batch_loss_grad(v, u_target, inputs.mask_bits)
    grads = model.backward_batch(dv, cache, params)

    worst = {}
    for name in names:
        g = grads[name]
        errs = []
        for _ in range(coords_per_tensor):
            idx = tuple(int(rng.integers(0, s)) for s in g.shape)
            orig = params[name][idx]
            params[name][idx] = orig + h
            lp = loss_fn()
            params[name][idx] = orig - h
            lm = loss_fn()
            params[name][idx] = orig
            fd = (lp - lm) / (2 * h)
            errs.append(abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-6))
        worst[name] = max(errs)
    return worst, grads


# Four heads: a head-axis vs q/k/v-axis mix-up in the fused attention
# buffers cannot hide behind a symmetric layout.
FOUR_HEADS = ModelConfig(
    n_layers=2, n_heads=4, d_model=16, d_ffn=24, d_phn=4, n_phonemes=6, feature_dim=3,
)


@pytest.mark.parametrize("cfg, T", [(SMALL, 5), (FOUR_HEADS, 7)], ids=["2heads", "4heads"])
def test_gradients_match_finite_differences(cfg, T):
    rng = np.random.default_rng(7)
    model = VectorFieldModel(cfg)
    params = init_params(cfg, rng, zero_output=False)
    inputs, _ = make_batch(2, T, cfg, rng)
    u_target = rng.standard_normal((2, cfg.feature_dim, T))
    worst, grads = fd_check(
        model, params, inputs, u_target, param_names(cfg), 3, np.random.default_rng(0)
    )
    assert {k: g.shape for k, g in grads.items()} == _param_shapes(cfg)
    bad = {k: v for k, v in worst.items() if v > 1e-4}
    assert not bad, f"gradient mismatch: {bad}"


def test_backward_zero_loss_grad_gives_zero_grads():
    rng = np.random.default_rng(8)
    model = VectorFieldModel(SMALL)
    params = init_params(SMALL, rng, zero_output=False)
    inputs, _ = make_batch(2, 4, SMALL, rng)
    _, cache = model.forward_batch(inputs, params)
    grads = model.backward_batch(np.zeros((2, 3, 4)), cache, params)
    for g in grads.values():
        assert np.all(g == 0.0)


def test_gradient_of_loss_at_minimum_is_zero():
    rng = np.random.default_rng(9)
    model = VectorFieldModel(SMALL)
    params = init_params(SMALL, rng, zero_output=False)
    inputs, _ = make_batch(2, 4, SMALL, rng)
    v, cache = model.forward_batch(inputs, params)
    loss, dv = masked_batch_loss_grad(v, v.copy(), inputs.mask_bits)
    assert loss == 0.0
    grads = model.backward_batch(dv, cache, params)
    for g in grads.values():
        assert np.all(g == 0.0)


def test_backward_requires_cache():
    model = VectorFieldModel(SMALL)
    params = init_params(SMALL, np.random.default_rng(0))
    with pytest.raises(RuntimeError):
        model.backward_batch(np.zeros((1, 3, 4)), None, params)


def test_backward_rejects_cache_overwritten_by_later_forward():
    rng = np.random.default_rng(30)
    model = VectorFieldModel(SMALL)
    params = init_params(SMALL, rng, zero_output=False)
    inputs, _ = make_batch(2, 4, SMALL, rng)
    other, _ = make_batch(2, 4, SMALL, rng)
    v, cache = model.forward_batch(inputs, params)
    first = {k: g.copy() for k, g in model.backward_batch(np.ones_like(v), cache, params).items()}
    again = model.backward_batch(np.ones_like(v), cache, params)  # a backward keeps the cache
    assert all(np.array_equal(first[k], again[k]) for k in first)
    model.forward_batch(other, params)  # same shape: reuses the cache's buffers
    with pytest.raises(RuntimeError, match="stale") as info:
        model.backward_batch(np.ones((2, 3, 4)), cache, params)
    assert "\n" not in str(info.value)
    _, cache = model.forward_batch(inputs, params)
    model.forward_batch(make_batch(3, 4, SMALL, rng)[0], params)  # new shape
    with pytest.raises(RuntimeError, match="stale"):
        model.backward_batch(np.ones((2, 3, 4)), cache, params)


def test_backward_rejects_a_params_dict_other_than_its_forwards():
    # The backward reads the tensors its forward's prompt took from the
    # dict, so another dict, even one holding equal tensors, is refused.
    rng = np.random.default_rng(35)
    model = VectorFieldModel(SMALL)
    params = init_params(SMALL, rng, zero_output=False)
    inputs, _ = make_batch(2, 4, SMALL, rng)
    v, cache = model.forward_batch(inputs, params)
    want = {k: g.copy() for k, g in model.backward_batch(np.ones_like(v), cache, params).items()}
    for other in (dict(params), {k: a.copy() for k, a in params.items()}):
        with pytest.raises(ValueError, match="parameter dict") as info:
            model.backward_batch(np.ones_like(v), cache, other)
        assert "\n" not in str(info.value)
    got = model.backward_batch(np.ones_like(v), cache, params)  # the cache is still valid
    assert all(np.array_equal(want[k], got[k]) for k in want)


@pytest.mark.parametrize("b", [2, 3], ids=["same-shape", "new-shape"])
def test_forward_that_fails_a_check_keeps_the_cache(b):
    rng = np.random.default_rng(31)
    model = VectorFieldModel(SMALL)
    params = init_params(SMALL, rng, zero_output=False)
    inputs, _ = make_batch(2, 4, SMALL, rng)
    v, cache = model.forward_batch(inputs, params)
    want = {k: g.copy() for k, g in model.backward_batch(np.ones_like(v), cache, params).items()}
    bad, _ = make_batch(b, 4, SMALL, rng)
    bad.emo[0, 0, 0] = np.nan
    with pytest.raises(FloatingPointError):
        model.forward_batch(bad, params)
    got = model.backward_batch(np.ones_like(v), cache, params)
    assert all(np.array_equal(want[k], got[k]) for k in want)


def test_forward_returns_fresh_velocities():
    # Guidance holds the conditional field while it evaluates the
    # unconditional one at the same shape, so a returned array must
    # survive the next call.
    rng = np.random.default_rng(31)
    model = VectorFieldModel(SMALL)
    params = init_params(SMALL, rng, zero_output=False)
    inputs, _ = make_batch(2, 5, SMALL, rng)
    other, _ = make_batch(2, 5, SMALL, rng)
    a, _ = model.forward_batch(inputs, params)
    kept = a.copy()
    b, _ = model.forward_batch(other, params)
    assert not np.shares_memory(a, b)
    np.testing.assert_array_equal(a, kept)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_after_a_shape_change_is_a_fresh_models_forward(dtype):
    # The workspace holds views, the time code and the positional code of
    # one (B, T, dtype); a pass at another shape and back must not read
    # any of them from the other shape.
    rng = np.random.default_rng(35)
    params = {k: a.astype(dtype) for k, a in init_params(SMALL, rng, zero_output=False).items()}
    model = VectorFieldModel(SMALL)
    for b, t_len in ((2, 5), (3, 7), (2, 5), (1, 1), (2, 5)):
        inputs, _ = make_batch(b, t_len, SMALL, rng)
        got = model.forward_batch(inputs, params)[0]
        want = VectorFieldModel(SMALL).forward_batch(inputs, params)[0]
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes(), (b, t_len)


@pytest.mark.parametrize("name", ["in_w", "block0.wk", "block1.ln2_g", "block1.ffn_b2", "out_w"])
def test_forward_reads_a_tensor_replaced_in_the_params_dict(name):
    # The parameter tuples a pass reads are taken from the dict on every
    # BatchInputs call, never kept from an earlier call on the same dict.
    rng = np.random.default_rng(36)
    params = init_params(SMALL, rng, zero_output=False)
    model = VectorFieldModel(SMALL)
    inputs, _ = make_batch(2, 5, SMALL, rng)
    before = model.forward_batch(inputs, params)[0].copy()
    params[name] = params[name] + rng.standard_normal(params[name].shape)
    got = model.forward_batch(inputs, params)[0]
    want = VectorFieldModel(SMALL).forward_batch(inputs, params)[0]
    assert got.tobytes() == want.tobytes()
    assert not np.array_equal(got, before)


# -- precision -----------------------------------------------------------------


def row_sums(x):
    """Sums over the last axis, kept as a length-1 axis, in the kernels' order."""
    return np.einsum("...i->...", x)[..., None]


def row_dots(x, y):
    """Row-wise dot products over the last axis, kept as a length-1 axis."""
    return np.einsum("...i,...i->...", x, y)[..., None]


def column_sums(x2):
    """Sums over the rows of a 2-D array, in the kernels' order (one GEMV)."""
    return np.ones(x2.shape[0], x2.dtype) @ x2


def reference_forward(cfg, inputs, params):
    """The float64 forward pass written out op by op, with numpy float64
    constants, as a reference the model must match bit for bit."""
    b, _, T = inputs.x_t.shape
    d, heads = cfg.d_model, cfg.n_heads
    dh = d // heads

    def linear(x, w, bias):
        y = x.reshape(-1, x.shape[-1]) @ w
        return (y + bias).reshape(*x.shape[:-1], w.shape[1])

    def layernorm(x, g, bias):
        width = x.shape[-1]
        xc = x - row_sums(x) / width
        xhat = xc * (1.0 / np.sqrt(row_dots(xc, xc) / width + 1e-6))
        return g * xhat + bias

    u = np.concatenate(
        [inputs.x_t.transpose(0, 2, 1), inputs.context.transpose(0, 2, 1),
         params["phn_emb"][inputs.tokens], inputs.nv.transpose(0, 2, 1),
         inputs.emo.transpose(0, 2, 1)],
        axis=2,
    )
    z = linear(u, params["in_w"], params["in_b"])
    z = z + seqmodel._TimeCode(b, d).write(inputs.t)[:, None, :]
    z = z + positional_encoding(T, d)[None]
    for i in range(cfg.n_layers):
        p = {k.split(".", 1)[1]: v for k, v in params.items() if k.startswith(f"block{i}.")}
        y1 = layernorm(z, p["ln1_g"], p["ln1_b"])
        w_qkv = np.concatenate([p["wq"], p["wk"], p["wv"]], axis=1)
        qkv = linear(y1, w_qkv, np.concatenate([p["bq"], p["bk"], p["bv"]]))
        q, k, v = (qkv.reshape(b, T, 3, heads, dh)[:, :, j].transpose(0, 2, 1, 3) for j in range(3))
        s = (q @ k.transpose(0, 1, 3, 2)) * (np.float64(1.0) / np.sqrt(np.float64(dh)))
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        o = (e / row_sums(e)) @ v
        z = z + linear(o.transpose(0, 2, 1, 3).reshape(b, T, d), p["wo"], p["bo"])
        h = linear(layernorm(z, p["ln2_g"], p["ln2_b"]), p["ffn_w1"], p["ffn_b1"])
        a = h * ((1.0 + libm_erf(h / np.sqrt(np.float64(2.0)))) * 0.5)
        z = z + linear(a, p["ffn_w2"], p["ffn_b2"])
    g = layernorm(z, params["out_ln_g"], params["out_ln_b"])
    return linear(g, params["out_w"], params["out_b"]).transpose(0, 2, 1)


@pytest.mark.parametrize("cfg, B, T", [(SMALL, 3, 7), (FOUR_HEADS, 2, 5), (ModelConfig(), 2, 48)],
                         ids=["small", "4heads", "desk"])
def test_float64_forward_matches_reference_bitwise(cfg, B, T):
    rng = np.random.default_rng(21)
    params = init_params(cfg, rng, zero_output=False)
    inputs, _ = make_batch(B, T, cfg, rng)
    out, _ = VectorFieldModel(cfg).forward_batch(inputs, params)
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, reference_forward(cfg, inputs, params))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("T", [7, 13, 97])
def test_row_output_does_not_depend_on_its_batch(dtype, T):
    # Each row's velocities are the bytes of a B=1 forward of that row
    # alone, so the guided pair could run as one B=2 forward.  A row sum
    # taken as one GEMV over all rows breaks this: BLAS sums a row in an
    # order that depends on how many rows share the call.
    cfg = ModelConfig()
    rng = np.random.default_rng(T)
    params = {k: a.astype(dtype) for k, a in init_params(cfg, rng, zero_output=False).items()}
    model = VectorFieldModel(cfg)
    for B in (2, 3, 5):
        inputs, _ = make_batch(B, T, cfg, rng)
        out = model.forward_batch(inputs, params)[0].copy()
        for i in range(B):
            row = BatchInputs(**{k: v[i : i + 1] for k, v in vars(inputs).items()})
            np.testing.assert_array_equal(model.forward_batch(row, params)[0][0], out[i],
                                          err_msg=f"B={B}, row {i}")


def reference_layernorm(x, g, b):
    """The layernorm kernel as written with allocating ops: (y, xhat, istd)."""
    width = x.shape[-1]
    xhat = x - row_sums(x) / width
    istd = row_dots(xhat, xhat) / width
    istd += 1e-6
    istd = np.divide(1.0, np.sqrt(istd))
    xhat *= istd
    return g * xhat + b, xhat, istd


def reference_layernorm_backward(dy, xhat, istd, g):
    """The layernorm backward as written with allocating ops: (dx, dg, db)."""
    width = dy.shape[-1]
    dy2 = dy.reshape(-1, width)
    db = column_sums(dy2)
    dg = column_sums((dy * xhat).reshape(dy2.shape))
    dx = dy * g
    tmp = xhat * (row_dots(dx, xhat) / width)
    dx -= row_sums(dx) / width
    dx -= tmp
    dx *= istd
    return dx, dg, db


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [7, 48, 64, 96])
def test_layernorm_reductions_match_einsum_rows_and_gemv_columns_bitwise(dtype, width):
    # The kernels take row sums with np.einsum, divided by the width for a
    # mean, and the gain and offset gradients' column sums as one GEMV.
    rng = np.random.default_rng(width)
    x = (rng.standard_normal((2, 13, width)) * 3.0 + 0.7).astype(dtype)
    g = rng.uniform(0.5, 1.5, width).astype(dtype)
    b = rng.standard_normal(width).astype(dtype)
    y, xhat, istd = np.empty_like(x), np.empty_like(x), np.empty((2, 13, 1), dtype)
    seqmodel._layernorm(x, g, b, y, xhat, istd, istd[..., 0])
    for got, want in zip((y, xhat, istd), reference_layernorm(x, g, b)):
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)

    dy = rng.standard_normal(x.shape).astype(dtype)
    dx, dg, db = np.empty_like(x), np.empty(width, dtype), np.empty(width, dtype)
    seqmodel._layernorm_backward((xhat, istd), g, dx, dg, db,
                                 seqmodel._layernorm_scratch(dy, np.empty_like(x),
                                                             np.empty_like(istd)))
    for got, want in zip((dx, dg, db), reference_layernorm_backward(dy, xhat, istd, g)):
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)


def test_float32_erf_accuracy_and_special_values():
    x = np.linspace(-6.0, 6.0, 2_000_001, dtype=np.float32)
    got = seqmodel.erf(x)
    assert got.dtype == np.float32
    assert np.abs(got - libm_erf(x.astype(np.float64))).max() <= 5e-7
    # exactly odd, signed zeros included
    np.testing.assert_array_equal(seqmodel.erf(-x).view(np.uint32), (-got).view(np.uint32))

    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype=np.float32)
    got = seqmodel.erf(special)
    assert got.dtype == np.float32
    np.testing.assert_array_equal(got, [0.0, -0.0, 1.0, -1.0, np.nan])
    assert np.signbit(got).tolist()[:4] == [False, True, False, True]

    y = x.copy()
    want = seqmodel.erf(x)
    assert seqmodel.erf(y, out=y) is y and y.tobytes() == want.tobytes()
    scratch = (np.empty_like(x), np.empty_like(x))
    assert seqmodel.erf(x, scratch=scratch).tobytes() == want.tobytes()
    zero_d = seqmodel.erf(x[1234].reshape(()))
    assert zero_d.shape == () and zero_d.tobytes() == want[1234].tobytes()


def cached_arrays(obj, path=""):
    """Every float array in nested dicts, lists and tuples, by its path."""
    if isinstance(obj, np.ndarray):
        return {path: obj} if obj.dtype.kind == "f" else {}
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, (list, tuple)):
        children = enumerate(obj)
    else:
        return {}
    return {p: a for k, v in children for p, a in cached_arrays(v, f"{path}/{k}").items()}


def test_float32_params_keep_forward_and_cache_float32():
    # A stray float64 constant would promote part of the float32 pass.
    rng = np.random.default_rng(22)
    params = init_params(SMALL, rng, zero_output=False)
    params32 = {k: v.astype(np.float32) for k, v in params.items()}
    inputs, _ = make_batch(2, 6, SMALL, rng)
    model = VectorFieldModel(SMALL)
    out, cache = model.forward_batch(inputs, params32)
    assert out.dtype == np.float32
    ws = cache["workspace"]
    arrays = cached_arrays({"blocks": ws.blocks, "lnfc": ws.lnfc})
    assert len(arrays) >= 3 + 13 * SMALL.n_layers
    assert {k: a.dtype for k, a in arrays.items() if a.dtype != np.float32} == {}
    np.testing.assert_allclose(out, model.forward_batch(inputs, params)[0], rtol=0, atol=1e-5)


def test_field_fn_runs_in_float32_and_leaves_params():
    rng = np.random.default_rng(23)
    params = init_params(SMALL, rng, zero_output=False)
    inputs, _ = make_batch(2, 6, SMALL, rng)
    v = make_field_fn(VectorFieldModel(SMALL), params)(inputs)(inputs.x_t, inputs.t)
    assert v.dtype == np.float32 and v.shape == inputs.x_t.shape
    assert all(arr.dtype == np.float64 for arr in params.values())


# -- schedule and training step --------------------------------------------------


def test_lr_schedule_warmup_hand_value():
    sched = LrSchedule(peak=7.5e-5, warmup_steps=10, total_steps=100)
    assert sched.at(5) == pytest.approx(3.75e-5, rel=1e-12)
    assert sched.at(10) == pytest.approx(7.5e-5, rel=1e-12)


def test_lr_schedule_linear_decay_to_zero():
    sched = LrSchedule(peak=1e-3, warmup_steps=10, total_steps=110)
    assert sched.at(60) == pytest.approx(0.5e-3, rel=1e-12)
    assert sched.at(110) == 0.0
    assert sched.at(500) == 0.0


def test_train_step_zero_lr_leaves_params_bitwise():
    rng = np.random.default_rng(10)
    model = VectorFieldModel(SMALL)
    params = init_params(SMALL, rng, zero_output=False)
    before = {k: v.copy() for k, v in params.items()}
    inputs, u_target = make_training_batch(rng, 3, 5)
    state = OptimizerState(schedule=LrSchedule(peak=0.0, warmup_steps=1, total_steps=10))
    params, loss, lr = train_step(model, inputs, u_target, params, state)
    assert lr == 0.0
    assert loss > 0.0
    for k in params:
        assert np.array_equal(params[k], before[k])


def make_training_batch(rng, B, T, cfg=SMALL):
    """A batch on the conditional path and its (B, F, T) target field."""
    sigma_min = 1e-5
    x1, x0 = rng.standard_normal((2, B, cfg.feature_dim, T))
    inputs, _ = make_batch(B, T, cfg, rng)
    inputs.x_t = sample_conditional_path(x1, inputs.t[:, None, None], x0, sigma_min)
    return inputs, on_path_field(x0, x1, sigma_min)


@pytest.fixture
def erf_calls(monkeypatch):
    """The dtype of each call to ``seqmodel.erf``, the one erf entry point."""
    calls = []

    def counting_erf(x, *args, **kwargs):
        calls.append(x.dtype)
        return real_erf(x, *args, **kwargs)

    real_erf = seqmodel.erf
    monkeypatch.setattr(seqmodel, "erf", counting_erf)
    return calls


def test_train_step_evaluates_erf_once_per_layer(erf_calls):
    # A training step computes in float32 on a copy of the float64 master.
    rng = np.random.default_rng(17)
    model = VectorFieldModel(SMALL)
    params = init_params(SMALL, rng, zero_output=False)
    state = OptimizerState(schedule=LrSchedule(1e-3, 1, 10))
    backward, grads = model.backward_batch, []

    def recording_backward(*args):
        grads.append(backward(*args))
        return grads[-1]

    model.backward_batch = recording_backward
    train_step(model, *make_training_batch(rng, 2, 5), params, state)
    assert erf_calls == [np.float32] * SMALL.n_layers
    assert {g.dtype for g in grads[0].values()} == {np.dtype(np.float32)}
    assert {a.dtype for a in params.values()} == {np.dtype(np.float64)}
    assert state.m.dtype == state.v.dtype == np.float64


def test_field_evaluates_erf_once_per_layer(erf_calls):
    # The float32 erf is numpy code, but it is still reached through seqmodel.erf.
    rng = np.random.default_rng(18)
    params = init_params(SMALL, rng, zero_output=False)
    inputs, _ = make_batch(2, 5, SMALL, rng)
    make_field_fn(VectorFieldModel(SMALL), params)(inputs)(inputs.x_t, inputs.t)
    assert erf_calls == [np.float32] * SMALL.n_layers


def test_train_step_rejects_empty_batch():
    rng = np.random.default_rng(0)
    model = VectorFieldModel(SMALL)
    params = init_params(SMALL, rng)
    state = OptimizerState(schedule=LrSchedule(1e-3, 1, 10))
    inputs, u_target = make_training_batch(rng, 3, 5)
    empty = BatchInputs(**{k: v[:0] for k, v in vars(inputs).items()})
    with pytest.raises(ValueError, match="nonempty"):
        train_step(model, empty, u_target[:0], params, state)
    with pytest.raises(ValueError, match="u_target shape"):
        train_step(model, inputs, u_target[0], params, state)
    assert state.step == 0


def test_train_step_diverged_loss_raises():
    rng = np.random.default_rng(11)
    model = VectorFieldModel(SMALL)
    params = init_params(SMALL, rng, zero_output=False)
    params["out_b"][:] = np.inf
    batch = make_training_batch(rng, 2, 4)
    state = OptimizerState(schedule=LrSchedule(1e-3, 1, 10))
    with np.errstate(invalid="ignore"), pytest.raises(TrainingDivergedError):
        train_step(model, *batch, params, state)


@pytest.mark.parametrize("value, message", [(1e39, "not finite in float32"),
                                            (3e38, "non-finite loss")],
                         ids=["overflows-float32-copy", "overflows-float32-loss"])
def test_train_step_float32_overflow_raises(value, message):
    # Both values are finite in the float64 master.  1e39 has no float32
    # copy; 3e38 has one, but the float32 loss overflows.
    rng = np.random.default_rng(19)
    model = VectorFieldModel(SMALL)
    params = init_params(SMALL, rng, zero_output=False)
    params["out_b"][0] = value
    before = {k: v.copy() for k, v in params.items()}
    state = OptimizerState(schedule=LrSchedule(1e-3, 1, 10))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(TrainingDivergedError, match=message):
        train_step(model, *make_training_batch(rng, 2, 4), params, state)
    assert state.step == 0
    for k in params:
        assert np.array_equal(params[k], before[k]), k


def test_overfit_single_batch_loss_decreases():
    rng = np.random.default_rng(12)
    model = VectorFieldModel(SMALL)
    params = init_params(SMALL, rng)
    batch = make_training_batch(rng, 4, 6)
    state = OptimizerState(schedule=LrSchedule(peak=3e-3, warmup_steps=10, total_steps=10_000))
    losses = []
    for _ in range(200):
        params, loss, _ = train_step(model, *batch, params, state)
        losses.append(loss)
    ma = np.convolve(losses, np.ones(20) / 20, mode="valid")
    assert all(b < a for a, b in zip(ma, ma[1:]))
    assert ma[-1] < 0.5 * ma[0]


def reference_adam(params, grads, state):
    """Adam as written per tensor, in Kingma & Ba's efficient form: the
    elementwise order the flat update keeps."""
    state.step += 1
    lr = state.schedule.at(state.step)
    b1, b2, eps = 0.9, 0.999, 1e-8
    root_bc2 = math.sqrt(1.0 - b2**state.step)
    alpha, eps_hat = lr * root_bc2 / (1.0 - b1**state.step), eps * root_bc2
    for name, g in grads.items():
        m = state.m.setdefault(name, np.zeros_like(g))
        v = state.v.setdefault(name, np.zeros_like(g))
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        params[name] -= (m * alpha) / (np.sqrt(v) + eps_hat)


@pytest.mark.parametrize("adam_slice", [1 << 14, 500], ids=["one-slice", "slices-cross-tensors"])
def test_adam_update_matches_per_tensor_reference_bitwise(monkeypatch, adam_slice):
    monkeypatch.setattr(seqmodel, "_ADAM_SLICE", adam_slice)
    rng = np.random.default_rng(32)
    model = VectorFieldModel(SMALL)
    params = init_params(SMALL, rng, zero_output=False)
    ref = {k: v.copy() for k, v in params.items()}
    sched = LrSchedule(peak=3e-3, warmup_steps=2, total_steps=10)
    state = OptimizerState(schedule=sched)
    ref_state = OptimizerState(schedule=sched)
    ref_state.m, ref_state.v = {}, {}
    for _ in range(4):
        inputs, _ = make_batch(2, 5, SMALL, rng)
        v, cache = model.forward_batch(inputs, params)
        _, dv = masked_batch_loss_grad(v, rng.standard_normal(v.shape), inputs.mask_bits)
        grads = model.backward_batch(dv, cache, params)
        reference_adam(ref, {k: g.copy() for k, g in grads.items()}, ref_state)
        seqmodel.adam_update(params, grads, state)
    for name in params:
        np.testing.assert_array_equal(params[name], ref[name], err_msg=name)
    assert state.m.shape == state.v.shape == (sum(p.size for p in params.values()),)


def test_adam_update_rejects_params_outside_the_arena():
    rng = np.random.default_rng(33)
    model = VectorFieldModel(SMALL)
    params = init_params(SMALL, rng, zero_output=False)
    inputs, _ = make_batch(2, 4, SMALL, rng)
    v, cache = model.forward_batch(inputs, params)
    grads = model.backward_batch(np.ones_like(v), cache, params)
    state = OptimizerState(schedule=LrSchedule(1e-3, 1, 10))
    copied = {k: a.copy() for k, a in params.items()}
    replaced = {**params, "out_b": np.zeros(SMALL.feature_dim)}
    for bad in (copied, replaced):
        with pytest.raises(ValueError, match="arena"):
            seqmodel.adam_update(bad, grads, state)
    assert state.step == 0


def test_train_step_reuses_workspace_and_gradient_buffers():
    rng = np.random.default_rng(34)
    model = VectorFieldModel(SMALL)
    params = init_params(SMALL, rng, zero_output=False)
    state = OptimizerState(schedule=LrSchedule(1e-3, 1, 10))
    seen = []
    forward, backward = model.forward_batch, model.backward_batch

    def recording_forward(*args, **kwargs):
        out, cache = forward(*args, **kwargs)
        seen.append(cache)
        return out, cache

    def recording_backward(*args, **kwargs):
        grads = backward(*args, **kwargs)
        seen.append(grads)
        return grads

    model.forward_batch, model.backward_batch = recording_forward, recording_backward
    for _ in range(2):
        train_step(model, *make_training_batch(rng, 3, 5), params, state)
    cache1, grads1, cache2, grads2 = seen
    for a, b in zip(cached_arrays(cache1).values(), cached_arrays(cache2).values()):
        assert np.shares_memory(a, b)
    for name in param_names(SMALL):
        assert np.shares_memory(grads1[name], grads2[name]), name
    moments = state.m
    train_step(model, *make_training_batch(rng, 3, 5), params, state)
    assert state.m is moments


def arena_offsets(tensors):
    """Byte offset of every tensor from the start of the vector they share."""
    base = next(iter(tensors.values())).base
    start = base.__array_interface__["data"][0]
    assert base.ndim == 1 and base.flags.c_contiguous and base.dtype == np.float64
    assert base.size == sum(a.size for a in tensors.values())
    assert all(a.base is base for a in tensors.values())
    return [a.__array_interface__["data"][0] - start for a in tensors.values()]


def expected_offsets(cfg):
    sizes = [int(np.prod(shape)) for shape in _param_shapes(cfg).values()]
    return [8 * n for n in np.cumsum([0] + sizes[:-1])]


@pytest.mark.parametrize("zero_output", [True, False])
def test_init_params_tile_one_arena_with_per_tensor_draws(zero_output):
    params = init_params(FOUR_HEADS, np.random.default_rng(35), zero_output=zero_output)
    assert list(params) == param_names(FOUR_HEADS)
    assert arena_offsets(params) == expected_offsets(FOUR_HEADS)
    rng = np.random.default_rng(35)
    for name, shape in _param_shapes(FOUR_HEADS).items():
        if name.endswith("_g"):
            ref = np.ones(shape)
        elif len(shape) == 1 or (name == "out_w" and zero_output):
            ref = np.zeros(shape)
        else:
            draw = rng.standard_normal(shape).astype(np.float32)
            ref = (draw * np.float32(1.0 / np.sqrt(shape[0]))).astype(np.float64)
        np.testing.assert_array_equal(params[name], ref, err_msg=name)


def test_load_checkpoint_tiles_one_arena_and_saves_same_bytes(tmp_path):
    rng = np.random.default_rng(36)
    params = init_params(SMALL, rng, zero_output=False)
    params["in_w"] += rng.standard_normal(params["in_w"].shape)  # not float32-exact
    p1, p2 = tmp_path / "a.fmck", tmp_path / "b.fmck"
    save_checkpoint(p1, SMALL, params)
    cfg, loaded = load_checkpoint(p1)
    assert list(loaded) == param_names(SMALL)
    assert arena_offsets(loaded) == expected_offsets(SMALL)
    save_checkpoint(p2, cfg, loaded)
    assert p1.read_bytes() == p2.read_bytes()


# -- checkpoints -----------------------------------------------------------------


def test_checkpoint_round_trip_forward_bitwise(tmp_path):
    rng = np.random.default_rng(13)
    model = VectorFieldModel(SMALL)
    # fresh params are exactly float32-representable, so save/load is lossless
    params = init_params(SMALL, rng, zero_output=False)
    cond = make_cond(6, 3, rng)
    x_t = rng.standard_normal((3, 6))
    before = forward_one(model, x_t, 0.25, cond, params)

    p = tmp_path / "model.fmck"
    save_checkpoint(p, SMALL, params)
    cfg2, params2 = load_checkpoint(p)
    assert cfg2 == SMALL
    after = forward_one(VectorFieldModel(cfg2), x_t, 0.25, cond, params2)
    assert np.array_equal(before, after)


def test_checkpoint_file_byte_stable(tmp_path):
    rng = np.random.default_rng(14)
    params = init_params(SMALL, rng, zero_output=False)
    # perturb past float32 so quantization really happens once
    params["in_w"] += 1e-9
    p1, p2 = tmp_path / "a.fmck", tmp_path / "b.fmck"
    save_checkpoint(p1, SMALL, params)
    cfg, loaded = load_checkpoint(p1)
    save_checkpoint(p2, cfg, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_checkpoint_refuses_float32_overflow(tmp_path):
    rng = np.random.default_rng(15)
    params = init_params(SMALL, rng)
    p = tmp_path / "model.fmck"
    save_checkpoint(p, SMALL, params)
    good = p.read_bytes()
    params["block1.bv"][2] = -1e39  # finite in float64, not in float32
    with pytest.raises(ValueError, match="block1.bv is not finite in float32"):
        save_checkpoint(p, SMALL, params)
    with pytest.raises(ValueError, match="not finite in float32"):
        save_checkpoint(tmp_path / "new.fmck", SMALL, params)
    assert p.read_bytes() == good
    assert not (tmp_path / "new.fmck").exists()


def test_committed_checkpoint_round_trips(tmp_path):
    # The benchmark's desk checkpoint: a real artifact with all four fixed keys.
    committed = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "sample_model.fmck"
    cfg, params = load_checkpoint(committed)
    assert cfg == PRESETS["desk"]
    save_checkpoint(tmp_path / "again.fmck", cfg, params)
    assert (tmp_path / "again.fmck").read_bytes() == committed.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "x.fmck"
    p.write_bytes(b"JUNKJUNKJUNK")
    from flowcond import FormatError

    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(p)


def test_checkpoint_truncation(tmp_path):
    rng = np.random.default_rng(15)
    params = init_params(SMALL, rng)
    p = tmp_path / "x.fmck"
    save_checkpoint(p, SMALL, params)
    blob = p.read_bytes()
    # The first tensor's shape, claiming (2**32 - 1)**2 elements: a count
    # that wraps around in int64 must still read as a truncated payload.
    (cfg_len,) = struct.unpack("<I", blob[8:12])
    (name_len,) = struct.unpack("<I", blob[16 + cfg_len : 20 + cfg_len])
    dims = 24 + cfg_len + name_len
    assert struct.unpack("<I", blob[dims - 4 : dims]) == (2,)
    huge = blob[:dims] + struct.pack("<2I", 2**32 - 1, 2**32 - 1) + blob[dims + 8 :]
    from flowcond import FormatError

    for bad in (blob[: len(blob) - 10], huge):
        p.write_bytes(bad)
        with pytest.raises(FormatError, match="truncated") as info:
            load_checkpoint(p)
        assert str(p) in str(info.value)


def test_checkpoint_non_utf8_tensor_name(tmp_path):
    p = tmp_path / "x.fmck"
    save_checkpoint(p, SMALL, init_params(SMALL, np.random.default_rng(15)))
    blob = bytearray(p.read_bytes())
    # Step over the config block and tensor 0 to tensor 1's name ("in_w").
    (cfg_len,) = struct.unpack("<I", blob[8:12])
    off = 16 + cfg_len
    (name_len,) = struct.unpack("<I", blob[off : off + 4])
    off += 4 + name_len
    (ndim,) = struct.unpack("<I", blob[off : off + 4])
    shape = struct.unpack(f"<{ndim}I", blob[off + 4 : off + 4 + 4 * ndim])
    off += 4 + 4 * ndim + 4 * math.prod(shape) + 4
    assert blob[off : off + 4] == b"in_w"
    blob[off + 3] = 0xDF  # a UTF-8 lead byte with no continuation byte after it
    p.write_bytes(bytes(blob))
    from flowcond import FormatError

    with pytest.raises(FormatError) as info:
        load_checkpoint(p)
    assert str(info.value) == f"tensor 1 of checkpoint {p} has a name that is not printable UTF-8"


def with_config_block(blob, block):
    """Checkpoint bytes with the JSON config block replaced by ``block``."""
    (cfg_len,) = struct.unpack("<I", blob[8:12])
    return blob[:8] + struct.pack("<I", len(block)) + block + blob[12 + cfg_len :]


def test_checkpoint_bad_config_block(tmp_path):
    p = tmp_path / "x.fmck"
    save_checkpoint(p, SMALL, init_params(SMALL, np.random.default_rng(16)))
    blob = p.read_bytes()
    good = json.loads(blob[12 : 12 + struct.unpack("<I", blob[8:12])[0]])
    from flowcond import FormatError

    for block in (
        {**good, "bogus": 1},  # unknown key
        {**good, "n_layers": "two"},  # wrong-typed value
        [1, 2],  # not an object
    ):
        p.write_bytes(with_config_block(blob, json.dumps(block).encode()))
        with pytest.raises(FormatError, match="config block") as info:
            load_checkpoint(p)
        assert str(p) in str(info.value)


def test_checkpoint_fixed_keys_may_be_absent(tmp_path):
    # The fixed keys hold constants, so a block without them loads as well.
    p = tmp_path / "x.fmck"
    save_checkpoint(p, SMALL, init_params(SMALL, np.random.default_rng(16)))
    blob = p.read_bytes()
    good = json.loads(blob[12 : 12 + struct.unpack("<I", blob[8:12])[0]])
    fixed = ("d_nv", "d_emo", "frames_per_second", "use_positional")
    block = {k: v for k, v in good.items() if k not in fixed}
    p.write_bytes(with_config_block(blob, json.dumps(block).encode()))
    assert load_checkpoint(p)[0] == SMALL


@pytest.mark.parametrize(
    "wrong",
    [{"out_b": (1,), "block1.ln2_g": (1,)}, {"block0.wq": (64, 32)}],
    ids=["broadcastable", "gemm-mismatch"],
)
def test_checkpoint_wrong_tensor_shape(tmp_path, wrong):
    # Right names, wrong shapes: the first set would broadcast silently in
    # the forward pass, the second would fail deep inside numpy.
    cfg = ModelConfig()
    params = init_params(cfg, np.random.default_rng(17))
    params.update({name: np.zeros(shape) for name, shape in wrong.items()})
    p = tmp_path / "x.fmck"
    save_checkpoint(p, cfg, params)
    from flowcond import FormatError

    with pytest.raises(FormatError) as info:
        load_checkpoint(p)
    msg = str(info.value)
    name = next(n for n in param_names(cfg) if n in wrong)
    assert str(p) in msg and name in msg
    assert str(wrong[name]) in msg and str(_param_shapes(cfg)[name]) in msg


def test_param_order_is_stable():
    names = param_names(SMALL)
    assert names[0] == "phn_emb"
    assert names[-1] == "out_b"
    assert len(names) == len(set(names))
    params = init_params(SMALL, np.random.default_rng(0))
    assert list(params.keys()) == names
