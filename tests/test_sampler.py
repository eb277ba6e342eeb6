from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowcond import (
    BatchInputs,
    GuidanceConfig,
    ModelConfig,
    VectorFieldModel,
    assemble_prompt,
    conditional_vector_field,
    guided_field,
    init_params,
    integrate_batch,
    interpolate_stream,
    make_field_fn,
    seqmodel,
)


def make_prompt(F=3, t_spk=4, t_text=6, rng=None, seed=0):
    rng = rng or np.random.default_rng(seed)
    return assemble_prompt(
        spk_features=rng.standard_normal((F, t_spk)),
        spk_phonemes=rng.integers(1, 5, t_spk),
        spk_nv=rng.standard_normal((32, t_spk)),
        spk_emo=rng.uniform(-0.5, 0.5, (2, t_spk)),
        text_phonemes=rng.integers(1, 5, t_text),
        nv_prompt=rng.standard_normal((32, t_text)),
        emo_prompt=rng.uniform(-0.5, 0.5, (2, t_text)),
    )


def stack(prompts):
    """One batch holding the rows of every prompt, in order."""
    return BatchInputs(**{k: np.concatenate([vars(p)[k] for p in prompts]) for k in vars(prompts[0])})


# -- interpolate_stream ----------------------------------------------------


def test_interpolate_identity_when_lengths_match():
    src = np.random.default_rng(0).standard_normal((4, 7))
    out = interpolate_stream(src, 7)
    assert np.array_equal(out, src)
    assert out is not src


def test_interpolate_hand_example():
    out = interpolate_stream(np.array([[0.0, 1.0]]), 3)
    assert np.array_equal(out, np.array([[0.0, 0.5, 1.0]]))


def test_interpolate_constant_rows_preserved():
    src = np.full((3, 4), 2.5)
    for t in (1, 2, 5, 9):
        assert np.array_equal(interpolate_stream(src, t), np.full((3, t), 2.5))
    # A single query reads column 0 bitwise, whatever the rest of the row holds.
    for src in (
        np.random.default_rng(2).standard_normal((3, 4)),
        np.array([[1.0, np.inf, 2.0], [-0.0, 5.0, np.nan]], dtype=np.float32),
    ):
        out = interpolate_stream(src, 1)
        assert out.dtype == np.float64
        assert out.tobytes() == src[:, :1].astype(np.float64).tobytes()


def test_interpolate_single_column_broadcast():
    out = interpolate_stream(np.array([[3.0], [-1.0]]), 5)
    assert np.array_equal(out, np.array([[3.0] * 5, [-1.0] * 5]))
    src = np.array([[3.0], [-0.0], [np.inf], [np.nan]], dtype=np.float32)
    for t in (2, 5, 9):
        out = interpolate_stream(src, t)
        assert out.tobytes() == np.repeat(src.astype(np.float64), t, 1).tobytes()


def test_interpolate_endpoints_exhaustive_small():
    rng = np.random.default_rng(1)
    for L in range(1, 9):
        for T in range(1, 9):
            src = rng.standard_normal((2, L))
            out = interpolate_stream(src, T)
            assert out.shape == (2, T)
            assert np.allclose(out[:, 0], src[:, 0], atol=0)
            if T > 1:
                assert np.allclose(out[:, -1], src[:, -1], atol=0)


def test_interpolate_domain_errors():
    with pytest.raises(ValueError):
        interpolate_stream(np.zeros((2, 0)), 3)
    with pytest.raises(ValueError):
        interpolate_stream(np.zeros((2, 3)), 0)


# -- assemble_prompt ---------------------------------------------------------


def test_assemble_lengths_and_region():
    p = make_prompt(t_spk=4, t_text=6)
    assert isinstance(p, BatchInputs)
    assert p.tokens.shape == (1, 10)
    assert np.array_equal(p.mask_bits, [[0] * 4 + [1] * 6])
    assert p.context.shape == (1, 3, 10)
    assert np.all(p.x_t == 0.0) and np.all(p.t == 0.0)


def test_assemble_text_features_zero():
    p = make_prompt()
    assert np.all(p.context[:, :, p.mask_bits[0] == 1] == 0.0)


def test_assemble_prompt_streams_pass_through_when_aligned():
    rng = np.random.default_rng(3)
    nv = rng.standard_normal((32, 6))
    p = assemble_prompt(
        spk_features=rng.standard_normal((3, 4)),
        spk_phonemes=rng.integers(1, 5, 4),
        spk_nv=rng.standard_normal((32, 4)),
        spk_emo=rng.uniform(-0.5, 0.5, (2, 4)),
        text_phonemes=rng.integers(1, 5, 6),
        nv_prompt=nv,
        emo_prompt=rng.uniform(-0.5, 0.5, (2, 6)),
    )
    assert np.array_equal(p.nv[0, :, 4:], nv)


def test_assemble_prompt_interpolates_short_streams():
    rng = np.random.default_rng(4)
    p = assemble_prompt(
        spk_features=rng.standard_normal((3, 2)),
        spk_phonemes=rng.integers(1, 5, 2),
        spk_nv=rng.standard_normal((32, 2)),
        spk_emo=rng.uniform(-0.5, 0.5, (2, 2)),
        text_phonemes=rng.integers(1, 5, 5),
        nv_prompt=rng.standard_normal((32, 3)),
        emo_prompt=np.array([[-0.5, -0.5], [0.0, 0.0]]),
    )
    assert p.nv.shape == (1, 32, 7)
    assert p.emo.shape == (1, 2, 7)


def test_assemble_prompt_is_the_infill_example():
    # Speaker columns carry the reference streams bitwise (float32 inputs
    # promote exactly); text columns hold zero context and the prompts
    # resampled by interpolate_stream.
    rng = np.random.default_rng(12)
    spk_features = rng.standard_normal((3, 4)).astype(np.float32)
    spk_nv = rng.standard_normal((32, 4)).astype(np.float32)
    spk_emo = rng.uniform(-0.5, 0.5, (2, 4)).astype(np.float32)
    nv_prompt = rng.standard_normal((32, 3))
    emo_prompt = rng.uniform(-0.5, 0.5, (2, 9)).astype(np.float32)
    p = assemble_prompt(
        spk_features=spk_features,
        spk_phonemes=rng.integers(1, 5, 4),
        spk_nv=spk_nv,
        spk_emo=spk_emo,
        text_phonemes=rng.integers(1, 5, 6),
        nv_prompt=nv_prompt,
        emo_prompt=emo_prompt,
    )
    for got, want in (
        (p.context[0, :, :4], spk_features.astype(np.float64)),
        (p.context[0, :, 4:], np.zeros((3, 6))),
        (p.nv[0, :, :4], spk_nv.astype(np.float64)),
        (p.nv[0, :, 4:], interpolate_stream(nv_prompt, 6)),
        (p.emo[0, :, :4], spk_emo.astype(np.float64)),
        (p.emo[0, :, 4:], interpolate_stream(emo_prompt, 6)),
    ):
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("stream", ["spk_features", "spk_nv", "spk_emo"])
def test_assemble_prompt_rejects_misaligned_speaker_stream(stream):
    rng = np.random.default_rng(13)
    streams = {
        "spk_features": rng.standard_normal((3, 4)),
        "spk_nv": rng.standard_normal((32, 4)),
        "spk_emo": rng.uniform(-0.5, 0.5, (2, 4)),
    }
    streams[stream] = streams[stream][:, :3]
    with pytest.raises(ValueError):
        assemble_prompt(
            spk_phonemes=rng.integers(1, 5, 4),
            text_phonemes=rng.integers(1, 5, 6),
            nv_prompt=rng.standard_normal((32, 6)),
            emo_prompt=rng.uniform(-0.5, 0.5, (2, 6)),
            **streams,
        )


def test_assemble_empty_text_rejected():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        assemble_prompt(
            spk_features=rng.standard_normal((3, 4)),
            spk_phonemes=rng.integers(1, 5, 4),
            spk_nv=rng.standard_normal((32, 4)),
            spk_emo=rng.uniform(-0.5, 0.5, (2, 4)),
            text_phonemes=np.zeros(0, dtype=np.int64),
            nv_prompt=rng.standard_normal((32, 4)),
            emo_prompt=rng.uniform(-0.5, 0.5, (2, 4)),
        )


def blank_prompt(bits, context):
    t = len(bits)
    return BatchInputs(
        x_t=np.zeros((1, *context.shape)),
        t=np.zeros(1),
        tokens=np.zeros((1, t), dtype=np.int64),
        nv=np.zeros((1, 32, t)),
        emo=np.zeros((1, 2, t)),
        context=context[None],
        mask_bits=np.array([bits], dtype=np.float64),
    )


def zero_field(inputs):
    return lambda x, t: np.zeros_like(x)


def test_integrate_rejects_nonzero_context_under_mask():
    prompt = blank_prompt([0, 0, 1, 1, 1], np.ones((2, 5)))
    with pytest.raises(ValueError, match="zero under the mask"):
        integrate_batch(zero_field, prompt, GuidanceConfig(), np.random.default_rng(0))


def test_integrate_rejects_empty_mask():
    prompt = blank_prompt([0, 0, 0], np.ones((2, 3)))
    with pytest.raises(ValueError, match="at least one frame"):
        integrate_batch(zero_field, prompt, GuidanceConfig(), np.random.default_rng(0))


def test_integrate_rejects_disagreeing_bundles():
    # Rows of one batch that disagree in mask, and an empty batch.
    a = blank_prompt([0, 1, 1], np.zeros((2, 3)))
    cfg, rng = GuidanceConfig(), np.random.default_rng(0)
    with pytest.raises(ValueError, match="one mask"):
        integrate_batch(zero_field, stack([a, blank_prompt([1, 1, 0], np.zeros((2, 3)))]), cfg, rng)
    empty = BatchInputs(**{k: v[:0] for k, v in vars(a).items()})
    with pytest.raises(ValueError, match="no prompts"):
        integrate_batch(zero_field, empty, cfg, rng)


def test_empty_speaker_prompt_allowed():
    rng = np.random.default_rng(6)
    p = assemble_prompt(
        spk_features=np.zeros((3, 0)),
        spk_phonemes=np.zeros(0, dtype=np.int64),
        spk_nv=np.zeros((32, 0)),
        spk_emo=np.zeros((2, 0)),
        text_phonemes=rng.integers(1, 5, 4),
        nv_prompt=np.zeros((32, 4)),
        emo_prompt=np.zeros((2, 4)),
    )
    assert np.array_equal(p.mask_bits, [[1, 1, 1, 1]])


# -- guided_field ------------------------------------------------------------


def test_guided_strength_zero_is_conditional_bitwise():
    rng = np.random.default_rng(7)
    v_cond = rng.standard_normal((4, 6))
    v_uncond = rng.standard_normal((4, 6))
    assert np.array_equal(guided_field(v_cond, v_uncond, 0.0), v_cond)


def test_guided_equal_fields_any_strength():
    v = np.random.default_rng(8).standard_normal((3, 5))
    for w in (0.0, 0.5, 1.0, 3.0):
        assert np.allclose(guided_field(v, v.copy(), w), v, atol=1e-15)


def test_guided_hand_value():
    c = np.full((2, 2), 1.5)
    z = np.zeros((2, 2))
    assert np.array_equal(guided_field(c, z, 1.0), 2.0 * c)


def test_guided_shape_mismatch():
    with pytest.raises(ValueError):
        guided_field(np.zeros((2, 3)), np.zeros((2, 4)), 1.0)


# -- integrate_batch -----------------------------------------------------------


def analytic_field_toward(x1, sigma_min):
    """Field callable that ignores conditions and flows toward a fixed x1."""

    def evaluate(x, t):
        return np.stack(
            [conditional_vector_field(x[i], x1, t[0], sigma_min) for i in range(x.shape[0])]
        )

    return lambda inputs: evaluate


def test_integrate_analytic_euler_exact_any_nfe():
    rng = np.random.default_rng(9)
    sigma_min = 1e-5
    prompt = make_prompt(F=3, t_spk=4, t_text=6, seed=2)
    x1 = rng.standard_normal((3, 10))
    field = analytic_field_toward(x1, sigma_min)
    for nfe in (1, 4, 32):
        out = integrate_batch(
            field,
            prompt,
            GuidanceConfig(strength=0.0, nfe=nfe),
            np.random.default_rng(100),
        )[0]
        # reconstruct the expected endpoint from the same noise draw
        x0 = np.random.default_rng(100).standard_normal((1, 3, 10))[0]
        target = (x1 + sigma_min * x0)[:, 4:]
        assert np.max(np.abs(out - target)) < 1e-10


def test_integrate_fixed_seed_bitwise_identical():
    prompt = make_prompt(seed=4)
    x1 = np.random.default_rng(11).standard_normal((3, 10))
    field = analytic_field_toward(x1, 1e-5)
    cfg = GuidanceConfig(strength=0.0, nfe=8)
    a = integrate_batch(field, prompt, cfg, np.random.default_rng(42))[0]
    b = integrate_batch(field, prompt, cfg, np.random.default_rng(42))[0]
    assert np.array_equal(a, b)


def test_integrate_evaluation_count_under_guidance():
    prompt = make_prompt(seed=5)
    calls = {"n": 0}

    def counting_field(inputs):
        def evaluate(x, t):
            calls["n"] += 1
            return np.zeros_like(x)

        return evaluate

    integrate_batch(
        counting_field,
        prompt,
        GuidanceConfig(strength=1.0, nfe=32),
        np.random.default_rng(0),
    )
    assert calls["n"] == 64

    calls["n"] = 0
    integrate_batch(
        counting_field,
        prompt,
        GuidanceConfig(strength=0.0, nfe=32),
        np.random.default_rng(0),
    )
    assert calls["n"] == 32


def test_integrate_nonfinite_state_reports_step():
    prompt = make_prompt(seed=6)

    def exploding_field(inputs):
        return lambda x, t: np.full_like(x, np.inf)

    with pytest.raises(FloatingPointError, match="step 1"):
        integrate_batch(
            exploding_field,
            prompt,
            GuidanceConfig(strength=0.0, nfe=4),
            np.random.default_rng(0),
        )


def test_guided_request_stacks_conditions_once(monkeypatch):
    # The conditional and the blanked batch are built once per request,
    # whatever the NFE, not once per field evaluation.
    cfg = ModelConfig(n_layers=1, d_model=8, d_ffn=8, d_phn=2, n_phonemes=5, feature_dim=3)
    field = make_field_fn(VectorFieldModel(cfg), init_params(cfg, np.random.default_rng(0)))
    prompt = make_prompt(seed=8)
    original = BatchInputs.__post_init__
    calls = {"n": 0}

    def counting(self):
        calls["n"] += 1
        original(self)

    monkeypatch.setattr(BatchInputs, "__post_init__", counting)
    for nfe in (1, 32):
        calls["n"] = 0
        integrate_batch(
            field, prompt, GuidanceConfig(strength=1.0, nfe=nfe), np.random.default_rng(0)
        )
        assert calls["n"] <= 2, nfe


@pytest.mark.parametrize("strength", [1.0, 0.0], ids=["guided", "unguided"])
def test_integrate_leaves_prompts_unchanged(strength):
    prompts = stack([make_prompt(seed=s) for s in (20, 21)])
    before = {k: v.copy() for k, v in vars(prompts).items()}
    integrate_batch(
        lambda inputs: lambda x, t: np.ones_like(x), prompts,
        GuidanceConfig(strength=strength, nfe=3), np.random.default_rng(0),
    )
    for name, value in before.items():
        got = getattr(prompts, name)
        assert got.dtype == value.dtype and got.tobytes() == value.tobytes(), name


@pytest.mark.parametrize("strength", [1.0, 0.0], ids=["guided", "unguided"])
def test_float32_field_tracks_float64_integration(strength):
    # The measured error bound of the float32 sampling field: the same
    # prompts and noise integrated through make_field_fn and through a
    # float64 forward of the same parameters.
    cfg = ModelConfig(feature_dim=3, n_phonemes=5)
    model = VectorFieldModel(cfg)
    params = init_params(cfg, np.random.default_rng(4), zero_output=False)
    prompts = stack([make_prompt(t_spk=8, t_text=24, seed=s) for s in (10, 11)])
    guidance = GuidanceConfig(strength=strength, nfe=32)

    def run(field):
        return integrate_batch(field, prompts, guidance, np.random.default_rng(9))

    got = run(make_field_fn(model, params))
    want = run(lambda batch: lambda x, t: model.forward_batch(replace(batch, x_t=x, t=t), params)[0])
    assert got.dtype == want.dtype == np.float64
    assert np.max(np.abs(got - want)) <= 1e-5


def test_guidance_config_validation():
    with pytest.raises(ValueError):
        GuidanceConfig(strength=-1.0)
    with pytest.raises(ValueError):
        GuidanceConfig(nfe=0)
    with pytest.raises(TypeError):  # Euler is the only integrator
        GuidanceConfig(solver="euler")


@pytest.mark.parametrize("field, value", [
    ("nfe", 2.5), ("nfe", True), ("nfe", "32"), ("nfe", None),
    ("strength", "1"), ("strength", True), ("strength", None), ("strength", 1j),
])
def test_guidance_config_rejects_wrong_types(field, value):
    with pytest.raises(ValueError, match=field):
        GuidanceConfig(**{field: value})


def test_guidance_config_takes_numpy_scalars():
    cfg = GuidanceConfig(strength=np.float32(0.5), nfe=np.int64(2))
    out = integrate_batch(zero_field, make_prompt(seed=3), cfg, np.random.default_rng(0))
    assert out.shape == (1, 3, 6)


# -- the prepared field ----------------------------------------------------------


def small_model(seed=0):
    cfg = ModelConfig(n_layers=2, d_model=8, d_ffn=8, d_phn=2, n_phonemes=5, feature_dim=3)
    params = init_params(cfg, np.random.default_rng(seed), zero_output=False)
    return VectorFieldModel(cfg), params


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(order=st.lists(st.sampled_from([0, 1]), min_size=1, max_size=8),
       times=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8))
def test_prepared_field_is_the_forward_bitwise(order, times):
    # Two evaluators of one field (a guided request's conditional and
    # blanked batch), used in any order, each give forward_batch's bytes
    # for its batch with x_t and t swapped in.
    model, params = small_model()
    params32 = {k: v.astype(np.float32) for k, v in params.items()}
    field = make_field_fn(model, params)
    cond = stack([make_prompt(seed=s) for s in (30, 31)])
    blank = BatchInputs(**{k: v.copy() for k, v in vars(cond).items()})
    blank.blank(slice(None))
    pairs = [(batch, field(batch)) for batch in (cond, blank)]
    rng = np.random.default_rng(1)
    for i, time in zip(order, times):
        batch, evaluate = pairs[i]
        x, t = rng.standard_normal(batch.x_t.shape), np.full(2, time)
        want = model.forward_batch(replace(batch, x_t=x, t=t), params32)[0]
        assert evaluate(x, t).tobytes() == want.tobytes()


@pytest.mark.parametrize("stream", ["tokens", "nv", "emo", "context"])
def test_prepared_field_is_a_snapshot_of_its_batch(stream):
    # Writing a condition stream in place after field(batch) leaves the
    # evaluator's bytes as they were; a new evaluator reads the new values.
    model, params = small_model()
    field = make_field_fn(model, params)
    batch = stack([make_prompt(seed=s) for s in (32, 33)])
    rng = np.random.default_rng(2)
    x, t = rng.standard_normal(batch.x_t.shape), np.full(2, 0.25)
    evaluate = field(batch)
    before = evaluate(x, t).tobytes()
    arr = getattr(batch, stream)
    if stream == "tokens":
        arr[...] = np.where(arr == 1, 2, 1)
    else:
        arr *= -1.0
    assert evaluate(x, t).tobytes() == before
    assert field(batch)(x, t).tobytes() != before


def test_reused_field_gives_a_fresh_fields_bytes():
    model, params = small_model(1)
    reused = make_field_fn(model, params)
    for seed, strength in ((40, 1.0), (41, 1.0), (42, 0.0)):
        prompt = make_prompt(seed=seed)
        cfg = GuidanceConfig(strength=strength, nfe=4)
        got = integrate_batch(reused, prompt, cfg, np.random.default_rng(seed))
        want = integrate_batch(make_field_fn(model, params), prompt, cfg,
                               np.random.default_rng(seed))
        assert got.tobytes() == want.tobytes(), seed


@pytest.mark.parametrize("strength, batches", [(1.0, 2), (0.0, 1)], ids=["guided", "unguided"])
def test_request_prepares_each_batch_once(monkeypatch, strength, batches):
    # One phoneme lookup per prepared batch, whatever the NFE.
    model, params = small_model()
    field = make_field_fn(model, params)
    lookup = seqmodel.embed_phonemes
    calls = {"n": 0}

    def counting(tokens, table):
        calls["n"] += 1
        return lookup(tokens, table)

    monkeypatch.setattr(seqmodel, "embed_phonemes", counting)
    for nfe in (1, 16):
        calls["n"] = 0
        integrate_batch(field, make_prompt(seed=nfe), GuidanceConfig(strength=strength, nfe=nfe),
                        np.random.default_rng(0))
        assert calls["n"] == batches, nfe


@pytest.mark.parametrize("stream", ["nv", "emo", "context"])
def test_prepared_field_rejects_non_finite_conditions(stream):
    model, params = small_model()
    prompt = make_prompt(seed=7)
    getattr(prompt, stream)[0, 0, 0] = np.nan  # a frame the mask leaves visible
    calls = {"n": 0}
    field = make_field_fn(model, params)

    def counting(inputs):  # counts the batches handed to the field
        calls["n"] += 1
        return field(inputs)

    with pytest.raises(FloatingPointError, match="^non-finite value in model input$"):
        integrate_batch(counting, prompt, GuidanceConfig(nfe=4), np.random.default_rng(0))
    assert calls["n"] == 1
