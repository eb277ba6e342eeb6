import numpy as np
import pytest

from flowcond import (
    BLANK_TOKEN,
    ConditionBundle,
    apply_condition_dropout,
    build_example,
    sample_mask,
    zero_conditions,
)


def make_bundle(T=6, F=4, rng=None):
    rng = rng or np.random.default_rng(0)
    bits = np.zeros(T, dtype=np.uint8)
    bits[: max(1, T // 2)] = 1
    return ConditionBundle(
        phonemes=rng.integers(1, 5, T),
        nv=rng.standard_normal((32, T)),
        emo=rng.uniform(-0.5, 0.5, (2, T)),
        context=rng.standard_normal((F, T)),
        mask=bits,
    )


def all_contiguous_masks(T):
    """Brute-force enumerator of every mask whose ones form one interval."""
    out = set()
    for start in range(T):
        for end in range(start + 1, T + 1):
            bits = np.zeros(T, dtype=np.uint8)
            bits[start:end] = 1
            out.add(bits.tobytes())
    return out


def bundle_with_mask(mask, T=3):
    return ConditionBundle(
        phonemes=np.ones(T, dtype=np.int64),
        nv=np.zeros((32, T)),
        emo=np.zeros((2, T)),
        context=np.zeros((4, T)),
        mask=mask,
    )


def test_mask_validation():
    with pytest.raises(ValueError):
        bundle_with_mask(np.array([0, 2, 1]))
    with pytest.raises(ValueError):
        bundle_with_mask(np.zeros((2, 3)))


def test_mask_validation_after_uint8_cast():
    # The mask is cast to uint8 before the check: -1 wraps to 255 and is
    # rejected; floats truncate, so 2.0 is rejected and 0.0/1.0 pass.
    with pytest.raises(ValueError, match="0 or 1"):
        bundle_with_mask(np.array([0, -1, 1]))
    with pytest.raises(ValueError, match="0 or 1"):
        bundle_with_mask(np.array([0.0, 2.0, 1.0]))
    mask = bundle_with_mask(np.array([1.0, 0.0, 1.0])).mask
    assert mask.dtype == np.uint8 and mask.tolist() == [1, 0, 1]
    empty = np.zeros(0, dtype=np.int64)
    assert bundle_with_mask(empty, T=0).mask.shape == (0,)
    # A bundle may be empty, but a training example must hide a frame.
    with pytest.raises(ValueError, match="at least one frame"):
        build_example(np.zeros((4, 0)), empty, np.zeros((32, 0)), np.zeros((2, 0)), empty)


def test_sample_mask_is_a_uint8_array():
    mask = sample_mask(7, np.random.default_rng(0))
    assert isinstance(mask, np.ndarray)
    assert mask.shape == (7,) and mask.dtype == np.uint8


def test_sample_mask_full_ratio():
    mask = sample_mask(9, np.random.default_rng(0), ratio_range=(1.0, 1.0))
    assert mask.sum() == 9


def test_sample_mask_half_ratio_span_and_contiguity():
    # r pinned at 0.5 over T=10 must give exactly 5 contiguous ones.
    legal = all_contiguous_masks(10)
    for seed in range(50):
        mask = sample_mask(10, np.random.default_rng(seed), ratio_range=(0.5, 0.5))
        assert mask.sum() == 5
        assert mask.tobytes() in legal


def test_sample_mask_deterministic():
    a = sample_mask(20, np.random.default_rng(5))
    b = sample_mask(20, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_sample_mask_domain():
    with pytest.raises(ValueError):
        sample_mask(0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_mask(5, np.random.default_rng(0), ratio_range=(0.0, 0.5))


def test_sample_mask_contiguous_exhaustive_small_T():
    # Every sampled mask must be one of the brute-force interval masks.
    for T in range(1, 13):
        legal = all_contiguous_masks(T)
        rng = np.random.default_rng(T)
        for _ in range(200):
            mask = sample_mask(T, rng, ratio_range=(0.1, 1.0))
            assert mask.tobytes() in legal
            assert mask.sum() >= 1


def test_build_example_full_mask():
    rng = np.random.default_rng(1)
    T, F = 5, 3
    feats = rng.standard_normal((F, T))
    cond = build_example(
        feats,
        rng.integers(0, 4, T),
        rng.standard_normal((32, T)),
        rng.uniform(-0.5, 0.5, (2, T)),
        np.ones(T, dtype=np.uint8),
    )
    assert cond.context.shape == feats.shape
    assert np.all(cond.context == 0.0)


def test_build_example_rejects_empty_mask():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        build_example(
            rng.standard_normal((3, 4)),
            rng.integers(0, 4, 4),
            rng.standard_normal((32, 4)),
            rng.uniform(-0.5, 0.5, (2, 4)),
            np.zeros(4, dtype=np.uint8),
        )


def test_reconstruction_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        T, F = int(rng.integers(2, 12)), int(rng.integers(1, 6))
        feats = rng.standard_normal((F, T))
        mask = sample_mask(T, rng, ratio_range=(0.2, 0.9))
        cond = build_example(
            feats,
            rng.integers(0, 4, T),
            rng.standard_normal((32, T)),
            rng.uniform(-0.5, 0.5, (2, T)),
            mask,
        )
        # each element is either zeroed under the mask or copied exactly
        hidden = mask == 1
        assert np.all(cond.context[:, hidden] == 0.0)
        assert np.array_equal(cond.context[:, ~hidden], feats[:, ~hidden])


def test_bundle_length_mismatch():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        ConditionBundle(
            phonemes=rng.integers(0, 4, 5),
            nv=rng.standard_normal((32, 6)),
            emo=rng.uniform(-0.5, 0.5, (2, 5)),
            context=rng.standard_normal((3, 5)),
            mask=np.ones(5, dtype=np.uint8),
        )


def test_bundle_emo_range():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        ConditionBundle(
            phonemes=rng.integers(0, 4, 5),
            nv=rng.standard_normal((32, 5)),
            emo=np.full((2, 5), 0.7),
            context=rng.standard_normal((3, 5)),
            mask=np.ones(5, dtype=np.uint8),
        )


def test_dropout_identity_at_zero():
    cond = make_bundle()
    out = apply_condition_dropout(cond, 0.0, np.random.default_rng(0))
    assert out is cond


def test_dropout_always_at_one():
    cond = make_bundle()
    out = apply_condition_dropout(cond, 1.0, np.random.default_rng(0))
    assert np.all(out.context == 0.0)
    assert np.all(out.nv == 0.0)
    assert np.all(out.emo == 0.0)
    assert np.all(out.phonemes == BLANK_TOKEN)
    assert np.array_equal(out.mask, cond.mask)


def test_dropout_rate_concentration():
    cond = make_bundle()
    rng = np.random.default_rng(17)
    dropped = sum(
        1
        for _ in range(10_000)
        if np.all(apply_condition_dropout(cond, 0.2, rng).nv == 0.0)
    )
    assert abs(dropped / 10_000 - 0.2) < 0.02


def test_dropout_all_or_nothing():
    cond = make_bundle()
    rng = np.random.default_rng(23)
    for _ in range(500):
        out = apply_condition_dropout(cond, 0.5, rng)
        zeroed = [
            np.all(out.context == 0.0),
            np.all(out.nv == 0.0),
            np.all(out.emo == 0.0),
            np.all(out.phonemes == BLANK_TOKEN),
        ]
        assert all(zeroed) or not any(zeroed)


def test_zero_conditions_preserves_mask():
    cond = make_bundle()
    z = zero_conditions(cond)
    assert np.array_equal(z.mask, cond.mask)
    assert np.all(z.context == 0.0) and np.all(z.emo == 0.0)
