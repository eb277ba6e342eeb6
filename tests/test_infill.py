import numpy as np
import pytest

from flowcond import (
    BLANK_TOKEN,
    BatchInputs,
    sample_mask,
)
from flowcond import infill
from flowcond.training import Corpus, draw_batch


def make_batch(B=3, T=6, F=4, rng=None):
    rng = rng or np.random.default_rng(0)
    bits = np.zeros((B, T))
    bits[:, : max(1, T // 2)] = 1.0
    return BatchInputs(
        x_t=rng.standard_normal((B, F, T)),
        t=rng.uniform(0.0, 1.0, B),
        tokens=rng.integers(1, 5, (B, T)),
        nv=rng.standard_normal((B, 32, T)),
        emo=rng.uniform(-0.5, 0.5, (B, 2, T)),
        context=rng.standard_normal((B, F, T)),
        mask_bits=bits,
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


def one_row(T, F, **streams):
    """Fields of a valid one-row batch of length T, with ``streams`` replacing some."""
    fields = dict(
        x_t=np.zeros((1, F, T)),
        t=np.zeros(1),
        tokens=np.ones((1, T), dtype=np.int64),
        nv=np.zeros((1, 32, T)),
        emo=np.zeros((1, 2, T)),
        context=np.zeros((1, F, T)),
        mask_bits=np.ones((1, T)),
    )
    return {**fields, **streams}


@pytest.mark.parametrize("T, F, streams, match", [
    (3, 4, dict(mask_bits=np.array([[0, 2, 1]])), "0 or 1"),
    (3, 4, dict(mask_bits=np.array([[0, -1, 1]])), "0 or 1"),
    (3, 4, dict(mask_bits=np.array([[0.0, 2.0, 1.0]])), "0 or 1"),
    (3, 4, dict(mask_bits=np.array([[0.5, 1.0, 1.0]])), "0 or 1"),
    (3, 4, dict(mask_bits=np.zeros((2, 3))), "mask_bits must have shape"),
    (5, 3, dict(tokens=np.ones((1, 6), dtype=np.int64)), "tokens must have shape"),
    (5, 3, dict(nv=np.zeros((1, 32, 6))), "nv must have shape"),
    (5, 3, dict(emo=np.zeros((1, 2, 4))), "emo must have shape"),
    (5, 3, dict(context=np.zeros((1, 2, 5))), "context must have shape"),
    (5, 3, dict(t=np.zeros(2)), "t must have shape"),
    (5, 3, dict(x_t=np.zeros((3, 5))), "x_t must be B x F x T"),
    (5, 3, dict(emo=np.full((1, 2, 5), 0.7)), r"emo values must lie in \[-0.5, 0.5\]"),
], ids=["mask-2", "mask-minus-1", "mask-2.0", "mask-0.5", "mask-shape", "tokens", "nv", "emo",
        "context", "t", "x_t-2d", "emo-range"])
def test_batch_rejects_bad_rows(T, F, streams, match):
    with pytest.raises(ValueError, match=match):
        BatchInputs(**one_row(T, F, **streams))


def test_batch_rejects_rows_that_disagree_in_feature_count():
    # Prompts whose context shapes differ cannot share one batch.
    rows = one_row(3, 2, mask_bits=np.array([[0.0, 1.0, 1.0]]))
    rows = {k: np.concatenate([v, v]) for k, v in rows.items()}
    rows["context"] = np.zeros((2, 3, 3))
    with pytest.raises(ValueError, match="context must have shape"):
        BatchInputs(**rows)


def test_mask_validation():
    for bits in (np.array([[1.0, 0.0, 1.0]]), np.array([[1, 0, 1]], dtype=np.uint8)):
        assert BatchInputs(**one_row(3, 4, mask_bits=bits)).mask_bits.tolist() == [[1, 0, 1]]
    # A batch may be empty along T or B, but a training row must hide a frame.
    assert BatchInputs(**one_row(0, 4)).mask_bits.shape == (1, 0)
    empty = BatchInputs(**{k: v[:0] for k, v in one_row(3, 4).items()})
    assert empty.x_t.shape == (0, 4, 3)
    rows = one_row(0, 4)
    rows["features"] = rows.pop("context")
    with pytest.raises(ValueError, match="at least one frame"):
        BatchInputs.from_examples(**rows)


def test_sample_mask_is_a_uint8_array():
    mask = sample_mask(3, 7, np.random.default_rng(0))
    assert isinstance(mask, np.ndarray)
    assert mask.shape == (3, 7) and mask.dtype == np.uint8


def test_sample_mask_full_ratio(monkeypatch):
    # The span law at a pinned ratio: r = 1 masks every frame.
    monkeypatch.setattr(infill, "MASK_RATIO_RANGE", (1.0, 1.0))
    masks = sample_mask(4, 9, np.random.default_rng(0))
    assert np.all(masks == 1)


def test_sample_mask_half_ratio_span_and_contiguity(monkeypatch):
    # r pinned at 0.5 over T=10 must give exactly 5 contiguous ones.
    monkeypatch.setattr(infill, "MASK_RATIO_RANGE", (0.5, 0.5))
    legal = all_contiguous_masks(10)
    for seed in range(50):
        mask = sample_mask(1, 10, np.random.default_rng(seed))[0]
        assert mask.sum() == 5
        assert mask.tobytes() in legal


def test_sample_mask_spans_cover_70_to_100_percent():
    # round(r * T) frames for r in [0.7, 1]: over T=10, one contiguous run of
    # 7 to 10 ones, each length drawn; T=1 always masks its one frame.
    legal = all_contiguous_masks(10)
    masks = sample_mask(400, 10, np.random.default_rng(0))
    assert all(mask.tobytes() in legal for mask in masks)
    assert set(masks.sum(axis=1).tolist()) == {7, 8, 9, 10}
    assert np.all(sample_mask(5, 1, np.random.default_rng(0)) == 1)


def test_sample_mask_deterministic():
    a = sample_mask(5, 20, np.random.default_rng(5))
    b = sample_mask(5, 20, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_sample_mask_domain():
    with pytest.raises(ValueError):
        sample_mask(1, 0, np.random.default_rng(0))


def test_sample_mask_contiguous_exhaustive_small_T():
    # Every row of a sampled batch must be one of the brute-force interval masks.
    for T in range(1, 13):
        legal = all_contiguous_masks(T)
        masks = sample_mask(200, T, np.random.default_rng(T))
        assert masks.shape == (200, T)
        for mask in masks:
            assert mask.tobytes() in legal
            assert mask.sum() >= 1


def scalar_mask(T, rng, ratio_range):
    """One mask drawn with scalar draws: the reference law for a single row."""
    span = int(np.floor(rng.uniform(*ratio_range) * T + 0.5))
    start = int(rng.integers(0, T - span + 1))
    bits = np.zeros(T, dtype=np.uint8)
    bits[start : start + span] = 1
    return bits


@pytest.mark.parametrize("ratio_range", [infill.MASK_RATIO_RANGE, (0.5, 0.5), (0.1, 1.0)])
def test_sample_mask_single_row_matches_scalar_draw(monkeypatch, ratio_range):
    # A one-row batch consumes the generator exactly as one scalar draw.
    monkeypatch.setattr(infill, "MASK_RATIO_RANGE", ratio_range)
    for T in (1, 7, 48):
        for seed in range(200):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            mask = sample_mask(1, T, rng)[0]
            assert mask.tobytes() == scalar_mask(T, ref_rng, ratio_range).tobytes()
            assert rng.random() == ref_rng.random()


def test_from_examples_full_mask():
    rng = np.random.default_rng(1)
    T, F = 5, 3
    feats = rng.standard_normal((F, T))
    batch = BatchInputs.from_examples(
        np.zeros((1, F, T)),
        np.zeros(1),
        rng.integers(0, 4, (1, T)),
        rng.standard_normal((1, 32, T)),
        rng.uniform(-0.5, 0.5, (1, 2, T)),
        feats[None],
        np.ones((1, T), dtype=np.uint8),
    )
    assert batch.context.shape == (1, F, T)
    assert np.all(batch.context == 0.0)
    for name in ("x_t", "t", "nv", "emo", "context", "mask_bits"):
        assert getattr(batch, name).dtype == np.float64, name


def test_from_examples_rejects_empty_mask():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError, match="at least one frame"):
        BatchInputs.from_examples(
            np.zeros((1, 3, 4)),
            np.zeros(1),
            rng.integers(0, 4, (1, 4)),
            rng.standard_normal((1, 32, 4)),
            rng.uniform(-0.5, 0.5, (1, 2, 4)),
            rng.standard_normal((1, 3, 4)),
            np.zeros((1, 4), dtype=np.uint8),
        )


def test_reconstruction_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        T, F = int(rng.integers(2, 12)), int(rng.integers(1, 6))
        feats = rng.standard_normal((F, T))
        span = int(rng.integers(1, T))  # 1 to T-1 frames: some hidden, some visible
        start = int(rng.integers(0, T - span + 1))
        mask = np.zeros(T, dtype=np.uint8)
        mask[start : start + span] = 1
        batch = BatchInputs.from_examples(
            np.zeros((1, F, T)),
            np.zeros(1),
            rng.integers(0, 4, (1, T)),
            rng.standard_normal((1, 32, T)),
            rng.uniform(-0.5, 0.5, (1, 2, T)),
            feats[None],
            mask[None],
        )
        # each element is either zeroed under the mask or copied exactly
        hidden = mask == 1
        assert np.all(batch.context[0][:, hidden] == 0.0)
        assert np.array_equal(batch.context[0][:, ~hidden], feats[:, ~hidden])


def make_corpus(n=8, T=6, F=4, seed=0):
    """Random records with no blank phoneme and no all-zero stream."""
    rng = np.random.default_rng(seed)
    return Corpus(rng.standard_normal((n, F, T)), rng.integers(1, 5, (n, T)),
                  rng.standard_normal((n, 32, T)), rng.uniform(-0.5, 0.5, (n, 2, T)))


def dropout_pair(corpus, p_drop, seed, B=64):
    """The same batch draw without and with dropout; the coins are drawn either way."""
    plain = draw_batch([corpus], [1.0], B, 0.0, np.random.default_rng(seed))
    dropped = draw_batch([corpus], [1.0], B, p_drop, np.random.default_rng(seed))
    return plain[0], dropped[0], (dropped[0].tokens != plain[0].tokens).any(axis=1)


def test_dropout_identity_at_zero():
    corpus = make_corpus()
    for seed in range(20):
        plain, out, drop = dropout_pair(corpus, 0.0, seed)
        assert not drop.any()
        assert not np.any((out.tokens == BLANK_TOKEN).all(axis=1))
        assert np.all(np.abs(out.emo).max(axis=(1, 2)) > 0.0)


def test_dropout_always_at_one():
    plain, out, drop = dropout_pair(make_corpus(), 1.0, seed=0)
    assert drop.all()
    assert np.all(out.tokens == BLANK_TOKEN)
    for name in ("nv", "emo", "context"):
        assert np.all(getattr(out, name) == 0.0), name
    # the mask, and the path sample it infills, stay
    for name in ("x_t", "t", "mask_bits"):
        assert np.array_equal(getattr(out, name), getattr(plain, name)), name


def test_dropout_rate_concentration():
    corpus = make_corpus()
    drops = [dropout_pair(corpus, 0.2, seed)[2] for seed in range(160)]
    assert abs(np.mean(drops) - 0.2) < 0.02  # 10,240 rows


def test_dropout_all_or_nothing():
    plain, out, drop = dropout_pair(make_corpus(), 0.5, seed=23, B=500)
    assert drop.any() and not drop.all()
    # context is also zero on a kept row whose mask covers every frame
    zeroed = np.stack([
        (out.tokens == BLANK_TOKEN).all(axis=1),
        (out.nv == 0.0).all(axis=(1, 2)),
        (out.emo == 0.0).all(axis=(1, 2)),
    ])
    assert np.all(zeroed.all(axis=0) | ~zeroed.any(axis=0))
    assert np.array_equal(zeroed[0], drop)
    assert np.all(out.context[drop] == 0.0)
    for name in ("tokens", "nv", "emo", "context"):
        assert np.array_equal(getattr(out, name)[~drop], getattr(plain, name)[~drop]), name


def test_blank_rows_in_place():
    batch = make_batch(B=4)
    before = {k: v.copy() for k, v in vars(batch).items()}
    rows = np.array([True, False, True, False])
    batch.blank(rows)
    assert np.all(batch.tokens[rows] == BLANK_TOKEN)
    for name in ("nv", "emo", "context"):
        assert np.all(getattr(batch, name)[rows] == 0.0), name
    for name in ("x_t", "t", "mask_bits"):
        assert np.array_equal(getattr(batch, name), before[name]), name
    for name in ("tokens", "nv", "emo", "context"):
        assert np.array_equal(getattr(batch, name)[~rows], before[name][~rows]), name
