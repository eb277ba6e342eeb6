import numpy as np
import pytest

import flowcond.training as training
from flowcond import PathConfig, TrainingDivergedError, load_checkpoint
from flowcond.features import FormatError, generate_corpus, store_feature_matrix
from flowcond.fm_core import conditional_vector_field
from flowcond.seqmodel import ModelConfig
from flowcond.training import (
    Corpus,
    TrainSettings,
    check_corpora,
    draw_batch,
    load_corpus,
    train_loop,
)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    generate_corpus(out, "mixed", 8, 20, seed=42)
    return load_corpus(out / "manifest.jsonl")


def test_load_corpus_shapes(small_corpus):
    assert len(small_corpus) == 8
    assert small_corpus.features.shape == (8, 8, 20)
    assert small_corpus.phonemes.shape == (8, 20)
    assert small_corpus.nv.shape == (8, 32, 20)
    assert small_corpus.emo.shape == (8, 2, 20)
    for ex in small_corpus:
        assert ex.features.shape == (8, 20)
        assert ex.phonemes.shape == (20,)
        assert ex.nv.shape == (32, 20)
        assert ex.emo.shape == (2, 20)


def test_corpus_records_share_memory_with_stacks(small_corpus):
    for k, ex in enumerate(small_corpus):
        for name in ("features", "phonemes", "nv", "emo"):
            stack = getattr(small_corpus, name)
            assert np.shares_memory(getattr(ex, name), stack)
            assert np.array_equal(getattr(small_corpus[k], name), stack[k])
    assert small_corpus.features.dtype == np.float64


def stacks(n=3, f=2, t=4):
    rng = np.random.default_rng(0)
    return dict(features=rng.standard_normal((n, f, t)), phonemes=np.ones((n, t), dtype=np.int64),
                nv=rng.standard_normal((n, 32, t)), emo=rng.uniform(-0.5, 0.5, (n, 2, t)))


@pytest.mark.parametrize("name, shape", [
    ("features", (3, 4)), ("phonemes", (3, 5)), ("nv", (3, 16, 4)), ("emo", (2, 2, 4)),
], ids=["features-2d", "phoneme-length", "nv-rows", "emo-records"])
def test_corpus_rejects_misaligned_stacks(name, shape):
    with pytest.raises(ValueError, match="not frame-aligned"):
        Corpus(**{**stacks(), name: np.zeros(shape)})


@pytest.mark.parametrize("name, value, problem", [
    ("features", np.nan, "non-finite"), ("nv", np.inf, "non-finite"),
    ("emo", np.nan, "non-finite"), ("emo", 0.6, r"emo values outside \[-0.5, 0.5\]"),
], ids=["features-nan", "nv-inf", "emo-nan", "emo-range"])
def test_corpus_rejects_bad_values_naming_the_record(name, value, problem):
    arrays = stacks()
    arrays[name][1, 0, 2] = value
    with pytest.raises(training.CorpusValueError, match=f"record 1 has {problem}") as exc:
        Corpus(**arrays)
    assert exc.value.record == 1


def test_load_corpus_rejects_an_empty_manifest(tmp_path):
    generate_corpus(tmp_path, "mixed", 0, 20, seed=1)
    with pytest.raises(FormatError, match="has no records"):
        load_corpus(tmp_path / "manifest.jsonl")
    with pytest.raises(ValueError, match="not frame-aligned"):
        Corpus(**stacks(n=0))


def test_load_corpus_rejects_a_record_of_another_shape(tmp_path):
    generate_corpus(tmp_path, "mixed", 3, 20, seed=1)
    store_feature_matrix(np.zeros((4, 20)), tmp_path / "mixed_00002.fmat")
    with pytest.raises(FormatError) as exc:
        load_corpus(tmp_path / "manifest.jsonl")
    assert str(exc.value).startswith("manifest line 3: record 'mixed_00002' has ")
    assert "shapes ((4, 20), (20,), (32, 20), (2, 20)), want ((8, 20), " in str(exc.value)


def test_train_loop_history_and_determinism(small_corpus):
    cfg = ModelConfig(feature_dim=8)
    settings = TrainSettings(steps=6, batch_frames=60, peak_lr=1e-3, seed=3)
    p1, h1, _ = train_loop(cfg, [small_corpus], [1.0], settings)
    p2, h2, _ = train_loop(cfg, [small_corpus], [1.0], settings)
    assert h1 == h2
    for k in p1:
        assert np.array_equal(p1[k], p2[k])


def test_train_loop_zero_steps_keeps_initial_checkpoint(small_corpus, tmp_path):
    cfg = ModelConfig(feature_dim=8)
    ck = tmp_path / "ck.fmck"
    settings = TrainSettings(steps=0, seed=1)
    params, history, _ = train_loop(
        cfg, [small_corpus], [1.0], settings, checkpoint_path=ck
    )
    assert history == []
    _, loaded = load_checkpoint(ck)
    for k in params:
        assert np.allclose(loaded[k], params[k], atol=0)


def test_train_loop_ratio_validation(small_corpus):
    cfg = ModelConfig(feature_dim=8)
    with pytest.raises(ValueError):
        train_loop(cfg, [small_corpus], [0.5, 0.5], TrainSettings(steps=1))
    with pytest.raises(ValueError, match="sum to 1"):
        check_corpora([small_corpus, small_corpus], [0.3, 0.3])


def test_train_loop_rejects_mixed_lengths(small_corpus, tmp_path):
    other_dir = tmp_path / "other"
    generate_corpus(other_dir, "mixed", 3, 30, seed=1)
    other = load_corpus(other_dir / "manifest.jsonl")
    cfg = ModelConfig(feature_dim=8)
    with pytest.raises(ValueError, match="frame length"):
        train_loop(cfg, [small_corpus, other], [0.5, 0.5], TrainSettings(steps=1))


def test_periodic_snapshots_written(small_corpus, tmp_path):
    cfg = ModelConfig(feature_dim=8)
    ck = tmp_path / "ck.fmck"
    settings = TrainSettings(steps=6, batch_frames=40, checkpoint_every=3, seed=4)
    train_loop(cfg, [small_corpus], [1.0], settings, checkpoint_path=ck)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["ck.fmck", "ck_step000003.fmck", "ck_step000006.fmck"]
    for name in names:
        load_checkpoint(tmp_path / name)


def test_divergence_retains_last_checkpoint(small_corpus, tmp_path, monkeypatch):
    cfg = ModelConfig(feature_dim=8)
    ck = tmp_path / "ck.fmck"
    real_step = training.train_step
    calls = {"n": 0}

    def failing_step(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > 4:
            raise TrainingDivergedError("non-finite loss at optimizer step 5")
        return real_step(*args, **kwargs)

    monkeypatch.setattr(training, "train_step", failing_step)
    settings = TrainSettings(steps=10, batch_frames=60, checkpoint_every=2, seed=2)
    with pytest.raises(TrainingDivergedError):
        train_loop(cfg, [small_corpus], [1.0], settings, checkpoint_path=ck)
    # the step-4 checkpoint written before the failure is still loadable
    cfg_loaded, params = load_checkpoint(ck)
    assert cfg_loaded == cfg
    assert all(np.isfinite(v).all() for v in params.values())


# -- the batch draw --------------------------------------------------------


def one_record(corpus, k=0):
    return Corpus(*(stack[k : k + 1] for stack in (corpus.features, corpus.phonemes,
                                                    corpus.nv, corpus.emo)))


def test_draw_batch_flow_targets_consistent(small_corpus):
    # With one record every row's data sample x1 is known.
    cfg = PathConfig(sigma_min=1e-3)
    x1 = small_corpus.features[3]
    inputs, u_target, _ = draw_batch([one_record(small_corpus, 3)], [1.0], 16, 0.0, cfg,
                                     np.random.default_rng(8))
    assert inputs.x_t.shape == u_target.shape == (16, 8, 20)
    for x_t, t, u in zip(inputs.x_t, inputs.t, u_target):
        assert 0.0 <= t <= 1.0
        x0 = (x1 - u) / (1.0 - cfg.sigma_min)
        assert np.max(np.abs(x_t - (t * x1 + (1.0 - (1.0 - cfg.sigma_min) * t) * x0))) < 1e-12
        assert np.max(np.abs(conditional_vector_field(x_t, x1, t, cfg) - u)) < 1e-10
    hidden = inputs.mask_bits[:, None, :] == 1.0
    assert np.all(inputs.context[np.broadcast_to(hidden, inputs.context.shape)] == 0.0)
    visible = np.broadcast_to(~hidden, inputs.context.shape)
    assert np.array_equal(inputs.context[visible], np.broadcast_to(x1, visible.shape)[visible])


def test_draw_batch_sources_follow_ratios():
    # Each corpus marks its rows: nv is +0.1 in the first and -0.1 in the
    # second, and a record's phoneme id is its index plus one.
    corpora = []
    for sign, n in ((1.0, 3), (-1.0, 5)):
        corpora.append(Corpus(np.ones((n, 2, 1)), np.arange(1, n + 1)[:, None],
                              np.full((n, 32, 1), 0.1 * sign), np.zeros((n, 2, 1))))
    inputs, _, sources = draw_batch(corpora, [0.5, 0.5], 10_000, 0.0, PathConfig(),
                                    np.random.default_rng(0))
    assert abs(np.mean(sources == 0) - 0.5) < 0.03
    for s, corpus in enumerate(corpora):
        rows = sources == s
        assert np.all(inputs.nv[rows] == corpus.nv[0, 0, 0])
        assert set(np.unique(inputs.tokens[rows])) == set(range(1, len(corpus) + 1))
