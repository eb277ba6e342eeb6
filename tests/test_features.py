import numpy as np
import pytest

from flowcond import (
    DatasetRecord,
    FeatureMatrix,
    FormatError,
    load_feature_matrix,
    store_feature_matrix,
    synth_condition_oracle,
)
from flowcond.features import (
    carrier_matrix,
    generate_corpus,
    load_phonemes,
    pattern_vector,
    read_manifest,
    store_phonemes,
    synth_phonemes,
    write_manifest,
)


def test_time_frame_conversions():
    from flowcond.features import frames_to_seconds

    assert frames_to_seconds(64, 100.0) == 0.64


# -- feature matrix file format -----------------------------------------------


def test_fmat_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(2)
    m = FeatureMatrix(rng.standard_normal((8, 50)).astype(np.float32), 100.0)
    p = tmp_path / "m.fmat"
    store_feature_matrix(m, p)
    back = load_feature_matrix(p)
    assert np.array_equal(back.values, m.values)
    assert back.frame_rate == 100.0
    # store -> load -> store reproduces the file byte for byte
    p2 = tmp_path / "m2.fmat"
    store_feature_matrix(back, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_fmat_bad_magic(tmp_path):
    p = tmp_path / "bad.fmat"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError, match="magic"):
        load_feature_matrix(p)


def test_fmat_truncated_payload(tmp_path):
    p = tmp_path / "m.fmat"
    store_feature_matrix(FeatureMatrix(np.zeros((8, 50), dtype=np.float32)), p)
    blob = p.read_bytes()
    p.write_bytes(blob[: 20 + 8 * 49 * 4])  # payload for 8 x 49 only
    with pytest.raises(FormatError, match="truncated payload"):
        load_feature_matrix(p)


def test_fmat_trailing_bytes(tmp_path):
    p = tmp_path / "m.fmat"
    store_feature_matrix(FeatureMatrix(np.zeros((2, 2), dtype=np.float32)), p)
    p.write_bytes(p.read_bytes() + b"xx")
    with pytest.raises(FormatError, match="trailing"):
        load_feature_matrix(p)


def test_fmat_dimension_overflow(tmp_path):
    import struct

    p = tmp_path / "m.fmat"
    p.write_bytes(b"FMAT" + struct.pack("<IIIf", 1, 2**20, 2**20, 100.0))
    with pytest.raises(FormatError, match="dimension overflow"):
        load_feature_matrix(p)


def test_fmat_nonfinite_payload_rejected(tmp_path):
    p = tmp_path / "m.fmat"
    for bad in (np.nan, np.inf, -np.inf):
        values = np.zeros((2, 5), dtype=np.float32)
        values[1, 3] = bad
        store_feature_matrix(FeatureMatrix(values), p)
        with pytest.raises(FormatError, match="non-finite"):
            load_feature_matrix(p)


@pytest.mark.parametrize("rate", [0.0, -100.0, float("nan"), float("inf")])
def test_fmat_bad_frame_rate_rejected(tmp_path, rate):
    p = tmp_path / "m.fmat"
    store_feature_matrix(FeatureMatrix(np.zeros((2, 5)), rate), p)
    with pytest.raises(FormatError, match="frame rate"):
        load_feature_matrix(p)


def test_phoneme_file_round_trip(tmp_path):
    tokens = np.array([0, 3, 3, 1, 7], dtype=np.int64)
    p = tmp_path / "t.phn"
    store_phonemes(tokens, p)
    assert np.array_equal(load_phonemes(p), tokens)


# -- synthetic oracle ----------------------------------------------------------


def test_oracle_constant_arousal_sets_column_norm():
    # generator law: column norm = 1 + arousal when nv is absent
    rng = np.random.default_rng(3)
    for _ in range(10):
        emo, nv, feats = synth_condition_oracle(
            "constant", 20, rng, feature_dim=8, with_nv=False
        )
        norms = np.linalg.norm(feats, axis=0)
        assert np.allclose(norms, 1.0 + emo[0], atol=1e-12)


def test_oracle_law_half_arousal_norm():
    # the generator law evaluated directly: arousal 0.5 scales every
    # column to amplitude 1.5
    feats = 1.5 * carrier_matrix(8, 12)
    assert np.allclose(np.linalg.norm(feats, axis=0), 1.5, atol=1e-12)


def test_oracle_step_single_discontinuity():
    rng = np.random.default_rng(4)
    emo, _, _ = synth_condition_oracle("step", 30, rng, with_nv=False)
    jumps = np.nonzero(np.diff(emo[0]))[0]
    assert len(jumps) == 1


def test_oracle_nv_gates_additive_pattern():
    rng = np.random.default_rng(5)
    emo, nv, feats = synth_condition_oracle("ramp", 16, rng, with_nv=False)
    assert np.all(nv == 0.0)
    carrier = carrier_matrix(8, 16)
    assert np.allclose(feats, (1.0 + emo[0]) * carrier, atol=1e-12)

    emo2, nv2, feats2 = synth_condition_oracle("ramp", 16, rng, with_nv=True)
    gate = np.linalg.norm(nv2, axis=0)
    assert gate.max() > 0.0
    expected = (1.0 + emo2[0]) * carrier_matrix(8, 16) + gate * pattern_vector(8)[:, None]
    assert np.allclose(feats2, expected, atol=1e-12)


def test_oracle_emo_in_range_all_kinds():
    rng = np.random.default_rng(6)
    for kind in ("constant", "ramp", "step", "sinusoid"):
        for _ in range(20):
            emo, _, _ = synth_condition_oracle(kind, 25, rng)
            assert emo.min() >= -0.5 and emo.max() <= 0.5


def test_carrier_columns_unit_norm():
    c = carrier_matrix(8, 200)
    assert np.allclose(np.linalg.norm(c, axis=0), 1.0, atol=1e-12)


def test_synth_phonemes_reserved_blank():
    tokens = synth_phonemes(100, np.random.default_rng(7), n_phonemes=16)
    assert tokens.min() >= 1 and tokens.max() < 16


# -- manifest ------------------------------------------------------------------


def make_record(i=0, **kw):
    base = dict(
        id=f"r{i}",
        features_path=f"r{i}.fmat",
        phonemes_path=f"r{i}.phn",
        nv_path=f"r{i}.nv.fmat",
        emo_path=f"r{i}.emo.fmat",
        duration_s=0.64,
        emotion_label="sad",
        emotion_confidence=0.5,
        ovlr=3.5,
        speaker_change=False,
    )
    base.update(kw)
    return DatasetRecord(**base)


def test_manifest_round_trip(tmp_path):
    records = [make_record(i) for i in range(5)]
    p = tmp_path / "m.jsonl"
    write_manifest(records, p)
    back = [rec for _, rec in read_manifest(p)]
    assert back == records


def test_manifest_malformed_line_reports_number(tmp_path):
    p = tmp_path / "m.jsonl"
    write_manifest([make_record(0)], p)
    with open(p, "a") as fh:
        fh.write("{not json\n")
    with pytest.raises(FormatError, match="line 2"):
        list(read_manifest(p))


def test_manifest_requires_boolean_speaker_change(tmp_path):
    p = tmp_path / "m.jsonl"
    line = (
        '{"id": "x", "features_path": "a", "phonemes_path": "b", "nv_path": "c",'
        ' "emo_path": "d", "duration_s": 1.0, "emotion_label": "sad",'
        ' "emotion_confidence": 0.5, "ovlr": 4.0, "speaker_change": "no"}'
    )
    p.write_text(line + "\n")
    with pytest.raises(FormatError, match="speaker_change"):
        list(read_manifest(p))


@pytest.mark.parametrize(
    "field, value",
    [
        ("ovlr", "5.0"),
        ("emotion_confidence", None),
        ("duration_s", True),
        ("ovlr", float("nan")),
        ("duration_s", float("inf")),
        pytest.param("ovlr", 10**400, id="ovlr-int-beyond-float"),
        ("id", 7),
        ("emotion_label", None),
    ],
)
def test_manifest_field_types_checked(tmp_path, field, value):
    p = tmp_path / "m.jsonl"
    write_manifest([make_record(0), make_record(1, **{field: value})], p)
    with pytest.raises(FormatError, match=f"line 2: {field} must be"):
        list(read_manifest(p))


def test_manifest_accepts_integer_numbers(tmp_path):
    p = tmp_path / "m.jsonl"
    write_manifest([make_record(0, ovlr=5, duration_s=1, emotion_confidence=0)], p)
    (_, rec), = read_manifest(p)
    assert (rec.ovlr, rec.duration_s, rec.emotion_confidence) == (5, 1, 0)


def test_manifest_missing_field(tmp_path):
    p = tmp_path / "m.jsonl"
    p.write_text('{"id": "x"}\n')
    with pytest.raises(FormatError, match="line 1"):
        list(read_manifest(p))


# -- corpus generator -----------------------------------------------------------


def test_generate_corpus_deterministic(tmp_path):
    m1 = generate_corpus(tmp_path / "a", "sinusoid", 6, 32, seed=7)
    m2 = generate_corpus(tmp_path / "b", "sinusoid", 6, 32, seed=7)
    files1 = sorted(p.name for p in (tmp_path / "a").iterdir())
    files2 = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert files1 == files2
    for name in files1:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert m1.name == m2.name


def test_generate_corpus_files_exist_and_load(tmp_path):
    manifest = generate_corpus(tmp_path / "c", "mixed", 8, 24, seed=1)
    count = 0
    for _, rec in read_manifest(manifest):
        count += 1
        feats = load_feature_matrix(manifest.parent / rec.features_path)
        assert feats.values.shape == (8, 24)
        tokens = load_phonemes(manifest.parent / rec.phonemes_path)
        assert tokens.shape == (24,)
        nv = load_feature_matrix(manifest.parent / rec.nv_path)
        assert nv.values.shape == (32, 24)
        emo = load_feature_matrix(manifest.parent / rec.emo_path)
        assert emo.values.shape == (2, 24)
    assert count == 8
