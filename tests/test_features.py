import json
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
    manifest_line,
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


@pytest.mark.parametrize("rec", [
    make_record(0, id="r\u00e9\u58f0-\U0001f600", speaker_change=True),
    make_record(1, ovlr=5.0, duration_s=1, emotion_confidence=0.0, speaker_change=False),
    make_record(2, emotion_label="\u00fcber", ovlr=-0.0, duration_s=1e-7),
], ids=["non-ascii-id", "int-valued-floats", "non-ascii-label"])
def test_manifest_line_matches_json_dumps(rec):
    assert manifest_line(rec) == json.dumps(vars(rec), sort_keys=True)


def test_manifest_missing_field(tmp_path):
    p = tmp_path / "m.jsonl"
    p.write_text('{"id": "x"}\n')
    with pytest.raises(FormatError, match="line 1"):
        list(read_manifest(p))


# The manifest reader before it decoded with one reusable JSONDecoder:
# json.loads per line and isinstance checks on the built record.  Kept as
# the reference its replacement must match record for record and message
# for message.
_REF_TYPES = {
    f.name: {"str": str, "float": float, "bool": bool}[f.type] for f in fields(DatasetRecord)
}
_REF_WORDS = {str: "a string", float: "a finite number", bool: "a boolean"}


def reference_read_manifest(path):
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"manifest line {lineno}: invalid JSON ({exc})") from exc
            try:
                rec = DatasetRecord(**obj)
            except TypeError as exc:
                raise FormatError(f"manifest line {lineno}: {exc}") from exc
            for name, kind in _REF_TYPES.items():
                value = getattr(rec, name)
                if kind is float:
                    ok = (
                        isinstance(value, (int, float))
                        and not isinstance(value, bool)
                        and -sys.float_info.max <= value <= sys.float_info.max
                    )
                else:
                    ok = isinstance(value, kind)
                if not ok:
                    raise FormatError(
                        f"manifest line {lineno}: {name} must be {_REF_WORDS[kind]}, "
                        f"got {value!r}"
                    )
            yield lineno, rec


def manifest_outcome(reader, path):
    """The (line, repr) of each record read, then the FormatError message or None.
    repr tells 5 from 5.0 and 1 from True."""
    read = []
    try:
        for lineno, rec in reader(path):
            read.append((lineno, repr(rec)))
    except FormatError as exc:
        return read, str(exc)
    return read, None


# Raw JSON number and literal spellings a value can be swapped for.
_RAW_VALUES = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", str(10**400), "-0", "7",
               "0.5", "true", "null", '"x"', "[]", "{}"]
_FIELD_NAMES = [f.name for f in fields(DatasetRecord)]
_json_values = st.sampled_from([None, True, False, 0, 1, -1, 0.5, -0.0, "", "sad", [], {}]) | (
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                      max_size=3),
        max_leaves=6,
    )
)


@st.composite
def mutated_manifest_lines(draw):
    """A canonical manifest line with up to two key or value changes, then
    up to one change to its text."""
    obj = vars(make_record(draw(st.integers(0, 99))))
    raw = {}
    changes = st.tuples(st.sampled_from(_FIELD_NAMES),
                        st.sampled_from(["drop", "add", "swap", "raw"]))
    for name, change in draw(st.lists(changes, max_size=2)):
        if change == "drop":
            obj.pop(name, None)
        elif change == "add":
            obj[draw(st.text(max_size=12))] = draw(_json_values)
        elif change == "swap":
            obj[name] = draw(_json_values)
        else:
            obj[name] = placeholder = f"\u0000raw{len(raw)}\u0000"
            raw[json.dumps(placeholder)] = draw(st.sampled_from(_RAW_VALUES))
    line = json.dumps(obj, sort_keys=True)
    for placeholder, value in raw.items():
        line = line.replace(placeholder, value)
    edit = draw(st.sampled_from(["none", "repeat", "bom", "trailing", "truncate"]))
    if edit == "repeat":
        key = json.dumps(draw(st.sampled_from(_FIELD_NAMES)))
        pair = f"{key}: {json.dumps(draw(_json_values))}"
        if line == "{}":
            line = "{" + pair + "}"
        elif draw(st.booleans()):
            line = line[:-1] + ", " + pair + "}"
        else:
            line = "{" + pair + ", " + line[1:]
    elif edit == "bom":
        line = "\ufeff" + line
    elif edit == "trailing":
        suffix = draw(st.text(st.characters(blacklist_categories=("Cs",)), min_size=1,
                              max_size=6))
        line += draw(st.sampled_from(["", " "])) + suffix
    elif edit == "truncate":
        line = line[: draw(st.integers(0, len(line)))]
    return line


@settings(derandomize=True, max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(line=mutated_manifest_lines())
def test_read_manifest_matches_reference_on_mutated_lines(tmp_path, line):
    p = tmp_path / "m.jsonl"
    p.write_text(manifest_line(make_record(7)) + "\n" + line + "\n")
    assert manifest_outcome(read_manifest, p) == manifest_outcome(reference_read_manifest, p)


_CANONICAL = manifest_line(make_record(0))


@pytest.mark.parametrize("line, message", [
    ("\ufeff" + _CANONICAL,
     "invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0))"),
    (_CANONICAL + " x",
     f"invalid JSON (Extra data: line 1 column {len(_CANONICAL) + 2} "
     f"(char {len(_CANONICAL) + 1}))"),
    (_CANONICAL + "x",
     f"invalid JSON (Extra data: line 1 column {len(_CANONICAL) + 1} (char {len(_CANONICAL)}))"),
    ("{} {}", "invalid JSON (Extra data: line 1 column 4 (char 3))"),
    (manifest_line(make_record(0, duration_s="1", id=7)), "id must be a string, got 7"),
], ids=["bom", "trailing-after-space", "trailing", "two-objects", "two-bad-fields"])
def test_read_manifest_error_messages_pinned(tmp_path, line, message):
    p = tmp_path / "m.jsonl"
    p.write_text(line + "\n")
    want = ([], f"manifest line 1: {message}")
    assert manifest_outcome(read_manifest, p) == want
    assert manifest_outcome(reference_read_manifest, p) == want


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


@pytest.mark.parametrize(
    "kind, count, T, extra, message",
    [
        ("mixed", -2, 8, {}, "count must be >= 0"),
        ("mixed", 2, 0, {}, "T must be >= 1"),
        ("mixed", 2, 8, {"feature_dim": 0}, "feature_dim must be >= 1"),
        ("mixed", 2, 8, {"n_phonemes": 1}, "n_phonemes must be >= 2"),
        ("bogus", 2, 8, {}, "unknown corpus kind"),
    ],
    ids=["count", "T", "feature-dim", "n-phonemes", "kind"],
)
def test_generate_corpus_checks_arguments_before_creating_anything(tmp_path, kind, count, T,
                                                                   extra, message):
    out = tmp_path / "c"
    with pytest.raises(ValueError, match=message):
        generate_corpus(out, kind, count, T, seed=0, **extra)
    assert not out.exists()
