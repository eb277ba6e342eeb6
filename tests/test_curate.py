import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings

from flowcond import (
    emotion_gate,
    features,
    quality_gate,
    run_pipeline,
    speaker_gate,
)
from flowcond.cli import main
from flowcond.curate import first_failing_gate
from flowcond.features import (
    DatasetRecord,
    FormatError,
    manifest_line,
    read_manifest,
    write_manifest,
)
from test_features import mutated_manifest_lines, reference_read_manifest

OVLR_MIN = 3.0


def make_record(i, label="sad", conf=0.5, ovlr=4.0, change=False):
    return DatasetRecord(
        id=f"r{i:04d}",
        features_path=f"r{i}.fmat",
        phonemes_path=f"r{i}.phn",
        nv_path=f"r{i}.nv.fmat",
        emo_path=f"r{i}.emo.fmat",
        duration_s=1.0,
        emotion_label=label,
        emotion_confidence=conf,
        ovlr=ovlr,
        speaker_change=change,
    )


def random_records(n, seed):
    rng = np.random.default_rng(seed)
    labels = ["angry", "disgusted", "fearful", "sad", "surprised", "neutral", "happy"]
    out = []
    for i in range(n):
        conf = float(rng.choice([0.0, 0.3, 0.7, 0.999, 1.0]))
        out.append(
            make_record(
                i,
                label=labels[int(rng.integers(len(labels)))],
                conf=conf,
                ovlr=float(rng.choice([1.0, 2.9, 3.0, 3.0001, 4.2, 5.0])),
                change=bool(rng.uniform() < 0.2),
            )
        )
    return out


def brute_force_keep(rec, ovlr_min=OVLR_MIN):
    """Independent restatement of the retention rules."""
    emo_ok = rec.emotion_label in {"angry", "disgusted", "fearful", "sad", "surprised"} or (
        rec.emotion_label in {"neutral", "happy"}
        and rec.emotion_confidence >= 1.0
    )
    return emo_ok and rec.ovlr > ovlr_min and not rec.speaker_change


# -- individual gates ----------------------------------------------------------


def test_emotion_gate_five_class_any_confidence():
    assert emotion_gate("sad", 0.3)
    assert emotion_gate("fearful", 0.0)  # boundary of the rule
    assert emotion_gate("angry", 1.0)


def test_emotion_gate_strict_classes_need_full_confidence():
    assert not emotion_gate("neutral", 0.9)
    assert emotion_gate("happy", 1.0)
    assert emotion_gate("neutral", 1.0)


def test_emotion_gate_unknown_label():
    with pytest.raises(ValueError):
        emotion_gate("bored", 0.5)


def test_emotion_gate_bad_confidence():
    with pytest.raises(ValueError):
        emotion_gate("sad", 1.5)


def test_quality_gate_strict_threshold():
    assert not quality_gate(3.0, OVLR_MIN)  # strictly greater than
    assert quality_gate(3.0001, OVLR_MIN)
    assert quality_gate(5.0, OVLR_MIN)


def test_quality_gate_nan_rejected():
    with pytest.raises(ValueError):
        quality_gate(float("nan"), OVLR_MIN)


def test_speaker_gate():
    assert not speaker_gate(True)
    assert speaker_gate(False)


# -- pipeline ------------------------------------------------------------------


def test_pipeline_matches_brute_force_oracle(tmp_path):
    records = random_records(1000, seed=31)
    src = tmp_path / "in.jsonl"
    dst = tmp_path / "out.jsonl"
    write_manifest(records, src)
    report = run_pipeline(src, dst)

    expected = [r for r in records if brute_force_keep(r)]
    got = [rec for _, rec in read_manifest(dst)]
    assert got == expected
    assert report.retained == len(expected)
    assert report.total == len(records)  # reason-count conservation
    # A canonical input comes out as write_manifest would write the kept records.
    ref = tmp_path / "ref.jsonl"
    write_manifest(expected, ref)
    assert dst.read_bytes() == ref.read_bytes()


def test_pipeline_copies_retained_lines_verbatim(tmp_path):
    # Hand-written lines that json.dumps(..., sort_keys=True) would not
    # write: retained ones come out as they were read, stripped.
    def reordered(rec, **kwargs):
        return json.dumps(dict(reversed(vars(rec).items())), **kwargs)

    kept = [
        reordered(make_record(0)),
        reordered(make_record(1), separators=(",", ":")),
        reordered(make_record(2, ovlr=5)),
        reordered(replace(make_record(3), id="r\u00e9-\u5b57"), ensure_ascii=False),
        "  " + reordered(make_record(4), separators=(" , ", " :  ")) + "\t",
    ]
    dropped = reordered(make_record(5, ovlr=1.0))
    src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    src.write_bytes(("\n".join(kept[:2] + [dropped] + kept[2:]) + "\n").encode())
    run_pipeline(src, dst)

    assert dst.read_bytes() == "".join(k.strip() + "\n" for k in kept).encode()
    got = [rec for _, rec in read_manifest(dst)]
    assert [rec.id for rec in got] == ["r0000", "r0001", "r0002", "r\u00e9-\u5b57", "r0004"]
    assert type(got[2].ovlr) is int
    for k, rec in zip(kept, got):
        assert k.strip() != manifest_line(rec)
        assert json.loads(k) == vars(rec)


def test_pipeline_never_re_encodes_a_record(tmp_path, monkeypatch):
    # Guards the fast path: curate writes the lines it read, so it must
    # run to the end with the record encoder gone.
    records = random_records(1000, seed=24)
    src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    write_manifest(records, src)

    def fail(*args):
        raise AssertionError("a retained record was encoded again")

    monkeypatch.setattr(features, "manifest_line", fail)
    monkeypatch.setattr(features, "_encode_manifest", fail)
    report = run_pipeline(src, dst)
    assert report.total == 1000
    assert [rec for _, rec in read_manifest(dst)] == [r for r in records if brute_force_keep(r)]


def test_pipeline_never_words_an_error_for_a_valid_record(tmp_path, monkeypatch):
    # Guards the one-check accept path: valid lines, in either key order and
    # with int-valued numbers, must never reach the error-wording helper,
    # where the record is built from keywords and checked field by field.
    records = random_records(1000, seed=25)
    records[::3] = [replace(r, duration_s=1, ovlr=int(r.ovlr)) for r in records[::3]]
    lines = [manifest_line(r) if i % 2 else json.dumps(dict(reversed(vars(r).items())))
             for i, r in enumerate(records)]
    src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    src.write_text("".join(line + "\n" for line in lines))

    def fail(*args):
        raise AssertionError("a manifest line left the one-check accept path")

    monkeypatch.setattr(features, "_raise_manifest_error", fail)
    report = run_pipeline(src, dst)
    assert report.total == 1000
    assert [rec for _, rec in read_manifest(dst)] == [r for r in records if brute_force_keep(r)]
    # The patched helper is the one a rejected line reaches.
    with open(src, "a") as fh:
        fh.write(json.dumps({**vars(records[0]), "ovlr": True}) + "\n")
    with pytest.raises(AssertionError, match="one-check accept path"):
        run_pipeline(src, dst)


def test_pipeline_empty_manifest(tmp_path):
    src = tmp_path / "in.jsonl"
    src.write_text("")
    dst = tmp_path / "out.jsonl"
    report = run_pipeline(src, dst)
    assert dst.read_text() == ""
    assert report.total == 0 and report.retained == 0


def test_pipeline_first_failure_attribution(tmp_path):
    # records passing emotion but failing quality land in quality_gate
    records = [make_record(i, label="sad", ovlr=2.0) for i in range(10)]
    src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    write_manifest(records, src)
    report = run_pipeline(src, dst)
    assert report.quality_gate == 10
    assert report.emotion_gate == 0 and report.retained == 0


def test_pipeline_gate_order():
    assert first_failing_gate("neutral", 0.2, 1.0, True, OVLR_MIN) == "emotion_gate"
    assert first_failing_gate("sad", 0.5, 1.0, True, OVLR_MIN) == "quality_gate"
    assert first_failing_gate("sad", 0.5, 4.0, True, OVLR_MIN) == "speaker_gate"
    assert first_failing_gate("sad", 0.5, 4.0, False, OVLR_MIN) is None


def test_pipeline_malformed_aborts_without_output(tmp_path):
    src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    write_manifest([make_record(0)], src)
    with open(src, "a") as fh:
        fh.write("BROKEN\n")
    with pytest.raises(FormatError, match="line 2"):
        run_pipeline(src, dst)
    assert not dst.exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_pipeline_monotone_in_threshold(tmp_path):
    records = random_records(300, seed=5)
    src = tmp_path / "in.jsonl"
    write_manifest(records, src)
    kept = {}
    for ovlr_min in (4.0, 3.0, 2.0):
        dst = tmp_path / f"out{ovlr_min}.jsonl"
        run_pipeline(src, dst, ovlr_min)
        kept[ovlr_min] = {rec.id for _, rec in read_manifest(dst)}
    assert kept[4.0] <= kept[3.0] <= kept[2.0]


def test_pipeline_idempotent(tmp_path):
    records = random_records(400, seed=9)
    src = tmp_path / "in.jsonl"
    once, twice = tmp_path / "once.jsonl", tmp_path / "twice.jsonl"
    write_manifest(records, src)
    run_pipeline(src, once)
    run_pipeline(once, twice)
    assert once.read_text() == twice.read_text()


def test_report_reason_count_conservation(tmp_path):
    for seed in (1, 2, 3):
        records = random_records(250, seed=seed)
        src = tmp_path / f"in{seed}.jsonl"
        dst = tmp_path / f"out{seed}.jsonl"
        write_manifest(records, src)
        report = run_pipeline(src, dst)
        assert report.total == 250
        assert sum(report.retained_by_emotion.values()) == report.retained


def test_pipeline_preserves_order(tmp_path):
    records = random_records(200, seed=11)
    src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    write_manifest(records, src)
    run_pipeline(src, dst)
    kept_ids = [rec.id for _, rec in read_manifest(dst)]
    expected = [r.id for r in records if brute_force_keep(r)]
    assert kept_ids == expected


# -- curate through the CLI on mutated manifests ---------------------------------


def reference_curate(path, ovlr_min=OVLR_MIN):
    """(kept lines, report counts) or the error message, restated from the
    reference reader and the retention rules.  The emotion gate judges the
    confidence range first, then the label."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh]
    kept, counts = [], {"emotion_gate": 0, "quality_gate": 0, "speaker_gate": 0, "retained": 0}
    try:
        for lineno, rec in reference_read_manifest(path):
            label, conf = rec.emotion_label, rec.emotion_confidence
            if not 0.0 <= conf <= 1.0:
                return f"manifest line {lineno}: confidence must be in [0, 1], got {conf}"
            if label not in {"angry", "disgusted", "fearful", "sad", "surprised", "neutral",
                             "happy"}:
                return f"manifest line {lineno}: unknown emotion label {label!r}"
            if label in {"neutral", "happy"} and conf < 1.0:
                counts["emotion_gate"] += 1
            elif not rec.ovlr > ovlr_min:
                counts["quality_gate"] += 1
            elif rec.speaker_change:
                counts["speaker_gate"] += 1
            else:
                counts["retained"] += 1
                kept.append(lines[lineno - 1])
    except FormatError as exc:
        return str(exc)
    return kept, counts


@settings(derandomize=True, max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(line=mutated_manifest_lines())
def test_curate_cli_matches_reference_on_mutated_manifests(tmp_path_factory, capsys, line):
    # Exit 0 with the reference filter's lines and counts, or exit 1 with one
    # format error naming the line, and no --out, --report or .tmp left.
    work = tmp_path_factory.mktemp("curate")
    src = work / "in.jsonl"
    src.write_text(manifest_line(make_record(3)) + "\n" + line + "\n", encoding="utf-8")
    out, report = work / "out.jsonl", work / "report.json"
    code = main(["curate", "--in", str(src), "--out", str(out), "--report", str(report)])
    event(f"exit {code}")
    captured = capsys.readouterr()
    want = reference_curate(src)
    if isinstance(want, str):
        assert code == 1 and captured.out == ""
        assert captured.err == f"format error: {want}\n"
        assert sorted(p.name for p in work.iterdir()) == ["in.jsonl"]
    else:
        kept, counts = want
        assert code == 0 and captured.err == ""
        assert out.read_text(encoding="utf-8") == "".join(k + "\n" for k in kept)
        got = json.loads(report.read_text())
        assert {k: got[k] for k in counts} == counts
        assert sorted(p.name for p in work.iterdir()) == ["in.jsonl", "out.jsonl",
                                                         "report.json"]
