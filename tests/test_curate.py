import numpy as np
import pytest

from flowcond import (
    emotion_gate,
    quality_gate,
    run_pipeline,
    speaker_gate,
)
from flowcond.curate import first_failing_gate
from flowcond.features import DatasetRecord, FormatError, read_manifest, write_manifest

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
    rec = make_record(0, label="neutral", conf=0.2, ovlr=1.0, change=True)
    assert first_failing_gate(rec, OVLR_MIN) == "emotion_gate"
    rec = make_record(0, label="sad", ovlr=1.0, change=True)
    assert first_failing_gate(rec, OVLR_MIN) == "quality_gate"
    rec = make_record(0, label="sad", ovlr=4.0, change=True)
    assert first_failing_gate(rec, OVLR_MIN) == "speaker_gate"


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
