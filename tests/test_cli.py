import argparse
import hashlib
import json
import math
import os
import struct
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from flowcond import cli, curate
from flowcond.cli import main
from flowcond.features import (
    FeatureMatrix,
    FormatError,
    generate_corpus,
    load_feature_matrix,
    read_manifest,
    store_feature_matrix,
)
from flowcond.training import TrainSettings, load_corpus, train_loop
from flowcond.seqmodel import ModelConfig, init_params, load_checkpoint, save_checkpoint
from test_features import _json_values, mutated_manifest_lines


def run_cli(*argv):
    return main([str(a) for a in argv])


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


# -- synth -----------------------------------------------------------------


def test_synth_deterministic_directories(tmp_path, capsys):
    assert run_cli("synth", "--kind", "sinusoid", "--count", 5, "--frames", 24,
                   "--seed", 7, "--out", tmp_path / "a") == 0
    assert run_cli("synth", "--kind", "sinusoid", "--count", 5, "--frames", 24,
                   "--seed", 7, "--out", tmp_path / "b") == 0
    a, b = dir_bytes(tmp_path / "a"), dir_bytes(tmp_path / "b")
    assert set(a) == set(b)
    for name in a:
        assert a[name] == b[name], name


def test_synth_count_zero(tmp_path):
    assert run_cli("synth", "--count", 0, "--out", tmp_path / "c") == 0
    manifest = tmp_path / "c" / "manifest.jsonl"
    assert manifest.read_text() == ""
    files = [p.name for p in (tmp_path / "c").iterdir()]
    assert sorted(files) == ["manifest.jsonl", "provenance.json"]


def test_synth_refuses_nonempty_dir(tmp_path, capsys):
    out = tmp_path / "d"
    out.mkdir()
    (out / "junk.txt").write_text("x")
    assert run_cli("synth", "--count", 1, "--out", out) == 1
    assert "not empty" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["junk.txt"]


@pytest.mark.parametrize("flag, value", [("--count", -2), ("--frames", 0), ("--feature-dim", 0)])
def test_synth_bad_arguments_create_nothing(tmp_path, capsys, flag, value):
    args = {"--count": 2, "--frames": 8, "--feature-dim": 8, flag: value}
    out = tmp_path / "c"
    assert run_cli("synth", *[a for kv in args.items() for a in kv], "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_synth_manifest_references_existing_files(tmp_path):
    out = tmp_path / "e"
    assert run_cli("synth", "--kind", "sinusoid", "--count", 10, "--frames", 16,
                   "--seed", 1, "--out", out) == 0
    n = 0
    for _, rec in read_manifest(out / "manifest.jsonl"):
        n += 1
        for path_attr in ("features_path", "phonemes_path", "nv_path", "emo_path"):
            assert (out / getattr(rec, path_attr)).exists()
    assert n == 10


# -- train -----------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert run_cli("synth", "--kind", "mixed", "--count", 12, "--frames", 24,
                   "--seed", 11, "--out", out) == 0
    return out


def test_train_zero_steps_writes_initial_checkpoint(tmp_path, corpus_dir):
    out = tmp_path / "run"
    assert run_cli("train", "--manifest", corpus_dir / "manifest.jsonl",
                   "--steps", 0, "--out", out, "--seed", 2) == 0
    assert (out / "checkpoint.fmck").exists()
    assert (out / "loss_log.txt").read_text() == ""
    cfg, params = load_checkpoint(out / "checkpoint.fmck")
    assert cfg.feature_dim == 8


def test_train_fixed_seed_identical_loss_log(tmp_path, corpus_dir):
    args = ["train", "--manifest", corpus_dir / "manifest.jsonl", "--steps", 8,
            "--batch-frames", 48, "--seed", 3]
    assert run_cli(*args, "--out", tmp_path / "r1") == 0
    assert run_cli(*args, "--out", tmp_path / "r2") == 0
    assert (tmp_path / "r1" / "loss_log.txt").read_text() == (
        tmp_path / "r2" / "loss_log.txt"
    ).read_text()
    assert (tmp_path / "r1" / "checkpoint.fmck").read_bytes() == (
        tmp_path / "r2" / "checkpoint.fmck"
    ).read_bytes()


def test_train_loss_log_format(tmp_path, corpus_dir):
    out = tmp_path / "run"
    assert run_cli("train", "--manifest", corpus_dir / "manifest.jsonl",
                   "--steps", 3, "--out", out, "--seed", 4) == 0
    lines = (out / "loss_log.txt").read_text().splitlines()
    assert len(lines) == 3
    for i, line in enumerate(lines, start=1):
        step, loss, lr = line.split()
        assert int(step) == i
        float(loss), float(lr)


# The train provenance records every field of TrainSettings.
PROVENANCE_SETTINGS = tuple(f.name for f in fields(TrainSettings))


@dataclass
class ShiftedSettings(TrainSettings):
    """TrainSettings with every settable default but steps moved off its real value."""

    batch_frames: int = 96
    peak_lr: float = 5e-4
    warmup_steps: int = 3
    checkpoint_every: int = 4
    seed: int = 13


@pytest.mark.parametrize("settings_cls", [TrainSettings, ShiftedSettings],
                         ids=["defaults", "shifted-defaults"])
def test_train_defaults_come_from_train_settings(tmp_path, corpus_dir, monkeypatch,
                                                 settings_cls):
    monkeypatch.setattr(cli, "TrainSettings", settings_cls)
    manifest = corpus_dir / "manifest.jsonl"

    def recorded(out):
        args = json.loads((out / "provenance.json").read_text())["args"]
        return {k: args[k] for k in PROVENANCE_SETTINGS}

    def expected(**values):
        settings = settings_cls(steps=0, **values)
        return {k: getattr(settings, k) for k in PROVENANCE_SETTINGS}

    assert run_cli("train", "--manifest", manifest, "--steps", 0, "--out", tmp_path / "a") == 0
    assert recorded(tmp_path / "a") == expected()

    assert run_cli("train", "--manifest", manifest, "--steps", 0, "--peak-lr", 2e-3,
                   "--warmup", 7, "--seed", 4, "--out", tmp_path / "b") == 0
    assert recorded(tmp_path / "b") == expected(peak_lr=2e-3, warmup_steps=7, seed=4)


def test_train_records_fixed_sigma_min_and_p_drop(tmp_path, corpus_dir):
    assert run_cli("train", "--manifest", corpus_dir / "manifest.jsonl", "--steps", 0,
                   "--out", tmp_path / "run") == 0
    args = json.loads((tmp_path / "run" / "provenance.json").read_text())["args"]
    assert (args["sigma_min"], args["p_drop"]) == (1e-05, 0.2)
    for fixed in ({"sigma_min": 1e-4}, {"p_drop": 0.1}):
        with pytest.raises(TypeError):
            TrainSettings(**fixed)


@pytest.mark.parametrize(
    "flag, value",
    [("--peak-lr", "-1"), ("--peak-lr", "inf"), ("--warmup", "-5"),
     ("--checkpoint-every", "-1"), ("--seed", "-1")],
)
def test_train_bad_setting_values_leave_no_files(tmp_path, corpus_dir, capsys, flag, value):
    out = tmp_path / "run"
    assert run_cli("train", "--manifest", corpus_dir / "manifest.jsonl", "--steps", 2,
                   f"{flag}={value}", "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("name", ["checkpoint.fmck", "loss_log.txt", "provenance.json"])
def test_train_output_path_directory_fails_before_training(tmp_path, corpus_dir, capsys,
                                                            monkeypatch, name):
    def no_load(manifest):
        raise AssertionError(f"{manifest} was loaded")

    monkeypatch.setattr(cli, "load_corpus", no_load)
    out = tmp_path / "run"
    (out / name).mkdir(parents=True)
    assert run_cli("train", "--manifest", corpus_dir / "manifest.jsonl", "--steps", 2,
                   "--out", out) == 1
    err = capsys.readouterr().err
    assert err == f"error: output path {out / name} is a directory\n"
    assert [p.name for p in out.iterdir()] == [name]


def test_train_divergence_leaves_only_loadable_checkpoints(tmp_path, corpus_dir, capsys):
    # A peak learning rate of 1e30 diverges within a few steps.  The run
    # reports it in one line, with no numpy warning; every checkpoint it
    # leaves, the one its error names included, loads; and its provenance
    # records the flags and seed that made them.
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("train", "--manifest", corpus_dir / "manifest.jsonl", "--steps", 30,
                       "--peak-lr", "1e30", "--warmup", 0, "--checkpoint-every", 1,
                       "--out", out) == 1
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"last good checkpoint retained at {out / 'checkpoint.fmck'}" in err
    checkpoints = sorted(out.glob("*.fmck"))
    assert checkpoints
    for path in checkpoints:
        load_checkpoint(path)
    args = json.loads((out / "provenance.json").read_text())["args"]
    assert args["peak_lr"] == 1e30 and args["seed"] == TrainSettings().seed


def test_train_snapshot_path_directory_fails_before_training(tmp_path, corpus_dir, capsys):
    # --steps 4 --checkpoint-every 2 keeps snapshots of steps 2 and 4; a
    # directory at the last one fails before the first step, and a
    # directory at a step the run does not snapshot is left alone.
    train = ("train", "--manifest", corpus_dir / "manifest.jsonl", "--steps", 4,
             "--batch-frames", 48, "--checkpoint-every", 2)
    out = tmp_path / "run"
    (out / "checkpoint_step000004.fmck").mkdir(parents=True)
    assert run_cli(*train, "--out", out) == 1
    err = capsys.readouterr().err
    assert err == f"error: output path {out / 'checkpoint_step000004.fmck'} is a directory\n"
    assert [p.name for p in out.iterdir()] == ["checkpoint_step000004.fmck"]

    other = tmp_path / "other"
    (other / "checkpoint_step000003.fmck").mkdir(parents=True)
    assert run_cli(*train, "--out", other) == 0
    assert (other / "checkpoint_step000004.fmck").is_file()


def small_corpus(root, name, frames=8, feature_dim=8):
    out = root / name
    assert run_cli("synth", "--count", 3, "--frames", frames, "--feature-dim", feature_dim,
                   "--seed", 1, "--out", out) == 0
    return out


def break_phoneme_count(corpus):
    (corpus / "mixed_00001.phn").write_text("1 " * 7 + "\n")


def break_nv_rows(corpus):
    store_feature_matrix(np.zeros((16, 8)), corpus / "mixed_00001.nv.fmat")


def break_emo_length(corpus):
    store_feature_matrix(np.zeros((2, 7)), corpus / "mixed_00001.emo.fmat")


def break_emo_range(corpus):
    emo = load_feature_matrix(corpus / "mixed_00001.emo.fmat").values
    emo[0, 3] = 0.9
    store_feature_matrix(emo, corpus / "mixed_00001.emo.fmat")


@pytest.mark.parametrize(
    "damage", [break_phoneme_count, break_nv_rows, break_emo_length, break_emo_range],
    ids=["phoneme-count", "nv-rows", "emo-length", "emo-range"],
)
def test_train_misaligned_record_fails_at_load(tmp_path, capsys, damage):
    corpus = small_corpus(tmp_path, "a")
    damage(corpus)
    with pytest.raises(FormatError, match="manifest line 2: record 'mixed_00001'"):
        load_corpus(corpus / "manifest.jsonl")
    # One step of two examples need not draw the bad record; the load stops it.
    out = tmp_path / "run"
    assert run_cli("train", "--manifest", corpus / "manifest.jsonl", "--steps", 1,
                   "--batch-frames", 16, "--seed", 5, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("format error: manifest line 2:") and err.count("\n") == 1
    assert not out.exists()


def out_of_vocab_phoneme(tmp_path):
    corpus = small_corpus(tmp_path, "a")
    (corpus / "mixed_00002.phn").write_text("1 " * 7 + "16\n")
    return [corpus], "phoneme id 16"


def first_of_two_out_of_vocab_records(tmp_path):
    good, bad = small_corpus(tmp_path, "a"), small_corpus(tmp_path, "b")
    (bad / "mixed_00001.phn").write_text("1 " * 7 + "-1\n")
    (bad / "mixed_00002.phn").write_text("1 " * 7 + "16\n")
    return [good, bad], (f"phoneme id -1 in {bad / 'mixed_00001.phn'} (record 'mixed_00001') "
                         "is outside the model vocabulary (ids 0..15)")


def other_feature_dim(tmp_path):
    return [small_corpus(tmp_path, "a"), small_corpus(tmp_path, "b", feature_dim=4)], "4 x 8"


def other_frame_length(tmp_path):
    return [small_corpus(tmp_path, "a"), small_corpus(tmp_path, "b", frames=12)], "8 x 12"


@pytest.mark.parametrize("make", [out_of_vocab_phoneme, first_of_two_out_of_vocab_records,
                                  other_feature_dim, other_frame_length],
                         ids=["phoneme-id", "first-bad-record", "feature-dim", "frame-length"])
def test_train_corpora_that_do_not_fit_the_model_leave_no_files(tmp_path, capsys, make):
    corpora, detail = make(tmp_path)
    out = tmp_path / "run"
    manifests = [a for c in corpora for a in ("--manifest", c / "manifest.jsonl")]
    assert run_cli("train", *manifests, "--steps", 2, "--batch-frames", 16, "--out", out) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and detail in err


def test_train_vocab_error_names_the_phoneme_file_and_record_id(tmp_path, capsys,
                                                                monkeypatch):
    # The record's id comes from its manifest line, not from its file name,
    # and its file is named as load_corpus joins it onto a relative manifest.
    corpus = small_corpus(tmp_path, "a")
    lines = (corpus / "manifest.jsonl").read_text().splitlines()
    lines[2] = lines[2].replace('"id": "mixed_00002"', '"id": "utt-7"')
    (corpus / "manifest.jsonl").write_text("\n".join(lines) + "\n")
    (corpus / "mixed_00002.phn").write_text("1 " * 7 + "16\n")
    reads = []
    monkeypatch.setattr(cli, "read_manifest", lambda path: reads.append(path) or read_manifest(path))
    monkeypatch.chdir(tmp_path)
    assert run_cli("train", "--manifest", "a/manifest.jsonl", "--steps", 0, "--out", "run") == 1
    assert capsys.readouterr().err == (
        "error: phoneme id 16 in a/mixed_00002.phn (record 'utt-7') is outside the model "
        "vocabulary (ids 0..15)\n")
    assert not (tmp_path / "run").exists()
    # A corpus that fits the vocabulary is not read again.
    assert reads == ["a/manifest.jsonl"]
    (corpus / "mixed_00002.phn").write_text("1 " * 8 + "\n")
    assert run_cli("train", "--manifest", "a/manifest.jsonl", "--steps", 0, "--out", "run") == 0
    assert reads == ["a/manifest.jsonl"]


def other_feature_dim_record(tmp_path, corpus):
    store_feature_matrix(np.zeros((4, 8)), corpus / "mixed_00001.fmat")
    return "shapes ((4, 8), (8,), (32, 8), (2, 8)), want ((8, 8), (8,), (32, 8), (2, 8))"


def other_frame_length_record(tmp_path, corpus):
    longer = small_corpus(tmp_path, "b", frames=12)
    for suffix in (".fmat", ".phn", ".nv.fmat", ".emo.fmat"):
        name = "mixed_00001" + suffix
        (corpus / name).write_bytes((longer / name).read_bytes())
    return "shapes ((8, 12), (12,), (32, 12), (2, 12)), want ((8, 8), (8,), (32, 8), (2, 8))"


@pytest.mark.parametrize("damage", [other_feature_dim_record, other_frame_length_record],
                         ids=["feature-dim", "frame-length"])
def test_train_record_of_another_shape_in_one_manifest_leaves_no_files(tmp_path, capsys,
                                                                       damage):
    corpus = small_corpus(tmp_path, "a")
    detail = damage(tmp_path, corpus)
    out = tmp_path / "run"
    assert run_cli("train", "--manifest", corpus / "manifest.jsonl", "--steps", 2,
                   "--batch-frames", 16, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("format error: manifest line 2: record 'mixed_00001' has ")
    assert err.count("\n") == 1 and detail in err
    assert not out.exists()


def test_train_schema_is_train_settings(capsys):
    names = {f.name for f in fields(TrainSettings) if f.init}
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in commands.choices["train"]._actions} - {"help"}
    assert dests == names | {"manifest", "ratios", "out"}
    for flag in ("--config=run.cfg", "--sigma-min=1e-4", "--p-drop=0.1"):
        with pytest.raises(SystemExit):
            main(["train", "--manifest", "m.jsonl", "--out", "run", flag])
        assert "unrecognized arguments" in capsys.readouterr().err


def test_train_bad_ratios_rejected(tmp_path, corpus_dir, capsys):
    assert run_cli("train", "--manifest", corpus_dir / "manifest.jsonl",
                   "--ratios", "0.5,0.2", "--steps", 1, "--out", tmp_path / "x") == 1
    err = capsys.readouterr().err
    assert "ratios" in err


@pytest.mark.parametrize(
    "ratios, n_manifests, steps",
    [("nan,nan", 2, 1), ("1.5,-0.5", 2, 1), ("nan", 1, 0)],
    ids=["nan", "negative", "nan-zero-steps"],
)
def test_train_bad_ratio_values_leave_no_files(tmp_path, corpus_dir, capsys, ratios,
                                               n_manifests, steps):
    # NaN passes a sum check (every comparison with NaN is false) and a
    # negative pair can sum to 1; both must stop before any file is written.
    manifests = [a for _ in range(n_manifests) for a in ("--manifest", corpus_dir / "manifest.jsonl")]
    out = tmp_path / "run"
    assert run_cli("train", *manifests, "--ratios", ratios, "--steps", steps,
                   "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "finite and non-negative" in err
    for name in ("checkpoint.fmck", "loss_log.txt", "provenance.json"):
        assert not (out / name).exists()


@pytest.mark.parametrize("ratios", [[float("nan"), float("nan")], [1.5, -0.5]])
def test_train_loop_rejects_bad_ratios_before_checkpoint(tmp_path, corpus_dir, ratios):
    corpus = load_corpus(corpus_dir / "manifest.jsonl")
    ck = tmp_path / "ck.fmck"
    with pytest.raises(ValueError, match="finite and non-negative"):
        train_loop(ModelConfig(feature_dim=8), [corpus, corpus], ratios,
                   TrainSettings(steps=1), checkpoint_path=ck)
    assert not ck.exists()


def test_train_loop_source_counts_follow_ratios(corpus_dir):
    corpus = load_corpus(corpus_dir / "manifest.jsonl")
    settings = TrainSettings(steps=40, batch_frames=24 * 4, peak_lr=1e-3, seed=5)
    cfg = ModelConfig(feature_dim=8)
    _, history, counts = train_loop(cfg, [corpus, corpus], [0.8, 0.2], settings)
    total = sum(counts.values())
    assert total == 40 * 4
    assert abs(counts[0] / total - 0.8) < 0.1
    assert len(history) == 40


def test_train_malformed_manifest_fails_with_line(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "x"}\n')
    assert run_cli("train", "--manifest", bad, "--steps", 1, "--out", tmp_path / "o") == 1
    assert "line 1" in capsys.readouterr().err


# -- sample -----------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("trained")
    assert run_cli("train", "--manifest", corpus_dir / "manifest.jsonl",
                   "--steps", 10, "--batch-frames", 48, "--seed", 6, "--out", out) == 0
    return out


def test_sample_defaults_recorded_in_sidecar(tmp_path, corpus_dir, trained_run):
    out = tmp_path / "gen.fmat"
    assert run_cli(
        "sample", "--checkpoint", trained_run / "checkpoint.fmck",
        "--text-phonemes", corpus_dir / "mixed_00001.phn",
        "--spk-features", corpus_dir / "mixed_00000.fmat",
        "--spk-phonemes", corpus_dir / "mixed_00000.phn",
        "--spk-nv", corpus_dir / "mixed_00000.nv.fmat",
        "--spk-emo", corpus_dir / "mixed_00000.emo.fmat",
        "--nv-prompt", corpus_dir / "mixed_00001.nv.fmat",
        "--emo-prompt", corpus_dir / "mixed_00001.emo.fmat",
        "--out", out,
    ) == 0
    sidecar = json.loads((tmp_path / "gen.fmat.json").read_text())
    assert sidecar["nfe"] == 32
    assert sidecar["guidance"] == 1.0
    assert sidecar["seed"] == 0
    assert len(sidecar["checkpoint_sha256"]) == 64
    assert sidecar["field_dtype"] == "float32"
    assert load_feature_matrix(out).values.shape == (8, 24)


def test_sample_reads_checkpoint_once_and_hashes_those_bytes(tmp_path, corpus_dir, trained_run,
                                                             monkeypatch):
    ck = trained_run / "checkpoint.fmck"
    reads = []
    real_read_bytes, real_os_open = Path.read_bytes, os.open

    def counting_read_bytes(self):
        if self == ck:
            reads.append(self)
        return real_read_bytes(self)

    def counting_os_open(path, *args, **kwargs):  # features._read_file opens here
        if Path(path) == ck:
            reads.append(path)
        return real_os_open(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
    monkeypatch.setattr(os, "open", counting_os_open)
    out = tmp_path / "gen.fmat"
    assert run_cli("sample", "--checkpoint", ck, "--text-phonemes", corpus_dir / "mixed_00001.phn",
                   "--zero-nv", "--zero-emo", "--nfe", 2, "--out", out) == 0
    assert len(reads) == 1
    sidecar = json.loads((tmp_path / "gen.fmat.json").read_text())
    assert sidecar["checkpoint_sha256"] == hashlib.sha256(real_read_bytes(ck)).hexdigest()


def test_sample_fixed_seed_identical_output(tmp_path, corpus_dir, trained_run):
    args = [
        "sample", "--checkpoint", trained_run / "checkpoint.fmck",
        "--text-phonemes", corpus_dir / "mixed_00001.phn",
        "--zero-nv", "--zero-emo", "--nfe", 4, "--seed", 17,
    ]
    assert run_cli(*args, "--out", tmp_path / "a.fmat") == 0
    assert run_cli(*args, "--out", tmp_path / "b.fmat") == 0
    assert (tmp_path / "a.fmat").read_bytes() == (tmp_path / "b.fmat").read_bytes()


def test_sample_missing_nv_instructs_placeholder(tmp_path, corpus_dir, trained_run, capsys):
    assert run_cli(
        "sample", "--checkpoint", trained_run / "checkpoint.fmck",
        "--text-phonemes", corpus_dir / "mixed_00001.phn",
        "--emo-prompt", corpus_dir / "mixed_00001.emo.fmat",
        "--out", tmp_path / "x.fmat",
    ) == 1
    assert "--zero-nv" in capsys.readouterr().err


def test_sample_partial_speaker_prompt_rejected(tmp_path, corpus_dir, trained_run, capsys):
    assert run_cli(
        "sample", "--checkpoint", trained_run / "checkpoint.fmck",
        "--text-phonemes", corpus_dir / "mixed_00001.phn",
        "--spk-features", corpus_dir / "mixed_00000.fmat",
        "--zero-nv", "--zero-emo",
        "--out", tmp_path / "x.fmat",
    ) == 1
    assert "speaker prompt" in capsys.readouterr().err


def test_sample_dim_mismatch_names_both_dims(tmp_path, corpus_dir, trained_run, capsys):
    other = tmp_path / "narrow"
    assert run_cli("synth", "--count", 1, "--frames", 24, "--feature-dim", 4,
                   "--seed", 0, "--out", other) == 0
    assert run_cli(
        "sample", "--checkpoint", trained_run / "checkpoint.fmck",
        "--text-phonemes", corpus_dir / "mixed_00001.phn",
        "--spk-features", other / "mixed_00000.fmat",
        "--spk-phonemes", other / "mixed_00000.phn",
        "--spk-nv", other / "mixed_00000.nv.fmat",
        "--spk-emo", other / "mixed_00000.emo.fmat",
        "--zero-nv", "--zero-emo",
        "--out", tmp_path / "x.fmat",
    ) == 1
    err = capsys.readouterr().err
    assert "4" in err and "8" in err


@pytest.mark.parametrize("flag, shape, message", [
    ("--spk-nv", (16, 24), "16 rows, expected 32"),
    ("--spk-emo", (16, 24), "16 rows, expected 2"),
    ("--nv-prompt", (16, 24), "16 rows, expected 32"),
    ("--emo-prompt", (16, 24), "16 rows, expected 2"),
    ("--spk-features", (8, 20), "20 frames, --spk-phonemes has 24"),
    ("--spk-nv", (32, 20), "20 frames, --spk-phonemes has 24"),
    ("--spk-emo", (2, 20), "20 frames, --spk-phonemes has 24"),
], ids=["spk-nv-rows", "spk-emo-rows", "nv-prompt-rows", "emo-prompt-rows",
        "spk-features-frames", "spk-nv-frames", "spk-emo-frames"])
def test_sample_misshapen_stream_names_flag_and_file(tmp_path, corpus_dir, trained_run, capsys,
                                                     flag, shape, message):
    bad = tmp_path / "bad.fmat"
    store_feature_matrix(FeatureMatrix(np.zeros(shape, dtype=np.float32), 50.0), bad)
    streams = {
        "--spk-features": corpus_dir / "mixed_00000.fmat",
        "--spk-phonemes": corpus_dir / "mixed_00000.phn",
        "--spk-nv": corpus_dir / "mixed_00000.nv.fmat",
        "--spk-emo": corpus_dir / "mixed_00000.emo.fmat",
        "--nv-prompt": corpus_dir / "mixed_00001.nv.fmat",
        "--emo-prompt": corpus_dir / "mixed_00001.emo.fmat",
        flag: bad,
    }
    out = tmp_path / "x.fmat"
    assert run_cli(
        "sample", "--checkpoint", trained_run / "checkpoint.fmck",
        "--text-phonemes", corpus_dir / "mixed_00001.phn",
        *[a for kv in streams.items() for a in kv], "--out", out,
    ) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert flag in err and str(bad) in err and message in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.fmat"]


@pytest.mark.parametrize("flag", ["--spk-emo", "--emo-prompt"])
def test_sample_emo_out_of_range_names_flag_and_file(tmp_path, corpus_dir, trained_run, capsys,
                                                     flag):
    emo = load_feature_matrix(corpus_dir / "mixed_00000.emo.fmat").values
    emo[1, 5] = 0.7
    bad = tmp_path / "bad.emo.fmat"
    store_feature_matrix(emo, bad)
    streams = {
        "--spk-features": corpus_dir / "mixed_00000.fmat",
        "--spk-phonemes": corpus_dir / "mixed_00000.phn",
        "--spk-nv": corpus_dir / "mixed_00000.nv.fmat",
        "--spk-emo": corpus_dir / "mixed_00000.emo.fmat",
        "--nv-prompt": corpus_dir / "mixed_00001.nv.fmat",
        "--emo-prompt": corpus_dir / "mixed_00001.emo.fmat",
        flag: bad,
    }
    assert run_cli(
        "sample", "--checkpoint", trained_run / "checkpoint.fmck",
        "--text-phonemes", corpus_dir / "mixed_00001.phn",
        *[a for kv in streams.items() for a in kv], "--out", tmp_path / "x.fmat",
    ) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} {bad} has values outside [-0.5, 0.5]\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.emo.fmat"]


@pytest.mark.parametrize("out_name, messages", [
    ("nodir/g.fmat", ("output directory", "does not exist")),
    ("existing", ("is a directory",)),
], ids=["missing-parent", "directory"])
def test_sample_missing_output_dir_fails_before_integrating(tmp_path, corpus_dir, trained_run,
                                                            capsys, monkeypatch, out_name,
                                                            messages):
    (tmp_path / "existing").mkdir()
    calls = {"n": 0}
    integrate = cli.integrate_batch

    def counting(*args):
        calls["n"] += 1
        return integrate(*args)

    monkeypatch.setattr(cli, "integrate_batch", counting)
    assert run_cli(
        "sample", "--checkpoint", trained_run / "checkpoint.fmck",
        "--text-phonemes", corpus_dir / "mixed_00001.phn",
        "--zero-nv", "--zero-emo", "--nfe", 2, "--out", tmp_path / out_name,
    ) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert all(m in err for m in messages)
    assert calls["n"] == 0
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == [Path("existing")]


def test_sample_sidecar_path_directory_fails_before_integrating(tmp_path, corpus_dir,
                                                               trained_run, capsys):
    (tmp_path / "g.fmat.json").mkdir()
    assert run_cli(
        "sample", "--checkpoint", trained_run / "checkpoint.fmck",
        "--text-phonemes", corpus_dir / "mixed_00001.phn",
        "--zero-nv", "--zero-emo", "--nfe", 2, "--out", tmp_path / "g.fmat",
    ) == 1
    err = capsys.readouterr().err
    assert err == f"error: output path {tmp_path / 'g.fmat.json'} is a directory\n"
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == [Path("g.fmat.json")]


def test_sample_out_of_vocab_phoneme_rejected(tmp_path, corpus_dir, trained_run, capsys):
    bad = tmp_path / "bad.phn"
    bad.write_text(" ".join(["1"] * 23 + ["99"]) + "\n")
    out = tmp_path / "x.fmat"
    speaker = [
        "--spk-features", corpus_dir / "mixed_00000.fmat",
        "--spk-nv", corpus_dir / "mixed_00000.nv.fmat",
        "--spk-emo", corpus_dir / "mixed_00000.emo.fmat",
    ]
    for phonemes in (
        ["--text-phonemes", bad],
        ["--text-phonemes", corpus_dir / "mixed_00001.phn", "--spk-phonemes", bad, *speaker],
    ):
        assert run_cli(
            "sample", "--checkpoint", trained_run / "checkpoint.fmck", *phonemes,
            "--zero-nv", "--zero-emo", "--out", out,
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "99" in err and str(bad) in err
        assert not out.exists()
        assert not (tmp_path / "x.fmat.json").exists()


def test_sample_wrong_tensor_shape_is_one_line_format_error(tmp_path, corpus_dir, capsys):
    cfg = ModelConfig()
    params = init_params(cfg, np.random.default_rng(0))
    params["out_b"] = np.zeros(1)  # would broadcast over the feature axis
    ck = tmp_path / "bad.fmck"
    save_checkpoint(ck, cfg, params)
    out = tmp_path / "x.fmat"
    assert run_cli(
        "sample", "--checkpoint", ck, "--text-phonemes", corpus_dir / "mixed_00001.phn",
        "--zero-nv", "--zero-emo", "--out", out,
    ) == 1
    err = capsys.readouterr().err
    assert err.startswith("format error:") and err.count("\n") == 1
    assert "out_b" in err and str(ck) in err
    assert not out.exists()
    assert not (tmp_path / "x.fmat.json").exists()


@pytest.mark.parametrize("guidance", ["nan", "inf"])
def test_sample_non_finite_guidance_rejected(tmp_path, corpus_dir, trained_run, capsys,
                                             guidance):
    out = tmp_path / "x.fmat"
    assert run_cli(
        "sample", "--checkpoint", trained_run / "checkpoint.fmck",
        "--text-phonemes", corpus_dir / "mixed_00001.phn",
        "--zero-nv", "--zero-emo", "--guidance", guidance, "--out", out,
    ) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "guidance strength" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sample_overflowing_field_is_one_line_error(tmp_path, corpus_dir, capsys):
    # Finite float32 weights whose products overflow the float32 forward.
    cfg = ModelConfig()
    params = init_params(cfg, np.random.default_rng(0))
    params["out_w"][...] = 3e38
    ck = tmp_path / "big.fmck"
    save_checkpoint(ck, cfg, params)
    out = tmp_path / "x.fmat"
    assert run_cli(
        "sample", "--checkpoint", ck, "--text-phonemes", corpus_dir / "mixed_00001.phn",
        "--zero-nv", "--zero-emo", "--out", out,
    ) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sampling failed:") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.fmck"]


FUZZ_CFG = ModelConfig(n_layers=1, d_model=8, d_ffn=8, d_phn=2, n_phonemes=5, feature_dim=3)


def phoneme_file(n):
    """``n`` in-vocabulary ids, sometimes with one id outside the vocabulary."""
    valid = st.lists(st.integers(0, FUZZ_CFG.n_phonemes - 1), min_size=n, max_size=n)
    wild = st.integers(-2**70, -1) | st.integers(FUZZ_CFG.n_phonemes, 2**70)
    return st.one_of(valid, st.tuples(valid, wild, st.integers(0, n)).map(
        lambda v: v[0][:v[2]] + [v[1]] + v[0][v[2]:]))


def fmat_stream(rows, frames, elements):
    """An FMAT stream of about ``rows`` x ``frames``, sometimes one off in either."""
    off = st.sampled_from([0] * 8 + [-1, 1])
    return st.tuples(off, off).flatmap(lambda d: arrays(
        np.float32, (max(rows + d[0], 0), max(frames + d[1], 0)), elements=elements))


@st.composite
def sample_requests(draw):
    """Prompt streams and phoneme files for ``flowcond sample``, some malformed."""
    values = st.floats(width=32)
    emo_values = st.floats(-1.0, 1.0, width=32)
    request = {"text.phn": draw(phoneme_file(draw(st.integers(0, 5))))}
    if draw(st.booleans()):
        t_spk = draw(st.integers(0, 4))
        request["spk.phn"] = draw(phoneme_file(t_spk))
        request["spk.fmat"] = draw(fmat_stream(FUZZ_CFG.feature_dim, t_spk, values))
        request["spk_nv.fmat"] = draw(fmat_stream(32, t_spk, values))
        request["spk_emo.fmat"] = draw(fmat_stream(2, t_spk, emo_values))
    if draw(st.booleans()):
        request["nv.fmat"] = draw(fmat_stream(32, draw(st.integers(0, 4)), values))
    if draw(st.booleans()):
        request["emo.fmat"] = draw(fmat_stream(2, draw(st.integers(0, 4)), emo_values))
    return request


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(request=sample_requests())
def test_sample_prompt_boundary_fuzz(tmp_path_factory, capsys, request):
    # Every prompt either samples, or fails with one line and writes nothing.
    work = tmp_path_factory.mktemp("fuzz")
    ck = work / "tiny.fmck"
    save_checkpoint(ck, FUZZ_CFG, init_params(FUZZ_CFG, np.random.default_rng(0)))
    for name, content in request.items():
        if name.endswith(".phn"):
            (work / name).write_text(" ".join(map(str, content)) + "\n")
        else:
            store_feature_matrix(content, work / name)
    argv = ["sample", "--checkpoint", ck, "--text-phonemes", work / "text.phn",
            "--nfe", 1, "--out", work / "gen.fmat"]
    if "spk.phn" in request:
        argv += ["--spk-phonemes", work / "spk.phn", "--spk-features", work / "spk.fmat",
                 "--spk-nv", work / "spk_nv.fmat", "--spk-emo", work / "spk_emo.fmat"]
    argv += ["--nv-prompt", work / "nv.fmat"] if "nv.fmat" in request else ["--zero-nv"]
    argv += ["--emo-prompt", work / "emo.fmat"] if "emo.fmat" in request else ["--zero-emo"]
    code = run_cli(*argv)
    event(f"exit {code}")
    err = capsys.readouterr().err
    written = {p.name for p in work.iterdir()} - {"tiny.fmck", *request}
    if code == 0:
        assert err == "" and written == {"gen.fmat", "gen.fmat.json"}
        assert load_feature_matrix(work / "gen.fmat").values.shape[1] == len(request["text.phn"])
    else:
        assert code == 1
        assert err.startswith(("error:", "format error:")) and err.count("\n") == 1, err
        assert written == set(), written


# -- curate / eval ------------------------------------------------------------


def test_curate_cli_round_trip(tmp_path, corpus_dir, capsys):
    out = tmp_path / "curated.jsonl"
    report = tmp_path / "report.json"
    assert run_cli("curate", "--in", corpus_dir / "manifest.jsonl",
                   "--out", out, "--report", report) == 0
    rep = json.loads(report.read_text())
    kept = len(out.read_text().splitlines())
    assert rep["retained"] == kept
    total = rep["retained"] + rep["emotion_gate"] + rep["quality_gate"] + rep["speaker_gate"]
    assert total == 12


def test_curate_malformed_manifest_nonzero_exit(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    assert run_cli("curate", "--in", bad, "--out", tmp_path / "o.jsonl") == 1
    assert "line 1" in capsys.readouterr().err


GOOD_RECORD = dict(id="r", features_path="f", phonemes_path="p", nv_path="n", emo_path="e",
                   duration_s=1.0, emotion_label="sad", emotion_confidence=0.9, ovlr=4.0,
                   speaker_change=False)


@pytest.mark.parametrize("field, value", [("ovlr", "5.0"), ("emotion_confidence", None)])
def test_curate_wrong_field_type_is_one_line_error(tmp_path, capsys, field, value):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({**GOOD_RECORD, field: value}) + "\n")
    out = tmp_path / "o.jsonl"
    assert run_cli("curate", "--in", bad, "--out", out) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("format error:") and field in err[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl"]


@pytest.mark.parametrize("ovlr_min", ["nan", "inf"])
def test_curate_non_finite_ovlr_min_rejected(tmp_path, corpus_dir, capsys, ovlr_min):
    out, report = tmp_path / "o.jsonl", tmp_path / "report.json"
    assert run_cli("curate", "--in", corpus_dir / "manifest.jsonl", "--out", out,
                   "--ovlr-min", ovlr_min, "--report", report) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "ovlr_min" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == []


@pytest.mark.parametrize("report_name, message", [
    ("nodir/r.json", "does not exist"),
    ("existing", "is a directory"),
], ids=["missing-parent", "directory"])
def test_curate_bad_report_path_writes_nothing(tmp_path, corpus_dir, capsys, report_name,
                                               message):
    (tmp_path / "existing").mkdir()
    assert run_cli("curate", "--in", corpus_dir / "manifest.jsonl",
                   "--out", tmp_path / "o.jsonl", "--report", tmp_path / report_name) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and message in err
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == [Path("existing")]


@pytest.fixture
def gate_calls(monkeypatch):
    """Counts the curate pipeline's first_failing_gate calls: run_pipeline
    gates each record through it, once (see the control below)."""
    calls = {"n": 0}
    gate = curate.first_failing_gate

    def counting(*args):
        calls["n"] += 1
        return gate(*args)

    monkeypatch.setattr(curate, "first_failing_gate", counting)
    return calls


def test_curate_gates_each_record_once(tmp_path, corpus_dir, capsys, gate_calls):
    # The control for the "gates nothing" tests: they would also pass if the
    # fixture counted a function run_pipeline no longer calls.
    assert run_cli("curate", "--in", corpus_dir / "manifest.jsonl",
                   "--out", tmp_path / "o.jsonl") == 0
    assert gate_calls["n"] == 12
    assert capsys.readouterr().out.startswith("retained ")


@pytest.mark.parametrize("out_name, message", [
    ("nodir/o.jsonl", "does not exist"),
    ("existing", "is a directory"),
], ids=["missing-parent", "directory"])
def test_curate_bad_out_path_gates_nothing(tmp_path, corpus_dir, capsys, gate_calls, out_name,
                                           message):
    (tmp_path / "existing").mkdir()
    assert run_cli("curate", "--in", corpus_dir / "manifest.jsonl",
                   "--out", tmp_path / out_name) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and message in err
    assert gate_calls["n"] == 0
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == [Path("existing")]


@pytest.mark.parametrize("clash", ["--out", "--in"])
def test_curate_report_on_out_or_in_is_rejected(tmp_path, corpus_dir, capsys, monkeypatch,
                                                gate_calls, clash):
    # The report names the same file by a relative path, so the check has
    # to compare resolved paths, not the strings given.
    src = tmp_path / "manifest.jsonl"
    src.write_bytes((corpus_dir / "manifest.jsonl").read_bytes())
    before = src.read_bytes()
    out = tmp_path / "cur.jsonl"
    monkeypatch.chdir(tmp_path)
    report = {"--out": "cur.jsonl", "--in": "manifest.jsonl"}[clash]
    assert run_cli("curate", "--in", src, "--out", out, "--report", report) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"same file as {clash}" in err
    assert gate_calls["n"] == 0
    assert src.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.jsonl"]


@pytest.mark.parametrize("field, value, message", [
    ("emotion_label", "bored", "unknown emotion label 'bored'"),
    ("emotion_confidence", 1.5, "confidence must be in [0, 1], got 1.5"),
], ids=["unknown-label", "confidence-above-one"])
def test_curate_gate_error_names_manifest_line(tmp_path, capsys, field, value, message):
    bad = tmp_path / "bad.jsonl"
    lines = (GOOD_RECORD, GOOD_RECORD, {**GOOD_RECORD, field: value})
    bad.write_text("".join(json.dumps(r) + "\n" for r in lines))
    assert run_cli("curate", "--in", bad, "--out", tmp_path / "o.jsonl") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"format error: manifest line 3: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl"]


def test_eval_nan_file_is_one_line_error(tmp_path, corpus_dir, capsys):
    nan_file = tmp_path / "nan.fmat"
    store_feature_matrix(FeatureMatrix(np.full((2, 5), np.nan)), nan_file)
    ok = corpus_dir / "mixed_00000.emo.fmat"
    assert run_cli("eval", "emo-sim", "--a", nan_file, "--b", ok) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("format error:") and "non-finite" in err[0]


def test_eval_identical_files_print_one(tmp_path, corpus_dir, capsys):
    f = corpus_dir / "mixed_00000.emo.fmat"
    assert run_cli("eval", "emo-sim", "--a", f, "--b", f) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0, abs=1e-6)


def test_eval_report_aggregates_across_seeds(tmp_path, corpus_dir, capsys):
    pairs = tmp_path / "pairs.jsonl"
    a = corpus_dir / "mixed_00000.emo.fmat"
    b = corpus_dir / "mixed_00001.emo.fmat"
    pairs.write_text(json.dumps({"a": str(a), "b": str(b)}) + "\n")
    out = tmp_path / "report.json"
    assert run_cli("eval", "report", "--pairs", pairs, "--seeds", "s1,s2,s3",
                   "--out", out) == 0
    rep = json.loads(out.read_text())
    assert rep["seeds"] == ["s1", "s2", "s3"]
    assert rep["std"] == 0.0  # same files for every seed
    assert -1.0 <= rep["mean"] <= 1.0


@pytest.fixture
def score_calls(monkeypatch):
    """Counts the eval commands' frame_cosine_sim calls."""
    calls = {"n": 0}
    score = cli.frame_cosine_sim

    def counting(*args):
        calls["n"] += 1
        return score(*args)

    monkeypatch.setattr(cli, "frame_cosine_sim", counting)
    return calls


@pytest.mark.parametrize("out_name, message", [
    ("nodir/r.json", "does not exist"),
    ("existing", "is a directory"),
], ids=["missing-parent", "directory"])
def test_eval_report_bad_out_path_scores_nothing(tmp_path, corpus_dir, capsys, score_calls,
                                                 out_name, message):
    (tmp_path / "existing").mkdir()
    pairs = tmp_path / "pairs.jsonl"
    a, b = corpus_dir / "mixed_00000.emo.fmat", corpus_dir / "mixed_00001.emo.fmat"
    pairs.write_text(json.dumps({"a": str(a), "b": str(b)}) + "\n")
    assert run_cli("eval", "report", "--pairs", pairs, "--seeds", "s1,s2,s3",
                   "--out", tmp_path / out_name) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and message in err
    assert score_calls["n"] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing", "pairs.jsonl"]


@pytest.mark.parametrize("seeds, named", [("1,1", "1"), ("1,2,1", "1"), ("b,a,b,a", "a, b")],
                         ids=["twice", "apart", "two-names"])
def test_eval_report_repeated_seed_scores_nothing(tmp_path, corpus_dir, capsys, score_calls,
                                                  seeds, named):
    pairs = tmp_path / "pairs.jsonl"
    a, b = corpus_dir / "mixed_00000.emo.fmat", corpus_dir / "mixed_00001.emo.fmat"
    pairs.write_text(json.dumps({"a": str(a), "b": str(b)}) + "\n")
    out = tmp_path / "report.json"
    assert run_cli("eval", "report", "--pairs", pairs, "--seeds", seeds, "--out", out) == 1
    err = capsys.readouterr().err
    assert err == f"error: --seeds names {named} more than once\n"
    assert score_calls["n"] == 0
    assert not out.exists()


@pytest.mark.parametrize(
    "line", ["not json", "[1, 2]", '{"a": 5, "b": "x"}', '{"a": "x"}']
)
def test_eval_report_bad_pair_record_is_one_line_error(tmp_path, capsys, line):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(line + "\n")
    out = tmp_path / "report.json"
    assert run_cli("eval", "report", "--pairs", pairs, "--seeds", "s1", "--out", out) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "pairs.jsonl:1: bad pair record" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("second, message", [
    ("wide", "pairs.jsonl:2: seed s1: embedding dims differ: 3 vs 4"),
    ("long-int", "pairs.jsonl:2: bad pair record (Exceeds the limit (4300 digits)"),
], ids=["incomparable-pair", "long-int"])
def test_eval_report_pair_errors_name_the_pairs_line(tmp_path, capsys, second, message):
    # Both used to print numpy's or json's message alone, naming no file.
    a, wide = tmp_path / "a.fmat", tmp_path / "wide.fmat"
    store_feature_matrix(FeatureMatrix(np.ones((3, 4))), a)
    store_feature_matrix(FeatureMatrix(np.ones((4, 4))), wide)
    lines = [json.dumps({"a": str(a), "b": str(a)}),
             json.dumps({"a": str(a), "b": str(wide)}) if second == "wide"
             else '{"a": ' + "9" * 5000 + ', "b": "x"}']
    pairs, out = tmp_path / "pairs.jsonl", tmp_path / "report.json"
    pairs.write_text("\n".join(lines) + "\n")
    assert run_cli("eval", "report", "--pairs", pairs, "--seeds", "s1", "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / message}") and err.count("\n") == 1, err
    assert not out.exists()


# -- an output that names an input --------------------------------------------------


# Each case copies one input into an empty working directory and names the
# copy again, by a relative path, as an output: --out itself, or sample's
# <out>.json sidecar.  The check has to compare resolved paths.
@pytest.mark.parametrize("command, flag, output", [
    ("eval", "--pairs", "--out"),
    ("sample", "--checkpoint", "--out"),
    ("sample", "--text-phonemes", "--out sidecar"),
    ("sample", "--spk-features", "--out"),
    ("sample", "--spk-phonemes", "--out sidecar"),
    ("sample", "--spk-nv", "--out"),
    ("sample", "--spk-emo", "--out sidecar"),
    ("sample", "--nv-prompt", "--out sidecar"),
    ("sample", "--emo-prompt", "--out"),
], ids=["eval-report-pairs", "checkpoint", "text-phonemes-sidecar", "spk-features",
        "spk-phonemes-sidecar", "spk-nv", "spk-emo-sidecar", "nv-prompt-sidecar", "emo-prompt"])
def test_output_that_is_an_input_is_rejected(tmp_path, corpus_dir, trained_run, capsys,
                                             monkeypatch, command, flag, output):
    if command == "eval":
        pairs = tmp_path / "pairs.jsonl"
        a, b = corpus_dir / "mixed_00000.emo.fmat", corpus_dir / "mixed_00001.emo.fmat"
        pairs.write_text(json.dumps({"a": str(a), "b": str(b)}) + "\n")
        inputs = {"--pairs": pairs}
        argv = ["eval", "report", "--seeds", "s1"]
    else:
        inputs = {
            "--checkpoint": trained_run / "checkpoint.fmck",
            "--text-phonemes": corpus_dir / "mixed_00001.phn",
            "--spk-features": corpus_dir / "mixed_00000.fmat",
            "--spk-phonemes": corpus_dir / "mixed_00000.phn",
            "--spk-nv": corpus_dir / "mixed_00000.nv.fmat",
            "--spk-emo": corpus_dir / "mixed_00000.emo.fmat",
            "--nv-prompt": corpus_dir / "mixed_00001.nv.fmat",
            "--emo-prompt": corpus_dir / "mixed_00001.emo.fmat",
        }
        argv = ["sample", "--nfe", 2]
    work = tmp_path / "work"
    work.mkdir()
    name = "g.fmat.json" if output == "--out sidecar" else "g.fmat"
    clashing = work / name
    clashing.write_bytes(inputs[flag].read_bytes())
    before = clashing.read_bytes()
    inputs[flag] = name
    monkeypatch.chdir(work)
    for f, path in inputs.items():
        argv += [f, path]
    assert run_cli(*argv, "--out", "g.fmat") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {output} {name} is the same file as {flag} {name}\n"
    assert sorted(p.name for p in work.iterdir()) == [name]
    assert clashing.read_bytes() == before


# -- malformed JSON nesting -------------------------------------------------------

DEEP = "[" * 100_000


@pytest.mark.parametrize("line", [DEEP, json.dumps(GOOD_RECORD)[:-1] + ', "x": ' + DEEP],
                         ids=["bare", "in-record"])
@pytest.mark.parametrize("command", ["curate", "train"])
def test_deeply_nested_manifest_line_is_one_line_error(tmp_path, capsys, command, line):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(GOOD_RECORD) + "\n" + line + "\n")
    flags = {"curate": ("--in", bad, "--out", tmp_path / "o.jsonl"),
             "train": ("--manifest", bad, "--steps", 1, "--out", tmp_path / "o")}[command]
    assert run_cli(command, *flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "format error: manifest line 2: invalid JSON (nested too deeply)\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl"]


def test_eval_report_deeply_nested_pair_is_one_line_error(tmp_path, capsys, score_calls):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(DEEP + "\n")
    out = tmp_path / "report.json"
    assert run_cli("eval", "report", "--pairs", pairs, "--seeds", "s1", "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {pairs}:1: bad pair record (nested too deeply)\n"
    assert score_calls["n"] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.jsonl"]


# -- text inputs that are not UTF-8 -----------------------------------------------

# The bad byte is on line 4, after two records and a blank line.  A text read
# decodes a whole chunk ahead of the lines it hands out, so it fails before
# line 1 is handed out: the error must name the line the byte is on.
NOT_UTF8 = "not UTF-8 text (byte 8 of the line is 0xff: invalid start byte)"


def not_utf8_lines(good: str) -> bytes:
    return (good + "\n\n" + good + "\n").encode() + b'{"id": \xff}\n' + (good + "\n").encode()


def only_files(root, names):
    """No output, no .tmp file and no output directory beside the inputs."""
    assert sorted(p.name for p in root.iterdir()) == sorted(names)


@pytest.mark.parametrize("command", ["curate", "train"])
def test_non_utf8_manifest_is_one_line_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(not_utf8_lines(json.dumps(GOOD_RECORD)))
    flags = {"curate": ("--in", bad, "--out", tmp_path / "o.jsonl"),
             "train": ("--manifest", bad, "--steps", 1, "--out", tmp_path / "o")}[command]
    assert run_cli(command, *flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"format error: manifest {bad} line 4: {NOT_UTF8}\n"
    only_files(tmp_path, ["bad.jsonl"])


def test_non_utf8_phoneme_file_in_a_corpus_is_one_line_error(tmp_path, capsys):
    corpus = small_corpus(tmp_path, "a")
    bad = corpus / "mixed_00001.phn"
    bad.write_bytes(b"1 2\n3 \xfe 4\n")
    capsys.readouterr()  # synth's own line
    out = tmp_path / "run"
    assert run_cli("train", "--manifest", corpus / "manifest.jsonl", "--steps", 1,
                   "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("format error: phoneme file "
                            f"{bad} line 2: not UTF-8 text (byte 3 of the line is 0xfe: "
                            "invalid start byte)\n")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--text-phonemes", "--spk-phonemes"])
def test_non_utf8_sample_phonemes_is_one_line_error(tmp_path, corpus_dir, trained_run, capsys,
                                                    flag):
    bad = tmp_path / "bad.phn"
    bad.write_bytes(b"1 2 \xc3\n")
    phonemes = {"--text-phonemes": corpus_dir / "mixed_00001.phn",
                "--spk-phonemes": corpus_dir / "mixed_00000.phn", flag: bad}
    out = tmp_path / "g.fmat"
    assert run_cli(
        "sample", "--checkpoint", trained_run / "checkpoint.fmck",
        *(a for pair in phonemes.items() for a in pair),
        "--spk-features", corpus_dir / "mixed_00000.fmat",
        "--spk-nv", corpus_dir / "mixed_00000.nv.fmat",
        "--spk-emo", corpus_dir / "mixed_00000.emo.fmat",
        "--zero-nv", "--zero-emo", "--out", out,
    ) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"format error: phoneme file {bad} line 1: not UTF-8 text "
                            "(byte 5 of the line is 0xc3: unexpected end of data)\n")
    only_files(tmp_path, ["bad.phn"])


def test_non_utf8_pairs_file_is_one_line_error(tmp_path, capsys, score_calls):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_bytes(not_utf8_lines(json.dumps({"a": "x", "b": "y"})))
    out = tmp_path / "report.json"
    assert run_cli("eval", "report", "--pairs", pairs, "--seeds", "s1", "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {pairs}:4: {NOT_UTF8}\n"
    assert score_calls["n"] == 0
    only_files(tmp_path, ["pairs.jsonl"])


@pytest.mark.parametrize("flag", ["--checkpoint", "--spk-features", "--text-phonemes"])
def test_directory_sample_input_is_one_line_error(tmp_path, corpus_dir, trained_run, capsys,
                                                  flag):
    # A directory opens and then fails the read; the error still names it.
    adir = tmp_path / "adir"
    adir.mkdir()
    inputs = {"--checkpoint": trained_run / "checkpoint.fmck",
              "--text-phonemes": corpus_dir / "mixed_00001.phn",
              "--spk-features": corpus_dir / "mixed_00000.fmat",
              "--spk-phonemes": corpus_dir / "mixed_00000.phn",
              "--spk-nv": corpus_dir / "mixed_00000.nv.fmat",
              "--spk-emo": corpus_dir / "mixed_00000.emo.fmat", flag: adir}
    assert run_cli("sample", *(a for pair in inputs.items() for a in pair),
                   "--zero-nv", "--zero-emo", "--out", tmp_path / "g.fmat") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 21] Is a directory: '{adir}'\n"
    only_files(tmp_path, ["adir"])


def test_directory_in_a_corpus_is_one_line_error(tmp_path, capsys):
    corpus = small_corpus(tmp_path, "a")
    bad = corpus / "mixed_00001.nv.fmat"
    bad.unlink()
    bad.mkdir()
    capsys.readouterr()  # synth's own line
    out = tmp_path / "run"
    assert run_cli("train", "--manifest", corpus / "manifest.jsonl", "--steps", 0,
                   "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 21] Is a directory: '{bad}'\n"
    assert not out.exists()


def test_sample_deeply_nested_checkpoint_config_is_one_line_error(tmp_path, capsys):
    ck = tmp_path / "deep.fmck"
    block = DEEP.encode()
    ck.write_bytes(b"FMCK" + struct.pack("<II", 1, len(block)) + block)
    (tmp_path / "t.phn").write_text("1 2 3\n")
    out = tmp_path / "gen.fmat"
    assert run_cli("sample", "--checkpoint", ck, "--text-phonemes", tmp_path / "t.phn",
                   "--zero-nv", "--zero-emo", "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"format error: bad config block in checkpoint {ck}: nested too deeply\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["deep.fmck", "t.phn"]


@pytest.mark.parametrize("block, detail", [
    ({"d_nv": 16}, "d_nv must be 32"),
    ({"d_nv": 32.0}, "d_nv must be 32"),
    ({"d_emo": 3}, "d_emo must be 2"),
    ({"use_positional": False}, "use_positional must be true"),
    ({"use_positional": 1}, "use_positional must be true"),
    ({"frames_per_second": 50}, "frames_per_second must be 100.0"),
    ({"frames_per_second": 100}, "frames_per_second must be 100.0"),
    ([1, 2], "not a JSON object"),
    ("desk", "not a JSON object"),
    (3, "not a JSON object"),
], ids=["d_nv", "d_nv-float", "d_emo", "use_positional", "use_positional-int",
        "frames_per_second", "frames_per_second-int", "list", "string", "number"])
def test_sample_checkpoint_config_block_boundary(tmp_path, capsys, block, detail):
    # A dict edits the saved config block; any other value replaces it.
    ck = tmp_path / "tiny.fmck"
    save_checkpoint(ck, FUZZ_CFG, init_params(FUZZ_CFG, np.random.default_rng(0)))
    blob = ck.read_bytes()
    (n,) = struct.unpack("<I", blob[8:12])
    if isinstance(block, dict):
        block = {**json.loads(blob[12 : 12 + n]), **block}
    raw = json.dumps(block).encode()
    ck.write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + n :])
    (tmp_path / "t.phn").write_text("1 2 3\n")
    assert run_cli("sample", "--checkpoint", ck, "--text-phonemes", tmp_path / "t.phn",
                   "--zero-nv", "--zero-emo", "--nfe", 1, "--out", tmp_path / "gen.fmat") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"format error: bad config block in checkpoint {ck}: {detail}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.phn", "tiny.fmck"]


def fmck_field_bytes(blob):
    """The offset of every byte of a checkpoint that is not tensor payload:
    the header, the config block and each tensor's name, rank and shape."""
    (cfg_len,) = struct.unpack("<I", blob[8:12])
    offsets, off = list(range(16 + cfg_len)), 16 + cfg_len
    while off < len(blob):
        (name_len,) = struct.unpack("<I", blob[off : off + 4])
        (ndim,) = struct.unpack("<I", blob[off + 4 + name_len : off + 8 + name_len])
        head = 8 + name_len + 4 * ndim
        shape = struct.unpack(f"<{ndim}I", blob[off + 8 + name_len : off + head])
        offsets += range(off, off + head)
        off += head + 4 * math.prod(shape)
    return offsets


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_sample_checkpoint_corruption_fuzz(tmp_path_factory, capsys, data):
    # FMCK has no checksum: a truncated or bit-flipped checkpoint either
    # samples, or fails with one line that names it and writes nothing.
    work = tmp_path_factory.mktemp("fmck")
    ck = work / "tiny.fmck"
    save_checkpoint(ck, FUZZ_CFG, init_params(FUZZ_CFG, np.random.default_rng(0),
                                              zero_output=False))
    blob = bytearray(ck.read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        # Payload is most of the file, so half the flips land in the fields around it.
        fields = st.sampled_from(fmck_field_bytes(blob))
        byte = st.one_of(st.integers(0, len(blob) - 1), fields)
        for i, bit in data.draw(st.lists(st.tuples(byte, st.integers(0, 7)), min_size=1,
                                         max_size=3), label="flips"):
            blob[i] ^= 1 << bit
    ck.write_bytes(bytes(blob))
    (work / "t.phn").write_text("1 2 3\n")
    code = run_cli("sample", "--checkpoint", ck, "--text-phonemes", work / "t.phn",
                   "--zero-nv", "--zero-emo", "--nfe", 1, "--out", work / "gen.fmat")
    event(f"exit {code}")
    err = capsys.readouterr().err
    written = {p.name for p in work.iterdir()} - {"tiny.fmck", "t.phn"}
    if code == 0:
        assert err == "" and written == {"gen.fmat", "gen.fmat.json"}
    else:
        assert code == 1
        assert err.startswith("format error:") and err.count("\n") == 1, err
        assert str(ck) in err, err
        assert written == set(), written


@pytest.fixture(scope="module")
def fuzz_corpus(tmp_path_factory):
    """The files of a 2-record, 6-frame corpus, by name."""
    out = tmp_path_factory.mktemp("fuzz_corpus")
    generate_corpus(out, "mixed", 2, 6, seed=8, feature_dim=3)
    return {p.name: p.read_bytes() for p in out.iterdir()}


CORPUS_FILES = [f"mixed_0000{k}{ext}" for k in (0, 1) for ext in (".fmat", ".phn", ".nv.fmat",
                                                                   ".emo.fmat")]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, max_examples=250, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_train_corpus_corruption_fuzz(tmp_path_factory, capsys, fuzz_corpus, data):
    # A truncated or bit-flipped corpus file either loads, or fails with one
    # line that names the file or its record, and creates no --out.
    work = tmp_path_factory.mktemp("corpus")
    for name, blob in fuzz_corpus.items():
        (work / name).write_bytes(blob)
    name = data.draw(st.sampled_from(CORPUS_FILES), label="file")
    target = work / name
    blob = bytearray(fuzz_corpus[name])
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        # An FMAT header is 20 of a few hundred bytes; half the flips land in it.
        byte = st.integers(0, len(blob) - 1)
        if name.endswith(".fmat"):
            byte = st.one_of(byte, st.integers(0, 19))
        for i, bit in data.draw(st.lists(st.tuples(byte, st.integers(0, 7)), min_size=1,
                                         max_size=3), label="flips"):
            blob[i] ^= 1 << bit
    target.write_bytes(bytes(blob))
    manifest, out = work / "manifest.jsonl", work / "run"
    code = run_cli("train", "--manifest", manifest, "--steps", 0, "--out", out)
    event(f"exit {code}")
    err = capsys.readouterr().err
    if code == 0:
        assert err == "" and (out / "checkpoint.fmck").is_file()
    else:
        assert code == 1
        assert err.startswith(("error:", "format error:")) and err.count("\n") == 1, err
        assert str(target) in err or f"record {name.split('.')[0]!r}" in err, err
        assert not out.exists()


# Path fields of a manifest record, and the names a fuzzed path may take.
PATH_FIELDS = ["features_path", "phonemes_path", "nv_path", "emo_path"]


def corpus_records(fuzz_corpus):
    """Field dicts of the fuzz corpus's manifest, with at most one path
    pointed at another file of the corpus (or at the manifest itself)."""
    records = [json.loads(line) for line in fuzz_corpus["manifest.jsonl"].decode().splitlines()]
    swap = st.sampled_from([None, *PATH_FIELDS])
    return st.tuples(st.sampled_from(records), swap, st.sampled_from(sorted(fuzz_corpus))).map(
        lambda drawn: {**drawn[0], **({drawn[1]: drawn[2]} if drawn[1] else {})})


def damaged(data, blob: bytes) -> bytes:
    """``blob`` as it is, truncated, or with one to three bits flipped.
    Positions are drawn modulo the length, so that what is drawn does not
    depend on the length of a temporary directory's name."""
    edit = data.draw(st.sampled_from(["none", "truncate", "flip"]), label="edit")
    position = st.integers(0, 1 << 16)
    if edit == "truncate" and blob:
        return blob[: data.draw(position, label="length") % len(blob)]
    if edit == "flip" and blob:
        out = bytearray(blob)
        for i, bit in data.draw(st.lists(st.tuples(position, st.integers(0, 7)), min_size=1,
                                         max_size=3), label="flips"):
            out[i % len(blob)] ^= 1 << bit
        return bytes(out)
    return blob


def assert_one_line_failure_or_success(code, captured, work, outputs):
    """Exit 0, or exit 1 with one error line, nothing on stdout and none of
    ``outputs`` (nor any .tmp file) left in ``work``."""
    leftovers = [p.name for p in work.iterdir() if p.name.endswith(".tmp")]
    assert leftovers == [], leftovers
    if code == 0:
        assert captured.err == "", captured.err
        return
    assert code == 1
    assert captured.out == ""
    err = captured.err
    assert err.startswith(("error:", "format error:")) and err.count("\n") == 1, err
    assert not any(p.exists() for p in outputs), err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_train_manifest_fuzz(tmp_path_factory, capsys, fuzz_corpus, data):
    # A manifest with one mutated line (a path may name another corpus
    # file), then maybe truncated or bit-flipped, either trains or fails
    # with one line and creates no --out.
    work = tmp_path_factory.mktemp("manifest")
    for name, blob in fuzz_corpus.items():
        (work / name).write_bytes(blob)
    lines = fuzz_corpus["manifest.jsonl"].decode().splitlines()
    k = data.draw(st.integers(0, len(lines) - 1), label="line")
    lines[k] = data.draw(mutated_manifest_lines(corpus_records(fuzz_corpus)), label="mutated")
    manifest, out = work / "manifest.jsonl", work / "run"
    manifest.write_bytes(damaged(data, "".join(line + "\n" for line in lines).encode()))
    code = run_cli("train", "--manifest", manifest, "--steps", 0, "--out", out)
    event(f"exit {code}")
    captured = capsys.readouterr()
    assert_one_line_failure_or_success(code, captured, work, [out])
    if code == 0:
        assert (out / "checkpoint.fmck").is_file()


# Trajectory files a pairs file can name: (rows, frames) of each, or None
# for a file that is not FMAT.
TRAJECTORIES = {"s1_a.fmat": (3, 6), "s1_b.fmat": (3, 6), "s2_a.fmat": (3, 4),
                "s2_b.fmat": (3, 6), "wide.fmat": (4, 6), "one.fmat": (3, 1),
                "none.fmat": (3, 0), "zero.fmat": (3, 6), "notes.txt": None}
PAIR_NAMES = ["{seed}_a.fmat", "{seed}_b.fmat", *TRAJECTORIES, "missing.fmat", "", "{seed}",
              "sub", "pairs.jsonl", "report.json"]


@st.composite
def pairs_lines(draw, root):
    """One line of a pairs file: a good pair, one with a key changed,
    another JSON value, a blank line or raw text."""
    path = st.sampled_from(PAIR_NAMES).map(lambda name: str(root / name))
    kind = draw(st.sampled_from(["good", "good", "extra", "drop", "swap", "value", "blank",
                                 "text", "long-int"]))
    obj = {"a": draw(path), "b": draw(path)}
    if kind == "extra":
        obj[draw(st.text(max_size=4))] = draw(_json_values)
    elif kind == "drop":
        del obj[draw(st.sampled_from("ab"))]
    elif kind == "swap":
        obj[draw(st.sampled_from("ab"))] = draw(_json_values)
    elif kind == "value":
        return json.dumps(draw(_json_values))
    elif kind == "blank":
        return draw(st.sampled_from(["", " ", "\t"]))
    elif kind == "text":
        return draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=12))
    elif kind == "long-int":
        return '{"a": ' + "9" * 5000 + ', "b": "x"}'
    return json.dumps(obj)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_eval_report_pairs_fuzz(tmp_path_factory, capsys, data):
    # A pairs file of good, mutated and raw lines naming trajectories of
    # several shapes, missing files and non-FMAT files, then maybe
    # truncated or bit-flipped, either scores or fails with one line and
    # writes no --out.
    work = tmp_path_factory.mktemp("pairs")
    rng = np.random.default_rng(0)
    for name, shape in TRAJECTORIES.items():
        if shape is None:
            (work / name).write_text("not a trajectory\n")
        else:
            values = np.zeros(shape) if name == "zero.fmat" else rng.standard_normal(shape)
            store_feature_matrix(FeatureMatrix(values), work / name)
    (work / "sub").mkdir()
    lines = data.draw(st.lists(pairs_lines(work), min_size=0, max_size=3), label="lines")
    pairs, out = work / "pairs.jsonl", work / "report.json"
    pairs.write_bytes(damaged(data, "".join(line + "\n" for line in lines).encode()))
    seeds = data.draw(st.sampled_from(["s1", "s1,s2"]), label="seeds")
    code = run_cli("eval", "report", "--pairs", pairs, "--seeds", seeds, "--out", out)
    event(f"exit {code}")
    captured = capsys.readouterr()
    assert_one_line_failure_or_success(code, captured, work, [out])
    if code == 0:
        def strict(constant):
            raise ValueError(f"{constant} in the report")

        report = json.loads(out.read_text(), parse_constant=strict)
        assert report["seeds"] == seeds.split(",")
        assert captured.out.startswith("mean ") and captured.out.count("\n") == 1


# -- one parser per process -------------------------------------------------------


@pytest.fixture
def recorded(monkeypatch):
    """Replaces cmd_train and cmd_sample with recorders of the parsed args."""
    calls = []

    def record(args):
        calls.append(vars(args).copy())
        return 0

    monkeypatch.setattr(cli, "cmd_train", record)
    monkeypatch.setattr(cli, "cmd_sample", record)
    return calls


SAMPLE_ARGS = ("sample", "--checkpoint", "c.fmck", "--text-phonemes", "t.phn", "--out", "o.fmat")


def test_reused_parser_does_not_accumulate_appended_manifests(recorded):
    assert run_cli("train", "--manifest", "a", "--manifest", "b", "--out", "o") == 0
    assert run_cli("train", "--manifest", "c", "--out", "o") == 0
    assert run_cli("train", "--out", "o") == 0
    assert [call["manifest"] for call in recorded] == [["a", "b"], ["c"], None]


def test_reused_parser_restores_sample_defaults(recorded):
    assert run_cli(*SAMPLE_ARGS, "--nfe", 8, "--guidance", 2.5, "--seed", 7) == 0
    assert run_cli(*SAMPLE_ARGS) == 0
    picked = [(c["nfe"], c["guidance"], c["seed"]) for c in recorded]
    assert picked == [(8, 2.5, 7), (32, 1.0, 0)]


def test_reused_parser_works_after_bad_flags(recorded, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*SAMPLE_ARGS, "--nfe", "many")
    assert exc.value.code == 2
    assert "--nfe" in capsys.readouterr().err
    assert run_cli(*SAMPLE_ARGS, "--seed", 3) == 0
    assert [(c["nfe"], c["seed"]) for c in recorded] == [(32, 3)]


def test_main_dispatches_to_the_module_attribute_at_call_time(tmp_path, capsys, monkeypatch):
    # A tracer replaces cli.cmd_curate after the parser exists; its
    # replacement must be what the next call runs.
    argv = ("curate", "--in", tmp_path / "missing.jsonl", "--out", tmp_path / "o.jsonl")
    assert run_cli(*argv) == 1
    assert "missing.jsonl" in capsys.readouterr().err
    seen = []
    monkeypatch.setattr(cli, "cmd_curate", lambda args: seen.append(args.inp) or 0)
    assert run_cli(*argv) == 0
    assert seen == [str(tmp_path / "missing.jsonl")]
