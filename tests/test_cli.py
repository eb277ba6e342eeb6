import argparse
import json
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import pytest

from flowcond import cli, curate
from flowcond.cli import main, parse_config_file
from flowcond.features import (
    FeatureMatrix,
    FormatError,
    load_feature_matrix,
    read_manifest,
    store_feature_matrix,
)
from flowcond.training import TrainSettings, load_corpus, train_loop
from flowcond.seqmodel import ModelConfig, init_params, load_checkpoint, save_checkpoint


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


def test_train_config_file_with_flag_override(tmp_path, corpus_dir):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        "steps = 5\npeak_lr = 1e-3  # comment\nwarmup_steps = 2\nseed = 9\n"
    )
    out = tmp_path / "run"
    assert run_cli("train", "--config", cfg, "--manifest", corpus_dir / "manifest.jsonl",
                   "--steps", 2, "--out", out) == 0
    lines = (out / "loss_log.txt").read_text().splitlines()
    assert len(lines) == 2  # flag overrode config's 5
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["args"]["seed"] == 9


# The train provenance records every field of TrainSettings.
PROVENANCE_SETTINGS = tuple(f.name for f in fields(TrainSettings))


@dataclass
class ShiftedSettings(TrainSettings):
    """TrainSettings with every recorded default moved off its real value."""

    batch_frames: int = 96
    peak_lr: float = 5e-4
    warmup_steps: int = 3
    sigma_min: float = 1e-4
    p_drop: float = 0.1
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

    cfg = tmp_path / "train.cfg"
    cfg.write_text("peak_lr = 2e-3\nwarmup_steps = 7\nseed = 9\n")
    assert run_cli("train", "--config", cfg, "--manifest", manifest, "--steps", 0,
                   "--seed", 4, "--out", tmp_path / "b") == 0
    assert recorded(tmp_path / "b") == expected(peak_lr=2e-3, warmup_steps=7, seed=4)


@pytest.mark.parametrize(
    "flag, value",
    [("--p-drop", "1.5"), ("--p-drop", "nan"), ("--sigma-min", "nan"), ("--peak-lr", "-1"),
     ("--peak-lr", "inf"), ("--warmup", "-5"), ("--checkpoint-every", "-1"), ("--seed", "-1")],
)
def test_train_bad_setting_values_leave_no_files(tmp_path, corpus_dir, capsys, flag, value):
    out = tmp_path / "run"
    assert run_cli("train", "--manifest", corpus_dir / "manifest.jsonl", "--steps", 2,
                   f"{flag}={value}", "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


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


def other_feature_dim(tmp_path):
    return [small_corpus(tmp_path, "a"), small_corpus(tmp_path, "b", feature_dim=4)], "4 x 8"


def other_frame_length(tmp_path):
    return [small_corpus(tmp_path, "a"), small_corpus(tmp_path, "b", frames=12)], "8 x 12"


@pytest.mark.parametrize("make", [out_of_vocab_phoneme, other_feature_dim, other_frame_length],
                         ids=["phoneme-id", "feature-dim", "frame-length"])
def test_train_corpora_that_do_not_fit_the_model_leave_no_files(tmp_path, capsys, make):
    corpora, detail = make(tmp_path)
    out = tmp_path / "run"
    manifests = [a for c in corpora for a in ("--manifest", c / "manifest.jsonl")]
    assert run_cli("train", *manifests, "--steps", 2, "--batch-frames", 16, "--out", out) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and detail in err


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


def test_train_schema_is_train_settings():
    names = {f.name for f in fields(TrainSettings)}
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in commands.choices["train"]._actions} - {"help"}
    assert dests == names | {"config", "manifest", "ratios", "out"}
    assert set(cli._CONFIG_KEYS) == names | {"manifests", "ratios"}


def test_parse_config_rejects_preset_key(tmp_path):
    cfg = tmp_path / "old.cfg"
    cfg.write_text("preset = desk\n")
    with pytest.raises(cli.CliError, match="unknown config key 'preset'"):
        parse_config_file(cfg)


def test_shipped_configs_parse():
    configs = Path(__file__).parent.parent / "configs"
    desk = parse_config_file(configs / "desk.cfg")
    assert TrainSettings(**desk).steps == 2000


def test_parse_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    from flowcond.cli import CliError

    with pytest.raises(CliError, match="bogus"):
        parse_config_file(cfg)


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
    """Counts the curate pipeline's first_failing_gate calls."""
    calls = {"n": 0}
    gate = curate.first_failing_gate

    def counting(*args):
        calls["n"] += 1
        return gate(*args)

    monkeypatch.setattr(curate, "first_failing_gate", counting)
    return calls


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
    assert run_cli(*SAMPLE_ARGS, "--nfe", 8, "--guidance", 2.5, "--solver", "midpoint") == 0
    assert run_cli(*SAMPLE_ARGS) == 0
    picked = [(c["nfe"], c["guidance"], c["solver"]) for c in recorded]
    assert picked == [(8, 2.5, "midpoint"), (32, 1.0, "euler")]


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
