"""Tests of the benchmark itself: its gates count wrong answers as
failures, tracing leaves outputs unchanged, and the metric names agree
with BENCHMARK.json.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import bench
import layers
import tracer as tracing

FC = bench.import_flowcond()


def traced(workload_cls, tmp_path, seed=3, **attrs):
    tracer = tracing.Tracer()
    wl = make(workload_cls, tmp_path, seed, tracer, **attrs)
    return wl, tracer


def make(workload_cls, tmp_path, seed=3, tracer=None, **attrs):
    wl = workload_cls(FC, tmp_path, seed, tracer)
    for key, value in attrs.items():
        setattr(wl, key, value)
    wl.prepare()
    wl.setup()
    return wl


# -- gates count wrong answers -------------------------------------------------------


def test_nan_loss_fails_the_segment():
    losses = list(np.linspace(1.0, 0.1, 50))
    assert bench.train_failures(losses, checkpoint_ok=True) == 0
    losses[20] = math.nan
    assert bench.train_failures(losses, checkpoint_ok=True) == 1
    losses[0] = math.nan  # inside the early window: the learning test fails too
    assert bench.train_failures(losses, checkpoint_ok=True) == 50
    assert bench.train_failures(list(np.linspace(1.0, 0.1, 50)), checkpoint_ok=False) == 50
    assert bench.train_failures(list(np.linspace(1.0, 0.9, 50)), checkpoint_ok=True) == 50


def test_nan_sample_output_counts_as_failed(tmp_path):
    wl = make(bench.SampleWorkload, tmp_path, prompts=2)

    def nan_request(index, guidance, out):
        rc = bench.SampleWorkload.request(wl, index, guidance, out)
        values = bench.read_fmat(out).copy()
        values[0, 0] = np.nan
        FC["features"].store_feature_matrix(values, out)
        return rc

    wl.request = nan_request
    seg = wl.segment(ops=1, gate=False)
    assert (seg.attempted, seg.failed) == (2, 2)


def test_wrong_curated_count_counts_as_failed(tmp_path):
    wl = make(bench.DataWorkload, tmp_path, corpus_records=3, manifest_records=300)
    assert wl.segment(ops=1).failed == 0
    wl.expected = dict(wl.expected, retained=wl.expected["retained"] + 1)
    assert wl.segment(ops=1).failed == 1


def test_curation_oracle_matches_criterion_seven_rules():
    rec = FC["features"].DatasetRecord
    base = dict(id="r", features_path="f", phonemes_path="p", nv_path="n", emo_path="e",
                duration_s=1.0, speaker_change=False)
    records = [
        rec(**base, emotion_label="neutral", emotion_confidence=0.999, ovlr=5.0),
        rec(**base, emotion_label="happy", emotion_confidence=1.0, ovlr=3.0),
        rec(**{**base, "speaker_change": True}, emotion_label="sad", emotion_confidence=0.0, ovlr=4.0),
        rec(**base, emotion_label="angry", emotion_confidence=0.3, ovlr=3.0001),
    ]
    assert bench.curation_oracle(records) == {
        "emotion_gate": 1, "quality_gate": 1, "speaker_gate": 1, "retained": 1,
    }


def test_wrong_field_eval_count_counts_as_failed(tmp_path):
    wl, tracer = traced(bench.SampleWorkload, tmp_path, prompts=2)
    tracer.install()
    try:
        seg = wl.segment(ops=1, gate=False)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    assert (seg.attempted, seg.failed) == (2, 0)
    assert wl.request_failures(spans) == 0
    wl.issued = [(i, 0.0) for i, _ in wl.issued]  # claim the guided request was unguided
    assert wl.request_failures(spans) == 1


# -- tracing changes no output ---------------------------------------------------------


@pytest.mark.parametrize("workload_cls", [bench.TrainWorkload, bench.ToyWorkload])
def test_tracing_keeps_loss_history(tmp_path, workload_cls):
    plain = make(workload_cls, tmp_path / "plain").segment(ops=6, gate=False)
    wl, tracer = traced(workload_cls, tmp_path / "traced")
    tracer.install()
    try:
        seg = wl.segment(ops=6, gate=False)
    finally:
        tracer.uninstall()
    assert len(tracer.spans().start) > 0
    assert seg.outputs == plain.outputs and len(seg.outputs) == 6


def test_tracing_keeps_generated_bytes(tmp_path):
    plain = make(bench.SampleWorkload, tmp_path / "plain", prompts=2).segment(ops=1, gate=False)
    wl, tracer = traced(bench.SampleWorkload, tmp_path / "traced", prompts=2)
    tracer.install()
    try:
        seg = wl.segment(ops=1, gate=False)
    finally:
        tracer.uninstall()
    assert len(seg.outputs) == 2 and seg.outputs == plain.outputs


# -- the trace table -------------------------------------------------------------------


def test_missing_targets_are_reported_absent(tmp_path):
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS + (
        ("seqmodel.gone", "flowcond.seqmodel", "BatchInputs.no_such_method"),
        ("nowhere.fn", "flowcond.no_such_module", "fn"),
    ))
    try:
        assert {"seqmodel.gone", "nowhere.fn"} <= set(tracer.absent)
        assert "seqmodel.from_examples" not in tracer.absent
    finally:
        tracer.uninstall()
    assert FC["seqmodel"].VectorFieldModel.forward_batch.__name__ == "forward_batch"


def test_per_layer_table_accounts_for_the_step(tmp_path):
    wl, tracer = traced(bench.ToyWorkload, tmp_path)
    plain = wl.segment(ops=8, gate=False)
    tracer.install()
    try:
        seg = wl.segment(ops=8, gate=False)
    finally:
        tracer.uninstall()
    table = layers.per_layer(tracer.spans(), tracer, seg, plain, wl.split_metrics(plain))
    assert set(table) == {name for name, *_ in layers.LAYERS} - {"error_rate"}
    layer_ms = sum(v for k, v in table.items()
                   if k.endswith(".ms") and not k.startswith("trace.") and k != "training.loop.ms")
    op_ms = seg.busy_s / seg.ops * 1e3
    assert layer_ms + table["trace.uncovered_ms"] == pytest.approx(op_ms, rel=1e-6)
    assert table["trace.covered_pct"] > 90.0
    assert table["infill.apply_condition_dropout.calls"] == 128
    assert table["seqmodel.forward_batch.calls"] == 1


def test_every_wrapped_layer_has_a_time_row():
    timed = {layers._span_name(name) for name, *_ in layers.LAYERS if name.endswith(".ms")}
    assert {span for span, _, _ in tracing.TARGETS} <= timed


def test_model_flops_counts_each_product():
    cfg = FC["seqmodel"].PRESETS["desk"]
    fwd, bwd = tracing.model_flops(cfg, batch=1, frames=1)
    linear = cfg.input_dim * 64 + 2 * (4 * 64 * 64 + 2 * 64 * 128) + 64 * 8
    assert fwd == 2 * (linear + 2 * 2 * 64) and bwd == 2 * fwd


def test_checkpoint_bytes_match_the_file(tmp_path):
    cfg, params = FC["seqmodel"].load_checkpoint(bench.CHECKPOINT)
    assert tracing.checkpoint_bytes(cfg, params) == bench.CHECKPOINT.stat().st_size
    assert tracing.fmat_bytes(8, 64) == 20 + 8 * 64 * 4


# -- BENCHMARK.json and the runner ------------------------------------------------------


def test_benchmark_json_names_match_the_code():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (name, unit, better) for name, unit, better, _ in layers.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in layers.LAYERS]
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "data", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
