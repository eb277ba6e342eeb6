"""What the benchmark under ``perfbench/`` relies on, checked without running it.

perfbench traces ``flowcond`` by wrapping the functions that
``perfbench.tracer.TARGETS`` names, and its ``sample`` workload counts one
traced ``VectorFieldModel.forward_batch`` call per field evaluation of a
request (``perfbench/bench.py``, ``expected_field_evals``), whose span has
``sampler.integrate_batch`` as its parent (``perfbench/layers.py``,
``sampler.field_evals``).  Its
``features.store_feature_matrix`` rows count the FMAT files that
``generate_corpus`` writes through that module binding, and its per-layer
training rows the traced functions a training step calls.  A change that
renames a traced function, that evaluates the field in fewer or more
forward calls, that writes an FMAT file past the traced function, or that
runs a training step past one of its traced functions, fails here
instead of leaving the benchmark to read zeros or count failed requests.
Nothing here changes a file under ``perfbench/``.
"""

import importlib.util
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from flowcond import (
    GuidanceConfig,
    ModelConfig,
    VectorFieldModel,
    assemble_prompt,
    init_params,
    integrate_batch,
    make_field_fn,
)
from flowcond import features, sampler, training
from flowcond.infill import EMO_DIM, NV_DIM

# Traced names whose functions are gone and that the benchmark has not yet
# been re-pinned for (ROADMAP item 2).  The re-pin empties this list.
ABSENT_TARGETS = [
    "training.draw_source",
    "infill.build_example",
    "infill.apply_condition_dropout",
    "infill.zero_conditions",
    "fm_core.make_flow_sample",
]


# What one training step calls, by traced name: each exactly once.
STEP_TARGETS = [
    "seqmodel.train_step",
    "seqmodel.from_examples",
    "infill.sample_mask",
    "seqmodel.forward_batch",
    "seqmodel.loss",
    "seqmodel.backward_batch",
    "seqmodel.adam_update",
]


def load_tracer(monkeypatch):
    """A ``perfbench.tracer.Tracer``, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module.Tracer()


def test_every_traced_target_resolves_but_the_pinned_absent_ones(monkeypatch):
    tracer = load_tracer(monkeypatch)
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.absent == ABSENT_TARGETS


@pytest.mark.parametrize("strength, per_step", [(1.0, 2), (0.0, 1)], ids=["guided", "unguided"])
def test_one_forward_call_per_field_evaluation(monkeypatch, strength, per_step):
    cfg = ModelConfig(n_layers=1, d_model=8, d_ffn=8, d_phn=2, n_phonemes=5, feature_dim=3)
    model = VectorFieldModel(cfg)
    field = make_field_fn(model, init_params(cfg, np.random.default_rng(0)))
    forward = VectorFieldModel.forward_batch
    calls = {"n": 0}

    def counting(self, inputs, params):
        calls["n"] += 1
        return forward(self, inputs, params)

    monkeypatch.setattr(VectorFieldModel, "forward_batch", counting)
    rng = np.random.default_rng(0)
    for nfe in (1, 7, 32):
        prompt = assemble_prompt(
            rng.standard_normal((3, 4)), rng.integers(1, 5, 4), rng.standard_normal((32, 4)),
            rng.uniform(-0.5, 0.5, (2, 4)), rng.integers(1, 5, 6), rng.standard_normal((32, 6)),
            rng.uniform(-0.5, 0.5, (2, 6)),
        )
        calls["n"] = 0
        integrate_batch(field, prompt, GuidanceConfig(strength=strength, nfe=nfe), rng)
        assert calls["n"] == per_step * nfe


@pytest.mark.parametrize("strength, per_step", [(1.0, 2), (0.0, 1)], ids=["guided", "unguided"])
def test_traced_request_nests_a_measured_forward_per_evaluation(monkeypatch, strength, per_step):
    # sampler.field_evals counts forward spans under integrate_batch, and
    # fwd_gflop_s divides the forward flop counter (sized from the second
    # argument's x_t) by their time; either reads 0 if the field stops
    # calling forward_batch with the prompt directly.
    cfg = ModelConfig(n_layers=1, d_model=8, d_ffn=8, d_phn=2, n_phonemes=5, feature_dim=3)
    field = make_field_fn(VectorFieldModel(cfg), init_params(cfg, np.random.default_rng(0)))
    rng = np.random.default_rng(1)
    prompt = assemble_prompt(
        rng.standard_normal((3, 4)), rng.integers(1, 5, 4), rng.standard_normal((32, 4)),
        rng.uniform(-0.5, 0.5, (2, 4)), rng.integers(1, 5, 6), rng.standard_normal((32, 6)),
        rng.uniform(-0.5, 0.5, (2, 6)),
    )
    nfe = 3
    tracer = load_tracer(monkeypatch)
    tracer.install()
    try:
        sampler.integrate_batch(field, prompt, GuidanceConfig(strength=strength, nfe=nfe), rng)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    names = np.array(spans.names)[spans.name]
    forwards = np.flatnonzero(names == "seqmodel.forward_batch")
    assert len(forwards) == per_step * nfe
    parents = spans.parent[forwards]
    assert (parents >= 0).all() and set(names[parents]) == {"sampler.integrate_batch"}
    assert tracer.counters["seqmodel.forward_batch", "flop"] > 0


def test_generate_corpus_writes_every_fmat_through_the_module_binding(tmp_path, monkeypatch):
    # perfbench's store_feature_matrix.calls and fmat_bytes_computed rows
    # wrap features.store_feature_matrix; a local alias or an inlined write
    # would leave them reading 0.
    store = features.store_feature_matrix
    calls = []

    def counting(matrix, path):
        calls.append((str(path), np.shape(getattr(matrix, "values", matrix))))
        return store(matrix, path)

    monkeypatch.setattr(features, "store_feature_matrix", counting)
    features.generate_corpus(tmp_path, "mixed", 4, 10, seed=0, feature_dim=3)
    assert len(calls) == 3 * 4
    fmats = sorted(str(p) for p in tmp_path.glob("*.fmat"))
    assert sorted(path for path, _ in calls) == fmats
    # The shape the tracer reads off the first argument sizes each file.
    assert all(os.path.getsize(path) == 20 + 4 * rows * cols for path, (rows, cols) in calls)


def test_one_training_step_calls_each_traced_step_function_once(monkeypatch):
    # perfbench's train and toy rows (forward, backward, loss, Adam, batch
    # building) time these wrappers; a step that reached one of them by
    # another route would leave its row reading 0.
    cfg = ModelConfig(n_layers=1, d_model=8, d_ffn=8, d_phn=2, n_phonemes=5, feature_dim=3)
    rng = np.random.default_rng(0)
    n, t = 4, 6
    corpus = training.Corpus(
        rng.standard_normal((n, cfg.feature_dim, t)), rng.integers(0, 5, (n, t)),
        rng.standard_normal((n, NV_DIM, t)), rng.uniform(-0.5, 0.5, (n, EMO_DIM, t)),
    )
    tracer = load_tracer(monkeypatch)
    tracer.install()
    try:
        settings = training.TrainSettings(steps=1, batch_frames=2 * t)
        training.train_loop(cfg, [corpus], [1.0], settings)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    counts = Counter(spans.names[i] for i in spans.name)
    assert {name: counts[name] for name in STEP_TARGETS} == dict.fromkeys(STEP_TARGETS, 1)
