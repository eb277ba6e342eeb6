"""Metric definitions, the per-layer table, and the printed report.

Each per-layer metric names the end-to-end metric it should move and
the workload it should move it on; on the other workloads the
prediction is no change.  ``ms`` figures are self time (span duration
minus child spans) per operation of the traced segment, and ``calls``
are calls per operation, so a workload's ``ms`` rows plus
``trace.uncovered_ms`` add up to its operation time under tracing.
"""

from __future__ import annotations

import numpy as np

import tracer as tracing

END_TO_END = (
    # name, unit, better, meaning
    ("setup_s", "s", "lower", "median set-up time at reference speed (probe = 1 ms): loading the inputs"),
    ("peak_rss_mb", "MB", "lower", "ru_maxrss of the benchmark's child process"),
    ("op_cost.p50", "probe", "lower", "median operation time over the reference probe time around it"),
)

# Figures measured untraced that are too unsteady on a shared host to gate
# a change (see README.md), and the workload-specific splits of the
# operation.  Traced runs carry them in the per-layer JSON, measured in
# their untraced segment; every run prints them.
UNTRACED = (
    # name, unit, better, workloads
    ("op_cost.tail", "probe", "lower", "all"),
    ("op_ms.p50", "ms", "lower", "all"),
    ("op_ms.p90", "ms", "lower", "all"),
    ("op_ms.tail", "ms", "lower", "all"),
    ("probe_ms.p50", "ms", "lower", "all"),
    ("setup_wall_s", "s", "lower", "all"),
    ("items_per_s", "items/s", "higher", "all"),
    ("step_ms.p50", "ms", "lower", "train, toy"),
    ("step_ms.tail", "ms", "lower", "train, toy"),
    ("frames_per_s", "frames/s", "higher", "train, toy"),
    ("guided_ms.p50", "ms", "lower", "sample"),
    ("guided_ms.tail", "ms", "lower", "sample"),
    ("unguided_ms.p50", "ms", "lower", "sample"),
    ("unguided_ms.tail", "ms", "lower", "sample"),
    ("gen_frames_per_s", "frames/s", "higher", "sample"),
    ("write_records_per_s", "records/s", "higher", "data"),
    ("read_records_per_s", "records/s", "higher", "data"),
    ("curate_records_per_s", "records/s", "higher", "data"),
)

# name, unit, better, end-to-end metric it should move, workload(s)
LAYERS = (
    ("seqmodel.forward_batch.ms", "ms", "lower", "op_cost.*", "train; sample"),
    ("seqmodel.forward_batch.calls", "count", "lower", "none (count)", "train, toy, sample"),
    ("seqmodel.backward_batch.ms", "ms", "lower", "op_cost.*", "train (about 1/4 of it on toy)"),
    ("seqmodel.adam_update.ms", "ms", "lower", "op_cost.*", "train, toy"),
    ("seqmodel.loss.ms", "ms", "lower", "op_cost.*", "train, toy"),
    ("seqmodel.train_step.ms", "ms", "lower", "op_cost.*", "toy"),
    ("seqmodel.fwd_gflop_s", "GFLOP/s", "higher", "op_cost.*", "train"),
    ("seqmodel.bwd_gflop_s", "GFLOP/s", "higher", "op_cost.*", "train"),
    ("seqmodel.fwd_mflop_computed", "MFLOP", "lower", "none (computed per forward call)", "train, toy, sample"),
    ("seqmodel.bwd_mflop_computed", "MFLOP", "lower", "none (computed per backward call)", "train, toy"),
    ("seqmodel.from_examples.ms", "ms", "lower", "op_cost.*", "toy; sample"),
    ("seqmodel.init_params.ms", "ms", "lower", "items_per_s (once a job, outside timed steps)", "train, toy"),
    ("seqmodel.save_checkpoint.ms", "ms", "lower", "items_per_s (twice a job, outside timed steps)", "train, toy"),
    ("seqmodel.load_checkpoint.ms", "ms", "lower", "op_cost.*; setup_s", "sample"),
    ("seqmodel.checkpoint_bytes_computed", "B", "lower", "none (computed per file)", "train, toy, sample"),
    ("training.loop.ms", "ms", "lower", "op_cost.*", "toy"),
    ("training.draw_source.ms", "ms", "lower", "op_cost.*", "toy"),
    ("training.load_corpus.ms", "ms", "lower", "op_cost.*; setup_s", "data; train, toy"),
    ("infill.sample_mask.ms", "ms", "lower", "op_cost.*", "toy"),
    ("infill.build_example.ms", "ms", "lower", "op_cost.*", "toy"),
    ("infill.apply_condition_dropout.ms", "ms", "lower", "op_cost.*", "toy"),
    ("infill.apply_condition_dropout.calls", "count", "lower", "none (count)", "train, toy"),
    ("infill.zero_conditions.ms", "ms", "lower", "op_cost.* (guided half)", "sample"),
    ("infill.dropout_ratio", "ratio", "lower", "none (sanity: near p_drop 0.2)", "train, toy"),
    ("fm_core.make_flow_sample.ms", "ms", "lower", "op_cost.*", "toy"),
    ("sampler.integrate_batch.ms", "ms", "lower", "op_cost.*", "sample"),
    ("sampler.field_evals", "count", "lower", "op_cost.* (48 = mean of 64 guided and 32 unguided)", "sample"),
    ("sampler.guided_field.ms", "ms", "lower", "op_cost.* (guided half)", "sample"),
    ("sampler.assemble_prompt.ms", "ms", "lower", "op_cost.*", "sample"),
    ("sampler.interpolate_stream.ms", "ms", "lower", "op_cost.*", "sample"),
    ("sampler.interpolate_stream.calls", "count", "lower", "none (count)", "sample"),
    ("cli.main.ms", "ms", "lower", "op_cost.*", "sample, data"),
    ("cli.sample.ms", "ms", "lower", "op_cost.* (arg handling, checkpoint sha256, sidecar)", "sample"),
    ("cli.curate.ms", "ms", "lower", "op_cost.*", "data"),
    ("features.generate_corpus.ms", "ms", "lower", "op_cost.*", "data"),
    ("features.store_feature_matrix.ms", "ms", "lower", "op_cost.*", "data"),
    ("features.store_feature_matrix.calls", "count", "lower", "none (count)", "data, sample"),
    ("features.load_feature_matrix.ms", "ms", "lower", "op_cost.*; setup_s", "data, sample; train, toy, sample"),
    ("features.load_feature_matrix.calls", "count", "lower", "none (count)", "data, sample"),
    ("features.fmat_bytes_computed", "B", "lower", "none (computed per file)", "data, sample"),
    ("features.read_manifest.ms", "ms", "lower", "op_cost.*", "data"),
    ("features.read_manifest.records", "count", "lower", "none (count)", "data"),
    ("features.write_manifest.ms", "ms", "lower", "setup_s", "data"),
    ("curate.run_pipeline.ms", "ms", "lower", "op_cost.*", "data"),
    ("curate.retained_ratio", "ratio", "higher", "none (sanity)", "data"),
    ("metrics.frame_cosine_sim.ms", "ms", "lower", "none (diagnostic)", "data"),
    ("metrics.frame_cosine_sim.calls", "count", "lower", "none (count)", "data"),
    ("trace.uncovered_ms", "ms", "lower", "none (time outside every wrapped layer)", "all"),
    ("trace.covered_pct", "%", "higher", "none (share of operation time inside wrapped layers)", "all"),
    ("trace.overhead_pct", "%", "lower", "none (traced vs untraced op_cost.p50)", "all"),
    ("trace.spans_per_op", "count", "lower", "none (count)", "all"),
    ("trace.absent_layers", "count", "lower", "none (wrapped names missing from the code)", "all"),
    ("error_rate", "ratio", "lower", "none (failed / attempted operations)", "all"),
) + tuple((name, unit, better, "none (untraced end-to-end figure)", on)
          for name, unit, better, on in UNTRACED)

def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


# Per-layer rows named differently from the span they read.
_SPAN_OF = {
    "training.loop": "training.train_loop",
}


def _span_name(metric: str) -> str:
    base = metric.rsplit(".", 1)[0]
    return _SPAN_OF.get(base, base)


def per_layer(spans: tracing.Spans, tracer: tracing.Tracer, traced, plain, untraced: dict) -> dict:
    """Every LAYERS metric from one traced segment (0 where a layer is idle or absent)."""
    ops = max(traced.ops, 1)
    self_s = spans.self_time()
    names = np.array(spans.names)[spans.name] if len(spans.name) else np.array([], dtype=str)
    counters = tracer.counters

    def total(span: str) -> float:
        return float(self_s[names == span].sum())

    def calls(span: str) -> int:
        return int(np.count_nonzero(names == span))

    def counter(span: str, key: str) -> float:
        return counters.get((span, key), 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    container = np.isin(names, list(tracing.CONTAINERS))
    covered = float(self_s[~container].sum())
    fwd, bwd = "seqmodel.forward_batch", "seqmodel.backward_batch"
    parent_names = np.where(spans.parent >= 0, names[np.maximum(spans.parent, 0)], "")
    fmat_calls = calls("features.store_feature_matrix") + calls("features.load_feature_matrix")
    ckpt_calls = calls("seqmodel.save_checkpoint") + calls("seqmodel.load_checkpoint")
    plain_cost = percentile(plain.cost(), 50)
    traced_cost = percentile(traced.cost(), 50)
    special = {
        "seqmodel.fwd_gflop_s": ratio(counter(fwd, "flop"), total(fwd)) / 1e9,
        "seqmodel.bwd_gflop_s": ratio(counter(bwd, "flop"), total(bwd)) / 1e9,
        "seqmodel.fwd_mflop_computed": ratio(counter(fwd, "flop"), calls(fwd)) / 1e6,
        "seqmodel.bwd_mflop_computed": ratio(counter(bwd, "flop"), calls(bwd)) / 1e6,
        "seqmodel.checkpoint_bytes_computed": ratio(
            counter("seqmodel.save_checkpoint", "bytes") + counter("seqmodel.load_checkpoint", "bytes"),
            ckpt_calls),
        "features.fmat_bytes_computed": ratio(
            counter("features.store_feature_matrix", "bytes")
            + counter("features.load_feature_matrix", "bytes"), fmat_calls),
        "features.read_manifest.records": counter("features.read_manifest", "items") / ops,
        "curate.retained_ratio": ratio(counter("curate.run_pipeline", "retained"),
                                       counter("curate.run_pipeline", "total")),
        "infill.dropout_ratio": ratio(
            np.count_nonzero((names == "infill.zero_conditions")
                             & (parent_names == "infill.apply_condition_dropout")),
            calls("infill.apply_condition_dropout")),
        "sampler.field_evals": ratio(
            np.count_nonzero((names == fwd) & (parent_names == "sampler.integrate_batch")),
            calls("sampler.integrate_batch")),
        "trace.uncovered_ms": (traced.busy_s - covered) / ops * 1e3,
        "trace.covered_pct": ratio(covered, traced.busy_s) * 100.0,
        "trace.overhead_pct": ratio(traced_cost - plain_cost, plain_cost) * 100.0,
        "trace.spans_per_op": len(names) / ops,
        "trace.absent_layers": float(len(tracer.absent)),
    }
    table = {}
    for name, *_ in LAYERS:
        if name in special:
            table[name] = float(special[name])
        elif any(name == row[0] for row in UNTRACED):
            table[name] = float(untraced.get(name, 0.0))
        elif name.endswith(".ms"):
            table[name] = total(_span_name(name)) / ops * 1e3
        elif name.endswith(".calls"):
            table[name] = calls(_span_name(name)) / ops
        elif name != "error_rate":
            raise KeyError(name)
    return table


def absent_metrics(absent: list[str]) -> set[str]:
    """Per-layer rows that read from a span whose target is missing."""
    return {name for name, *_ in LAYERS if _span_name(name) in absent}


def print_report(result: dict, out) -> None:
    env = result["env"]
    print(f"workload {env['workload']}  seed {env['seed']}  blas {env['blas']}  "
          f"blas_threads {env['blas_threads']}  nproc {env['nproc']}  "
          f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"commit {env['commit']}  src_sha256 {env['src_sha256'][:12]}", file=out)
    print(f"operations {result['ops']}  attempted {result['attempted']}  "
          f"failed {result['failed']}", file=out)
    metrics = result["metrics"]
    if "untraced" in result:
        units = {name: unit for name, unit, *_ in END_TO_END + UNTRACED}
        rows = {**metrics, **result["untraced"]}
        for name, value in rows.items():
            print(f"  {name:<24} {value:>14.4f} {units.get(name, '')}", file=out)
        return
    gone = absent_metrics(result.get("absent", []))
    print(f"  {'layer metric':<38} {'value':>12}  unit      moves / on", file=out)
    for name, unit, _, moves, on in LAYERS:
        shown = "absent" if name in gone else f"{metrics[name]:.4f}"
        print(f"  {name:<38} {shown:>12}  {unit:<9} {moves} / {on}", file=out)
