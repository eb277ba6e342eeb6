"""In-memory span recorder and the wrappers that feed it.

Tracing lives entirely in the benchmark: ``install`` replaces functions
and methods of the ``flowcond`` package with timing wrappers, by
patching every module-level binding of the original object and the
class attribute for methods, and ``uninstall`` puts the originals back.
Each call records one span (name, start, end, parent span, request id).
Spans stay in flat arrays until the run ends.

A target whose module, class or attribute no longer exists is reported
as absent rather than failing the run, so the table survives renames.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import sys
from array import array
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Callable

import numpy as np

# (span name, module, attribute path).  The span name is the layer name
# used by the per-layer table.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("training.train_loop", "flowcond.training", "train_loop"),
    ("training.draw_source", "flowcond.training", "draw_source"),
    ("training.load_corpus", "flowcond.training", "load_corpus"),
    ("infill.sample_mask", "flowcond.infill", "sample_mask"),
    ("infill.build_example", "flowcond.infill", "build_example"),
    ("infill.apply_condition_dropout", "flowcond.infill", "apply_condition_dropout"),
    ("infill.zero_conditions", "flowcond.infill", "zero_conditions"),
    ("fm_core.make_flow_sample", "flowcond.fm_core", "make_flow_sample"),
    ("seqmodel.train_step", "flowcond.seqmodel", "train_step"),
    ("seqmodel.from_examples", "flowcond.seqmodel", "BatchInputs.from_examples"),
    ("seqmodel.forward_batch", "flowcond.seqmodel", "VectorFieldModel.forward_batch"),
    ("seqmodel.backward_batch", "flowcond.seqmodel", "VectorFieldModel.backward_batch"),
    ("seqmodel.loss", "flowcond.seqmodel", "masked_batch_loss_grad"),
    ("seqmodel.adam_update", "flowcond.seqmodel", "adam_update"),
    ("seqmodel.init_params", "flowcond.seqmodel", "init_params"),
    ("seqmodel.save_checkpoint", "flowcond.seqmodel", "save_checkpoint"),
    ("seqmodel.load_checkpoint", "flowcond.seqmodel", "load_checkpoint"),
    ("sampler.integrate_batch", "flowcond.sampler", "integrate_batch"),
    ("sampler.guided_field", "flowcond.sampler", "guided_field"),
    ("sampler.assemble_prompt", "flowcond.sampler", "assemble_prompt"),
    ("sampler.interpolate_stream", "flowcond.sampler", "interpolate_stream"),
    ("features.generate_corpus", "flowcond.features", "generate_corpus"),
    ("features.store_feature_matrix", "flowcond.features", "store_feature_matrix"),
    ("features.load_feature_matrix", "flowcond.features", "load_feature_matrix"),
    ("features.read_manifest", "flowcond.features", "read_manifest"),
    ("features.write_manifest", "flowcond.features", "write_manifest"),
    ("curate.run_pipeline", "flowcond.curate", "run_pipeline"),
    ("metrics.frame_cosine_sim", "flowcond.metrics", "frame_cosine_sim"),
    ("cli.main", "flowcond.cli", "main"),
    ("cli.sample", "flowcond.cli", "cmd_sample"),
    ("cli.curate", "flowcond.cli", "cmd_curate"),
)

# Spans that enclose many operations; their self time is loop glue and
# they do not count as covering an operation's wall time.
CONTAINERS = frozenset({"training.train_loop"})


def model_flops(cfg, batch: int, frames: int) -> tuple[float, float]:
    """GEMM FLOPs of one forward and one backward pass, computed from shapes.

    Counts 2*m*k*n per matrix product: the input projection, per block
    the q/k/v/o projections, the two attention products and the two FFN
    layers, and the output head.  The backward pass forms both the input
    and the weight gradient of every product, so it costs twice the
    forward count.
    """
    bt = batch * frames
    d, f = cfg.d_model, cfg.d_ffn
    linear = cfg.input_dim * d + cfg.n_layers * (4 * d * d + 2 * d * f) + d * cfg.feature_dim
    attention = cfg.n_layers * 2 * batch * frames * frames * d
    fwd = 2.0 * (bt * linear + attention)
    return fwd, 2.0 * fwd


def fmat_bytes(rows: int, cols: int) -> int:
    """Size of an FMAT file: 20 header bytes plus a float32 payload."""
    return 20 + 4 * rows * cols


def checkpoint_bytes(cfg, params) -> int:
    """Size of an FMCK file from its config block and tensor shapes."""
    size = 4 + 4 + 4 + len(json.dumps(asdict(cfg), sort_keys=True).encode()) + 4
    for name, arr in params.items():
        size += 4 + len(name.encode()) + 4 + 4 * arr.ndim + 4 * arr.size
    return size


def _shape_of(value) -> tuple[int, ...]:
    return np.shape(getattr(value, "values", value))


def _measure_forward(args, kwargs, out):
    b, _, t = args[1].x_t.shape
    return {"flop": model_flops(args[0].config, b, t)[0]}


def _measure_backward(args, kwargs, out):
    b, _, t = args[1].shape
    return {"flop": model_flops(args[0].config, b, t)[1]}


def _measure_store(args, kwargs, out):
    return {"bytes": fmat_bytes(*_shape_of(args[0]))}


def _measure_load(args, kwargs, out):
    return {"bytes": fmat_bytes(*_shape_of(out))}


def _measure_save_checkpoint(args, kwargs, out):
    return {"bytes": checkpoint_bytes(args[1], args[2])}


def _measure_load_checkpoint(args, kwargs, out):
    return {"bytes": checkpoint_bytes(*out)}


def _measure_pipeline(args, kwargs, out):
    return {"retained": out.retained, "total": out.total}


MEASURES: dict[str, Callable] = {
    "seqmodel.forward_batch": _measure_forward,
    "seqmodel.backward_batch": _measure_backward,
    "features.store_feature_matrix": _measure_store,
    "features.load_feature_matrix": _measure_load,
    "seqmodel.save_checkpoint": _measure_save_checkpoint,
    "seqmodel.load_checkpoint": _measure_load_checkpoint,
    "curate.run_pipeline": _measure_pipeline,
}


@dataclass
class Spans:
    """Flat span table as numpy arrays; index i is span i."""

    names: list[str]
    name: np.ndarray  # int index into names
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray  # -1 for a root span
    request: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        """Duration minus the time covered by direct children."""
        dur = self.duration
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        return dur - covered

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=self.name, start=self.start,
            end=self.end, parent=self.parent, request=self.request,
        )


class Tracer:
    """Records spans from installed wrappers; costs nothing until installed."""

    def __init__(self) -> None:
        self.request = 0
        self.active = True
        self.absent: list[str] = []
        self.counters: dict[tuple[str, str], float] = {}
        self._names: list[str] = []
        self._name = array("q")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._request = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._request.append(self.request)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = perf_counter()
        self._stack.pop()

    def _count(self, name: str, values: dict) -> None:
        for key, value in values.items():
            self.counters[name, key] = self.counters.get((name, key), 0.0) + value

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A wrapper that records one span per call (per item for generators)."""
        name_id = len(self._names)
        self._names.append(name)
        measure = MEASURES.get(name)

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while self.active:
                    idx = self._open(name_id)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    self._count(name, {"items": 1})
                    yield item
                yield from it

            return gen_wrapper

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if measure is not None:
                self._count(name, measure(args, kwargs, out))
            return out

        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Run library calls without recording them (the gates' own calls)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- installation ------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; list the rest as absent."""
        importlib.import_module("flowcond")
        modules = [m for key, m in sorted(sys.modules.items()) if key.split(".")[0] == "flowcond"]
        for name, module_name, attr_path in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            owner_path, _, attr = attr_path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(attr)
            if raw is None:
                self.absent.append(name)
                continue
            if inspect.isclass(owner):
                if isinstance(raw, (classmethod, staticmethod)):
                    patched = type(raw)(self.wrap(name, raw.__func__))
                else:
                    patched = self.wrap(name, raw)
                self._patch(owner, attr, patched)
                continue
            wrapper = self.wrap(name, raw)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def spans(self) -> Spans:
        return Spans(
            names=list(self._names),
            name=np.frombuffer(self._name, dtype=np.int64).copy(),
            start=np.frombuffer(self._start, dtype=np.float64).copy(),
            end=np.frombuffer(self._end, dtype=np.float64).copy(),
            parent=np.frombuffer(self._parent, dtype=np.int64).copy(),
            request=np.frombuffer(self._request, dtype=np.int64).copy(),
        )

