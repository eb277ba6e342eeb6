"""The four flowcond workloads, their output gates and their metrics.

``run.py`` starts this file in a fresh child process with one BLAS
thread.  Every workload is a closed loop with one client: the next
operation starts when the previous one returns.  Inputs come from
``--seed`` alone, and the library is called only through its public
entry points.

With ``--trace 0`` the run measures the end-to-end metrics.  With
``--trace 1`` it first runs an untraced segment, then installs the span
wrappers from ``tracer.py`` and runs a traced segment; the per-layer
table comes from the traced segment, and the difference between the two
segments' ``op_cost.p50`` is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import fcntl
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import layers
import tracer as tracing
from layers import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHECKPOINT = HERE / "data" / "sample_model.fmck"
OUT_DIR = HERE / "out"

SETUP_REPEATS = 7
# setup_s is given in seconds of a core on which the reference probe
# takes this long; see ReferenceProbe.
PROBE_REFERENCE_S = 1e-3
# Share of --seconds the traced run spends untraced, for the overhead figure.
UNTRACED_SHARE = 0.4


def import_flowcond() -> dict:
    """Import flowcond from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import flowcond

    if Path(flowcond.__file__).resolve().parent != SRC / "flowcond":
        raise ImportError(f"flowcond imported from {flowcond.__file__}, not {SRC}")
    from flowcond import cli, features, metrics, seqmodel, training

    return {"cli": cli, "features": features, "metrics": metrics,
            "seqmodel": seqmodel, "training": training}


# -- independent readers used by the gates --------------------------------------


def read_fmat(path: Path) -> np.ndarray:
    """Decode an FMAT file without the library: 20-byte header, f32 payload."""
    blob = Path(path).read_bytes()
    rows, cols = (int(v) for v in np.frombuffer(blob[8:16], dtype="<u4"))
    if blob[:4] != b"FMAT" or len(blob) != 20 + 4 * rows * cols:
        raise ValueError(f"{path} is not a well-formed FMAT file")
    return np.frombuffer(blob[20:], dtype="<f4").reshape(rows, cols)


def read_tokens(path: Path) -> np.ndarray:
    return np.array(Path(path).read_text().split(), dtype=np.int64)


def resample(row: np.ndarray, length: int) -> np.ndarray:
    """Endpoint-preserving linear resampling of one stream row."""
    return np.interp(np.linspace(0.0, len(row) - 1.0, length), np.arange(len(row)), row)


# -- gates -------------------------------------------------------------------------

LOSS_WINDOW = 0.1  # share of the steps in each of the early and late windows
LOSS_DROP = 0.5  # the late-window mean loss must be below this share of the early one
MIN_AROUSAL_R = 0.8  # Pearson r of generated column norm against 1 + arousal
NFE = 32


def train_failures(losses, checkpoint_ok: bool) -> int:
    """Failed steps of one training job.

    Every step fails when the checkpoint does not round-trip or the
    late-window mean loss is not below LOSS_DROP times the early-window
    mean (a NaN in either window fails that test); otherwise each step
    with a non-finite loss fails.
    """
    losses = np.asarray(losses, dtype=np.float64)
    window = max(1, int(len(losses) * LOSS_WINDOW))
    learned = losses[-window:].mean() < LOSS_DROP * losses[:window].mean()
    if not (checkpoint_ok and learned):
        return len(losses)
    return int(np.count_nonzero(~np.isfinite(losses)))


def expected_field_evals(guidance: float, nfe: int = NFE) -> int:
    """Euler spends one field evaluation per step, two under guidance."""
    return nfe * (2 if guidance > 0 else 1)


def sample_output_ok(rc: int, out: Path, guidance: float, feature_dim: int, frames: int):
    """Gate one sample request; returns the generated matrix or None."""
    if rc != 0:
        return None
    try:
        values = read_fmat(out)
        sidecar = json.loads(Path(f"{out}.json").read_text())
    except (OSError, ValueError):
        return None
    if values.shape != (feature_dim, frames) or not np.isfinite(values).all():
        return None
    if sidecar.get("guidance") != guidance or sidecar.get("nfe") != NFE:
        return None
    return values


def curation_oracle(records) -> dict[str, int]:
    """Recount the three gates from manifest fields; the first failure wins."""
    keep_any = {"angry", "disgusted", "fearful", "sad", "surprised"}
    strict = {"neutral", "happy"}
    counts = {"emotion_gate": 0, "quality_gate": 0, "speaker_gate": 0, "retained": 0}
    for r in records:
        if not (r.emotion_label in keep_any
                or (r.emotion_label in strict and r.emotion_confidence >= 1.0)):
            counts["emotion_gate"] += 1
        elif not r.ovlr > 3.0:
            counts["quality_gate"] += 1
        elif r.speaker_change:
            counts["speaker_gate"] += 1
        else:
            counts["retained"] += 1
    return counts


def curation_ok(report: dict, out_lines: int, expected: dict[str, int]) -> bool:
    return {k: report.get(k) for k in expected} == expected and out_lines == expected["retained"]


# -- workloads ------------------------------------------------------------------------


@dataclass
class Segment:
    """What one closed-loop segment measured."""

    op_s: list[float] = field(default_factory=list)  # wall time of each measured operation
    probe_s: list[float] = field(default_factory=list)  # reference probe time around each
    ops: int = 0  # operations run, including any not in op_s
    busy_s: float = 0.0  # time inside operations, without probes and gates
    items: float = 0.0  # frames or records handled
    attempted: int = 0
    failed: int = 0
    parts: dict[str, list[float]] = field(default_factory=dict)
    outputs: list = field(default_factory=list)  # for identity checks

    def add(self, part: str, value: float) -> None:
        self.parts.setdefault(part, []).append(value)

    def cost(self) -> np.ndarray:
        """Each operation's time in units of the probe time measured around it."""
        return np.asarray(self.op_s) / np.asarray(self.probe_s)


class ReferenceProbe:
    """A fixed computation timed between operations.

    On a shared host the core's speed switches between levels within
    seconds, and the share of time at each level differs from run to
    run.  An operation's time divided by the probe time measured around
    it cancels most of that.  The probe mixes a small GEMM with small
    numpy calls from Python, as flowcond does, and never calls flowcond,
    so no change to the library moves it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((128, 64))
        self.b = rng.standard_normal((64, 64))
        self.rows = [rng.standard_normal(48) for _ in range(8)]

    def __call__(self) -> float:
        start = perf_counter()
        for _ in range(4):
            self.a @ self.b
        for row in self.rows:
            for _ in range(10):
                np.isin(row[:8], (0.0, 1.0)).all()
                row.sum()
        return perf_counter() - start


class Workload:
    """Shared driver; subclasses define set-up, warm-up and one segment.

    ``prepare`` writes the input files once and is not timed: file
    creation on a shared disk varies far more than the code under test.
    ``setup`` loads those inputs (``data`` builds its curation manifest
    there instead), and is what ``setup_s`` times.
    """

    name = ""
    tail = 90  # the percentile reported as op_ms.tail and op_cost.tail

    def __init__(self, fc: dict, work: Path, seed: int, tracer=None):
        self.fc = fc
        self.work = work
        self.seed = seed
        self.tracer = tracer
        self.probe = ReferenceProbe()

    def mark(self, request: int) -> None:
        """Tag the spans that follow with a request id."""
        if self.tracer is not None:
            self.tracer.request = request

    def untraced(self):
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()

    @staticmethod
    def more(done: int, ops: int | None, deadline: float) -> bool:
        """Run exactly ``ops`` operations, or at least two until the deadline."""
        if ops is not None:
            return done < ops
        return done < 2 or perf_counter() < deadline

    def prepare(self) -> None:
        """Write the input files (untimed)."""

    def setup(self) -> None:
        raise NotImplementedError

    def warm(self) -> None:
        raise NotImplementedError

    def segment(self, seconds: float | None = None, ops: int | None = None) -> Segment:
        raise NotImplementedError

    def split_metrics(self, seg: Segment) -> dict[str, float]:
        return {}

    def request_failures(self, spans: tracing.Spans) -> int:
        """Failures only a trace can see (the sample field-eval count)."""
        return 0


class TrainWorkload(Workload):
    """Desk-preset training jobs through ``training.train_loop``, one after another.

    Each job trains a fresh model for ``job_steps`` steps and writes its
    checkpoint; the operation is one optimizer step, timed by the
    ``on_step`` hook.
    """

    name = "train"
    tail = 98
    corpus = {"kind": "mixed", "count": 200, "frames": 48, "feature_dim": 8, "n_phonemes": 16}
    batch_frames = 576
    job_steps = 100
    warm_steps = 10

    def model_config(self):
        return self.fc["seqmodel"].PRESETS["desk"]

    def prepare(self) -> None:
        c = self.corpus
        self.manifest = self.fc["features"].generate_corpus(
            self.work / "corpus", c["kind"], c["count"], c["frames"], self.seed,
            feature_dim=c["feature_dim"], n_phonemes=c["n_phonemes"],
        )

    def setup(self) -> None:
        self.examples = self.fc["training"].load_corpus(self.manifest)

    def warm(self) -> None:
        self.segment(ops=self.warm_steps, gate=False)

    def segment(self, seconds=None, ops=None, gate: bool = True) -> Segment:
        """Jobs until ``seconds`` have passed, or one job of ``ops`` steps."""
        seg = Segment()
        start = perf_counter()
        while True:
            self.job(seg, ops or self.job_steps, self.seed + seg.ops, gate)
            if ops is not None or perf_counter() - start >= seconds:
                break
        return seg

    def job(self, seg: Segment, steps: int, seed: int, gate: bool) -> None:
        training, seqmodel = self.fc["training"], self.fc["seqmodel"]
        cfg = self.model_config()
        settings = training.TrainSettings(
            steps=steps, batch_frames=self.batch_frames, peak_lr=2e-3,
            warmup_steps=min(20, steps // 4), seed=seed,
        )
        checkpoint = self.work / "train.fmck"
        first = seg.ops
        step_s: list[float] = []
        probe_s: list[float] = []
        last = perf_counter()

        def on_step(step, loss, lr):
            nonlocal last
            step_s.append(perf_counter() - last)
            probe_s.append(self.probe())
            self.mark(first + step + 1)
            last = perf_counter()

        self.mark(first + 1)
        start = perf_counter()
        try:
            params, history, _ = training.train_loop(
                cfg, [self.examples], [1.0], settings,
                checkpoint_path=checkpoint, on_step=on_step,
            )
        except seqmodel.TrainingDivergedError:
            params, history = None, []
        seg.busy_s += perf_counter() - start - sum(probe_s)
        # Step k runs between the probes after steps k-1 and k.  Step 1 is
        # left out: it also pays for parameter init and a checkpoint write.
        seg.op_s.extend(step_s[1:])
        seg.probe_s.extend((a + b) / 2 for a, b in zip(probe_s, probe_s[1:]))
        seg.ops += steps
        seg.attempted += steps
        seg.items += steps * (self.batch_frames // self.corpus["frames"]) * self.corpus["frames"]
        losses = [loss for _, loss, _ in history]
        seg.outputs.extend(losses)
        if gate:
            with self.untraced():
                ok = params is not None and self.round_trips(checkpoint, cfg, params)
            seg.failed += train_failures(losses, ok) if params is not None else steps

    def round_trips(self, path: Path, cfg, params) -> bool:
        got_cfg, got = self.fc["seqmodel"].load_checkpoint(path)
        return got_cfg == cfg and got.keys() == params.keys() and all(
            np.array_equal(got[k], params[k].astype(np.float32)) for k in params
        )

    def split_metrics(self, seg: Segment) -> dict[str, float]:
        ms = np.asarray(seg.op_s) * 1e3
        return {
            "step_ms.p50": float(np.median(ms)),
            "step_ms.tail": percentile(ms, self.tail),
            "frames_per_s": seg.items / seg.busy_s,
        }


class ToyWorkload(TrainWorkload):
    """The Gaussian-recovery shape: feature_dim 2, T=1, 128 examples a step."""

    name = "toy"
    corpus = {"kind": "mixed", "count": 200, "frames": 1, "feature_dim": 2, "n_phonemes": 4}
    batch_frames = 128
    job_steps = 200
    warm_steps = 20

    def model_config(self):
        return self.fc["seqmodel"].ModelConfig(
            n_layers=2, n_heads=2, d_model=64, d_ffn=128, d_phn=4,
            n_phonemes=4, feature_dim=2,
        )


class SampleWorkload(Workload):
    """``flowcond sample`` requests through ``cli.main``, guided then unguided."""

    name = "sample"
    tail = 85
    prompts = 64
    ref_frames, text_frames, emo_frames = 32, 64, 48
    guidances = (1.0, 0.0)

    def prepare(self) -> None:
        features = self.fc["features"]
        root = self.work / "prompts"
        refs = features.generate_corpus(root / "ref", "mixed", self.prompts, self.ref_frames, self.seed)
        emos = features.generate_corpus(root / "emo", "mixed", self.prompts, self.emo_frames, self.seed + 1)
        rng = np.random.default_rng(self.seed)
        self.requests = []
        ref_records = [rec for _, rec in features.read_manifest(refs)]
        emo_records = [rec for _, rec in features.read_manifest(emos)]
        for j, (ref, emo) in enumerate(zip(ref_records, emo_records)):
            text = root / f"text{j:03d}.phn"
            features.store_phonemes(features.synth_phonemes(self.text_frames, rng), text)
            paths = {
                "--text-phonemes": text,
                "--spk-features": refs.parent / ref.features_path,
                "--spk-phonemes": refs.parent / ref.phonemes_path,
                "--spk-nv": refs.parent / ref.nv_path,
                "--spk-emo": refs.parent / ref.emo_path,
                "--emo-prompt": emos.parent / emo.emo_path,
            }
            arousal = read_fmat(paths["--emo-prompt"])[0].astype(np.float64)
            self.requests.append((paths, 1.0 + resample(arousal, self.text_frames)))

    def setup(self) -> None:
        """Load the checkpoint and every prompt stream, checking their shapes."""
        features = self.fc["features"]
        cfg, _ = self.fc["seqmodel"].load_checkpoint(CHECKPOINT)
        self.feature_dim = cfg.feature_dim
        want = {"--spk-features": (cfg.feature_dim, self.ref_frames), "--spk-nv": (32, self.ref_frames),
                "--spk-emo": (2, self.ref_frames), "--emo-prompt": (2, self.emo_frames)}
        for paths, _ in self.requests:
            shapes = {flag: features.load_feature_matrix(paths[flag]).values.shape for flag in want}
            tokens = [len(features.load_phonemes(paths[f])) for f in ("--spk-phonemes", "--text-phonemes")]
            if shapes != want or tokens != [self.ref_frames, self.text_frames]:
                raise ValueError(f"prompt files have unexpected shapes: {shapes}, {tokens}")

    def warm(self) -> None:
        self.segment(ops=1, gate=False)

    def request(self, index: int, guidance: float, out: Path) -> int:
        paths, _ = self.requests[index % len(self.requests)]
        argv = ["sample", "--checkpoint", str(CHECKPOINT), "--zero-nv", "--nfe", str(NFE),
                "--guidance", str(guidance), "--seed", str(self.seed + index), "--out", str(out)]
        for flag, path in paths.items():
            argv += [flag, str(path)]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.fc["cli"].main(argv)

    def segment(self, seconds=None, ops=None, gate: bool = True) -> Segment:
        seg = Segment()
        self.issued: list[tuple[int, float]] = []  # (request id, guidance)
        self.norms, self.targets = [], []
        out_dir = self.work / "gen"
        out_dir.mkdir(exist_ok=True)
        deadline = perf_counter() + (seconds or 0.0)
        pair = 0
        before = self.probe()
        while self.more(pair, ops, deadline):
            pair_s = 0.0
            for guidance in self.guidances:
                request_id = len(self.issued)
                out = out_dir / f"{request_id % 4}.fmat"
                self.mark(request_id)
                t0 = perf_counter()
                rc = self.request(pair, guidance, out)
                took = perf_counter() - t0
                pair_s += took
                seg.add("guided" if guidance > 0 else "unguided", took)
                self.issued.append((request_id, guidance))
                seg.attempted += 1
                values = sample_output_ok(rc, out, guidance, self.feature_dim, self.text_frames)
                if values is None:
                    seg.failed += 1
                    continue
                seg.outputs.append(out.read_bytes())
                seg.items += values.shape[1]
                self.norms.append(np.linalg.norm(values.astype(np.float64), axis=0))
                self.targets.append(self.requests[pair % len(self.requests)][1])
            after = self.probe()
            seg.op_s.append(pair_s)
            seg.probe_s.append((before + after) / 2)
            before = after
            seg.busy_s += pair_s
            pair += 1
        seg.ops = pair
        if gate and not self.arousal_r() > MIN_AROUSAL_R:
            seg.failed = seg.attempted
        return seg

    def arousal_r(self) -> float:
        if not self.norms:
            return float("nan")
        return float(np.corrcoef(np.concatenate(self.norms), np.concatenate(self.targets))[0, 1])

    def request_failures(self, spans: tracing.Spans) -> int:
        if "seqmodel.forward_batch" not in spans.names:
            return 0
        fwd = spans.names.index("seqmodel.forward_batch")
        counts = np.bincount(spans.request[spans.name == fwd], minlength=len(self.issued))
        return int(sum(counts[i] != expected_field_evals(g) for i, g in self.issued))

    def split_metrics(self, seg: Segment) -> dict[str, float]:
        out = {}
        for kind in ("guided", "unguided"):
            ms = np.asarray(seg.parts.get(kind, [])) * 1e3
            out[f"{kind}_ms.p50"] = float(np.median(ms)) if len(ms) else 0.0
            out[f"{kind}_ms.tail"] = percentile(ms, self.tail)
        out["gen_frames_per_s"] = seg.items / seg.busy_s
        out["arousal_r"] = self.arousal_r()
        return out


class DataWorkload(Workload):
    """Write a corpus, read it back, curate a large manifest, score pairs."""

    name = "data"
    tail = 92
    corpus_records, frames = 32, 48
    manifest_records = 8000

    def setup(self) -> None:
        features = self.fc["features"]
        rng = np.random.default_rng(self.seed)
        labels = ["angry", "disgusted", "fearful", "sad", "surprised", "neutral", "happy"]
        records = [
            features.DatasetRecord(
                id=f"r{i:05d}", features_path=f"r{i}.fmat", phonemes_path=f"r{i}.phn",
                nv_path=f"r{i}.nv.fmat", emo_path=f"r{i}.emo.fmat", duration_s=1.0,
                emotion_label=labels[int(rng.integers(len(labels)))],
                emotion_confidence=float(rng.choice([0.0, 0.3, 0.7, 0.999, 1.0])),
                ovlr=float(rng.choice([1.0, 2.9, 3.0, 3.0001, 4.2, 5.0])),
                speaker_change=bool(rng.uniform() < 0.2),
            )
            for i in range(self.manifest_records)
        ]
        self.manifest = self.work / "manifest.jsonl"
        features.write_manifest(records, self.manifest)
        self.expected = curation_oracle(records)

    def warm(self) -> None:
        self.segment(ops=1, gate=False)

    def segment(self, seconds=None, ops=None, gate: bool = True) -> Segment:
        features, training = self.fc["features"], self.fc["training"]
        metrics, cli = self.fc["metrics"], self.fc["cli"]
        seg = Segment()
        deadline = perf_counter() + (seconds or 0.0)
        n = self.corpus_records
        before = self.probe()
        while self.more(seg.ops, ops, deadline):
            r = seg.ops
            root = self.work / f"round{r % 2}"
            self.mark(r)
            os.sync()  # the last round's writes must not land in this one
            t0 = perf_counter()
            manifest = features.generate_corpus(root, "mixed", n, self.frames, self.seed * 100_003 + r)
            t1 = perf_counter()
            corpus = training.load_corpus(manifest)
            t2 = perf_counter()
            argv = ["curate", "--in", str(self.manifest), "--out", str(root / "curated.jsonl"),
                    "--report", str(root / "report.json")]
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            t3 = perf_counter()
            sims = [metrics.frame_cosine_sim(corpus[k].features, corpus[k + 1].features)
                    for k in range(n - 1)]
            t4 = perf_counter()
            after = self.probe()
            seg.probe_s.append((before + after) / 2)
            before = after
            seg.attempted += 1
            seg.ops += 1
            seg.busy_s += t4 - t0
            seg.op_s.append(t4 - t0)
            seg.add("write", t1 - t0)
            seg.add("read", t2 - t1)
            seg.add("curate", t3 - t2)
            seg.items += 2 * n + self.manifest_records
            if gate and not self.round_ok(root, corpus, rc, sims):
                seg.failed += 1
        return seg

    def round_ok(self, root: Path, corpus, rc: int, sims) -> bool:
        """Read-back is bit-equal to the files, curation matches the oracle,
        and the similarity scores match an independent computation."""
        records = [json.loads(line) for line in (root / "manifest.jsonl").read_text().splitlines()]
        if len(records) != len(corpus):
            return False
        for rec, ex in zip(records, corpus):
            for key, got in (("features_path", ex.features), ("nv_path", ex.nv), ("emo_path", ex.emo)):
                raw = read_fmat(root / rec[key])
                if not (np.isfinite(raw).all() and np.array_equal(raw.astype(np.float64), got)):
                    return False
            if not np.array_equal(read_tokens(root / rec["phonemes_path"]), ex.phonemes):
                return False
        if rc != 0:
            return False
        report = json.loads((root / "report.json").read_text())
        out_lines = len((root / "curated.jsonl").read_text().splitlines())
        if not curation_ok(report, out_lines, self.expected):
            return False
        for k, got in enumerate(sims):
            a, b = corpus[k].features, corpus[k + 1].features
            want = np.mean(np.sum(a * b, axis=0) / (np.linalg.norm(a, axis=0) * np.linalg.norm(b, axis=0)))
            if not abs(got - want) <= 1e-9:
                return False
        return True

    def split_metrics(self, seg: Segment) -> dict[str, float]:
        rounds = seg.ops

        def rate(part, records):
            total = sum(seg.parts.get(part, []))
            return rounds * records / total if total else 0.0

        return {
            "write_records_per_s": rate("write", self.corpus_records),
            "read_records_per_s": rate("read", self.corpus_records),
            "curate_records_per_s": rate("curate", self.manifest_records),
        }


WORKLOADS = {w.name: w for w in (TrainWorkload, ToyWorkload, SampleWorkload, DataWorkload)}


# -- environment ------------------------------------------------------------------


def blas_threads() -> dict[str, int]:
    """Thread count in effect, read back from every loaded OpenBLAS."""
    found = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[Path(path).name] = int(fn())
                break
    return found


def environment(workload: str, seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "flowcond").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# -- metrics ------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def op_metrics(wl: Workload, seg: Segment) -> dict[str, float]:
    ms = np.asarray(seg.op_s) * 1e3
    cost = seg.cost()
    return {
        "op_cost.p50": percentile(cost, 50),
        "op_cost.tail": percentile(cost, wl.tail),
        "op_ms.p50": percentile(ms, 50),
        "op_ms.p90": percentile(ms, 90),
        "op_ms.tail": percentile(ms, wl.tail),
        "probe_ms.p50": percentile(np.asarray(seg.probe_s) * 1e3, 50),
        "items_per_s": seg.items / seg.busy_s if seg.busy_s else 0.0,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    fc = import_flowcond()
    tracer = tracing.Tracer() if trace else None
    wl = WORKLOADS[workload](fc, work, seed, tracer)
    wl.prepare()
    os.sync()  # the prepared files' writes must not land in the timed set-up
    setup = Segment()
    for _ in range(1 if trace else SETUP_REPEATS):
        before = wl.probe()
        t0 = perf_counter()
        wl.setup()
        setup.op_s.append(perf_counter() - t0)
        setup.probe_s.append((before + wl.probe()) / 2)
    wl.warm()
    result = {"env": environment(workload, seed), "setup_runs_s": setup.op_s, "tail_percentile": wl.tail}
    setup_figures = {
        "setup_s": float(np.median(setup.cost())) * PROBE_REFERENCE_S,
        "setup_wall_s": float(np.median(setup.op_s)),
    }
    if not trace:
        seg = wl.segment(seconds=seconds)
        ops = op_metrics(wl, seg)
        result["metrics"] = {
            "setup_s": setup_figures["setup_s"],
            "peak_rss_mb": peak_rss_mb(),
            "op_cost.p50": ops["op_cost.p50"],
        }
        result["untraced"] = {**ops, "setup_wall_s": setup_figures["setup_wall_s"], **wl.split_metrics(seg)}
        result["op_s"], result["probe_s"] = list(map(float, seg.op_s)), list(map(float, seg.probe_s))
        result["ops"] = len(seg.op_s)
        result["attempted"], result["failed"] = seg.attempted, seg.failed
        return result

    plain = wl.segment(seconds=seconds * UNTRACED_SHARE)
    tracer.install()
    try:
        traced = wl.segment(seconds=seconds * (1.0 - UNTRACED_SHARE))
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    traced.failed += wl.request_failures(spans)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    OUT_DIR.mkdir(exist_ok=True)
    spans.save(OUT_DIR / f"spans-{workload}-seed{seed}.npz")
    untraced = {**op_metrics(wl, plain), **setup_figures, **wl.split_metrics(plain)}
    table = layers.per_layer(spans, tracer, traced, plain, untraced)
    table["error_rate"] = failed / attempted if attempted else 0.0
    result["metrics"] = table
    result["absent"] = tracer.absent
    result["ops"] = len(traced.op_s)
    result["attempted"], result["failed"] = attempted, failed
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # The work directory outlives the run: set-up then overwrites the same
    # files each time instead of creating and deleting thousands of them,
    # which costs more and varies more.  The lock keeps two runs of one
    # workload from sharing it.
    work = HERE / ".work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    with open(work / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    layers.print_report(result, sys.stdout)
    print(json.dumps({"result": result}, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
