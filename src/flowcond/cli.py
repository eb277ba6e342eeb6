"""Operator surface: synth, train, sample, curate, eval subcommands.

Every artifact-producing command writes a machine-readable provenance
record (flags, seed, package version) next to its output, and a fixed
seed in single-thread mode reproduces output bytes exactly.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .curate import OVLR_MIN, run_pipeline
from .features import (
    FeatureMatrix,
    FormatError,
    generate_corpus,
    load_feature_matrix,
    load_phonemes,
    store_feature_matrix,
    SYNTH_KINDS,
)
from .infill import NV_DIM, EMO_DIM
from .metrics import aggregate_seeds, aro_val_sim, frame_cosine_sim
from .sampler import GuidanceConfig, assemble_prompt, integrate_batch
from .seqmodel import (
    FIELD_DTYPE,
    PRESETS,
    TrainingDivergedError,
    VectorFieldModel,
    load_checkpoint,
    make_field_fn,
)
from .training import TrainSettings, check_corpora, load_corpus, train_loop


class CliError(Exception):
    """User-facing command error; printed without a traceback."""


def _write_provenance(path: Path, command: str, args: dict) -> None:
    record = {
        "command": command,
        "args": {k: v for k, v in sorted(args.items())},
        "package_version": __version__,
    }
    path.write_text(json.dumps(record, sort_keys=True) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_output_file(path: Path) -> None:
    """Reject an output path that cannot be written as a file, before any work."""
    if not path.parent.is_dir():
        raise CliError(f"output directory {path.parent} does not exist")
    if path.is_dir():
        raise CliError(f"output path {path} is a directory")


def _check_vocab(tokens: np.ndarray, path: str, n_phonemes: int) -> None:
    bad = tokens[(tokens < 0) | (tokens >= n_phonemes)]
    if bad.size:
        raise CliError(
            f"phoneme id {bad[0]} in {path} is outside the model vocabulary "
            f"(ids 0..{n_phonemes - 1})"
        )


# -- synth ---------------------------------------------------------------------


def cmd_synth(args) -> int:
    out = Path(args.out)
    if out.exists() and any(out.iterdir()):
        raise CliError(f"output directory {out} is not empty")
    generate_corpus(
        out,
        args.kind,
        args.count,
        args.frames,
        args.seed,
        feature_dim=args.feature_dim,
    )
    _write_provenance(
        out / "provenance.json",
        "synth",
        {
            "kind": args.kind,
            "count": args.count,
            "frames": args.frames,
            "seed": args.seed,
            "feature_dim": args.feature_dim,
        },
    )
    print(f"wrote {args.count} examples to {out}")
    return 0


# -- train ---------------------------------------------------------------------

# Config-file key -> parser: every TrainSettings field (its annotation is a
# string), plus the comma-separated manifests and ratios.
_CONFIG_KEYS = {
    **{f.name: {"int": int, "float": float}[f.type] for f in fields(TrainSettings)},
    "manifests": str,
    "ratios": str,
}


def parse_config_file(path: str | Path) -> dict:
    """Plain key = value lines; '#' starts a comment."""
    out: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = _CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return out


def cmd_train(args) -> int:
    cfg_file = parse_config_file(args.config) if args.config else {}

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value  # flag wins over config file
        return cfg_file.get(key, default)

    manifests = list(args.manifest or [])
    if not manifests and "manifests" in cfg_file:
        manifests = [m.strip() for m in cfg_file["manifests"].split(",") if m.strip()]
    if not manifests:
        raise CliError("no training manifests given (--manifest or config 'manifests')")

    ratios_raw = pick(args.ratios, "ratios", None)
    if ratios_raw is None:
        ratios = [1.0 / len(manifests)] * len(manifests)
    else:
        ratios = [float(r) for r in str(ratios_raw).split(",")]

    # Only the values the config file or a flag sets: TrainSettings holds
    # the defaults.
    names = [f.name for f in fields(TrainSettings)]
    values = {k: pick(getattr(args, k), k, None) for k in names}
    settings = TrainSettings(**{k: v for k, v in values.items() if v is not None})

    # Every corpus must stack into one batch shape and fit the model's
    # vocabulary; check both before anything is written.
    desk = PRESETS["desk"]
    corpora = [load_corpus(m) for m in manifests]
    feature_dim, _ = check_corpora(corpora, ratios)
    for manifest, corpus in zip(manifests, corpora):
        for i, ex in enumerate(corpus, start=1):
            _check_vocab(ex.phonemes, f"{manifest} record {i}", desk.n_phonemes)
    model_cfg = replace(desk, feature_dim=feature_dim)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    checkpoint = out / "checkpoint.fmck"
    log_path = out / "loss_log.txt"

    with open(log_path, "w") as log:
        def on_step(step, loss, lr):
            log.write(f"{step} {loss:.10e} {lr:.10e}\n")

        try:
            _, history, _ = train_loop(
                model_cfg,
                corpora,
                ratios,
                settings,
                checkpoint_path=checkpoint,
                on_step=on_step,
            )
        except TrainingDivergedError as exc:
            log.flush()
            raise CliError(
                f"{exc}; last good checkpoint retained at {checkpoint}"
            ) from exc

    _write_provenance(
        out / "provenance.json",
        "train",
        {"manifests": manifests, "ratios": ratios, **asdict(settings)},
    )
    final_loss = history[-1][1] if history else float("nan")
    print(f"trained {settings.steps} steps; final loss {final_loss:.6f}; checkpoint {checkpoint}")
    return 0


# -- sample --------------------------------------------------------------------


def _stream(flag: str, path: str, rows: int, frames: int | None = None) -> np.ndarray:
    """One FMAT prompt stream as float64, checked to have ``rows`` rows.

    A speaker stream also passes ``frames``, the length of its phonemes.
    """
    values = load_feature_matrix(path).values
    if values.shape[0] != rows:
        raise CliError(f"{flag} {path} has {values.shape[0]} rows, expected {rows}")
    if frames is not None and values.shape[1] != frames:
        raise CliError(f"{flag} {path} has {values.shape[1]} frames, --spk-phonemes has {frames}")
    return values.astype(np.float64)


def _tokens(path: str, n_phonemes: int) -> np.ndarray:
    tokens = load_phonemes(path)
    _check_vocab(tokens, path, n_phonemes)
    return tokens


def cmd_sample(args) -> int:
    out = Path(args.out)
    _check_output_file(out)
    ck_path = Path(args.checkpoint)
    model_cfg, params = load_checkpoint(ck_path)
    model = VectorFieldModel(model_cfg)

    text_tokens = _tokens(args.text_phonemes, model_cfg.n_phonemes)
    t_text = text_tokens.shape[0]
    if t_text < 1:
        raise CliError(f"text phoneme file {args.text_phonemes} is empty")

    spk_args = (args.spk_features, args.spk_phonemes, args.spk_nv, args.spk_emo)
    if any(spk_args) and not all(spk_args):
        raise CliError(
            "speaker prompt needs all of --spk-features --spk-phonemes --spk-nv --spk-emo"
        )
    f = model_cfg.feature_dim
    if all(spk_args):
        spk_tokens = _tokens(args.spk_phonemes, model_cfg.n_phonemes)
        t_spk = spk_tokens.shape[0]
        spk_feats = _stream("--spk-features", args.spk_features, f, t_spk)
        spk_nv = _stream("--spk-nv", args.spk_nv, NV_DIM, t_spk)
        spk_emo = _stream("--spk-emo", args.spk_emo, EMO_DIM, t_spk)
    else:
        spk_feats = np.zeros((f, 0))
        spk_tokens = np.zeros(0, dtype=np.int64)
        spk_nv = np.zeros((NV_DIM, 0))
        spk_emo = np.zeros((EMO_DIM, 0))

    if args.nv_prompt:
        nv_prompt = _stream("--nv-prompt", args.nv_prompt, NV_DIM)
    elif args.zero_nv:
        nv_prompt = np.zeros((NV_DIM, t_text))
    else:
        raise CliError(
            "no nonverbal stream: pass --nv-prompt <fmat>, or --zero-nv for a zero placeholder"
        )
    if args.emo_prompt:
        emo_prompt = _stream("--emo-prompt", args.emo_prompt, EMO_DIM)
    elif args.zero_emo:
        emo_prompt = np.zeros((EMO_DIM, t_text))
    else:
        raise CliError(
            "no emotion stream: pass --emo-prompt <fmat>, or --zero-emo for a zero placeholder"
        )

    prompt = assemble_prompt(
        spk_feats, spk_tokens, spk_nv, spk_emo, text_tokens, nv_prompt, emo_prompt
    )
    guidance = GuidanceConfig(strength=args.guidance, nfe=args.nfe, solver=args.solver)
    rng = np.random.default_rng(args.seed)
    try:
        # integrate_batch reports a non-finite state itself, in one error.
        with np.errstate(over="ignore", invalid="ignore"):
            generated = integrate_batch(make_field_fn(model, params), [prompt], guidance, rng)[0]
    except FloatingPointError as exc:
        raise CliError(f"sampling failed: {exc}") from exc

    store_feature_matrix(
        FeatureMatrix(generated.astype(np.float32), model_cfg.frames_per_second), out
    )
    sidecar = {
        "command": "sample",
        "checkpoint": str(ck_path),
        "checkpoint_sha256": _sha256(ck_path),
        "guidance": args.guidance,
        "nfe": args.nfe,
        "solver": args.solver,
        "seed": args.seed,
        "text_phonemes": str(args.text_phonemes),
        "spk_features": str(args.spk_features) if args.spk_features else None,
        "spk_phonemes": str(args.spk_phonemes) if args.spk_phonemes else None,
        "spk_nv": str(args.spk_nv) if args.spk_nv else None,
        "spk_emo": str(args.spk_emo) if args.spk_emo else None,
        "nv_prompt": str(args.nv_prompt) if args.nv_prompt else "zero",
        "emo_prompt": str(args.emo_prompt) if args.emo_prompt else "zero",
        "field_dtype": np.dtype(FIELD_DTYPE).name,
        "package_version": __version__,
    }
    Path(str(out) + ".json").write_text(json.dumps(sidecar, sort_keys=True) + "\n")
    print(f"wrote {generated.shape[1]} generated frames to {out}")
    return 0


# -- curate / eval ----------------------------------------------------------------


def cmd_curate(args) -> int:
    _check_output_file(Path(args.out))
    if args.report:
        _check_output_file(Path(args.report))
    report = run_pipeline(args.inp, args.out, args.ovlr_min)
    if args.report:
        payload = {
            **asdict(report),
            "command": "curate",
            "args": {"in": str(args.inp), "out": str(args.out), "ovlr_min": args.ovlr_min},
            "package_version": __version__,
        }
        Path(args.report).write_text(json.dumps(payload, sort_keys=True) + "\n")
    print(
        f"retained {report.retained}/{report.total} "
        f"(emotion {report.emotion_gate}, quality {report.quality_gate}, "
        f"speaker {report.speaker_gate})"
    )
    return 0


def _load_trajectory(path: str) -> np.ndarray:
    return load_feature_matrix(path).values.astype(np.float64)


def cmd_eval_pair(args) -> int:
    metric = globals()[args.metric]
    score = metric(_load_trajectory(args.a), _load_trajectory(args.b))
    print(f"{score:.6f}")
    return 0


def cmd_eval_report(args) -> int:
    _check_output_file(Path(args.out))
    seeds = [s.strip() for s in args.seeds.split(",") if s.strip()]
    if not seeds:
        raise CliError("--seeds must name at least one seed")
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise CliError(f"--seeds names {', '.join(repeated)} more than once")
    pairs = []
    with open(args.pairs) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CliError(f"{args.pairs}:{lineno}: bad pair record ({exc})") from exc
            except RecursionError:
                raise CliError(f"{args.pairs}:{lineno}: bad pair record (nested too deeply)") from None
            if not (isinstance(obj, dict) and all(isinstance(obj.get(k), str) for k in "ab")):
                raise CliError(
                    f"{args.pairs}:{lineno}: bad pair record "
                    "(expected an object with string fields a and b)"
                )
            pairs.append((obj["a"], obj["b"]))
    if not pairs:
        raise CliError(f"no pairs in {args.pairs}")

    scores_by_seed = {}
    for seed in seeds:
        scores = []
        for a_tpl, b_tpl in pairs:
            a = _load_trajectory(a_tpl.replace("{seed}", seed))
            b = _load_trajectory(b_tpl.replace("{seed}", seed))
            scores.append(frame_cosine_sim(a, b))
        scores_by_seed[seed] = scores
    report = aggregate_seeds(scores_by_seed)
    payload = {
        **asdict(report),
        "seeds": seeds,
        "pairs_file": str(args.pairs),
        "package_version": __version__,
    }
    Path(args.out).write_text(json.dumps(payload, sort_keys=True) + "\n")
    print(f"mean {report.mean:.6f} std {report.std:.6f} over {len(seeds)} seeds")
    return 0


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The ``flowcond`` parser.  Each subcommand's ``func`` default names its
    ``cmd_*`` function and each ``eval`` pair command's ``metric`` default
    names its metric; both are looked up in this module when a command runs."""
    parser = argparse.ArgumentParser(
        prog="flowcond",
        description="Conditional flow-matching engine for frame-sequence infilling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic oracle corpus")
    p.add_argument("--kind", choices=list(SYNTH_KINDS) + ["mixed"], default="mixed")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--frames", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--feature-dim", type=int, default=8)
    p.set_defaults(func="cmd_synth")

    p = sub.add_parser("train", help="train the vector-field model")
    p.add_argument("--config", help="key = value config file; flags override")
    p.add_argument("--manifest", action="append", help="training manifest (repeatable)")
    p.add_argument("--ratios", help="comma-separated mixing ratios, one per manifest")
    p.add_argument("--steps", type=int)
    p.add_argument("--batch-frames", type=int)
    p.add_argument("--peak-lr", type=float)
    p.add_argument("--warmup", dest="warmup_steps", type=int)
    p.add_argument("--sigma-min", type=float)
    p.add_argument("--p-drop", type=float)
    p.add_argument("--checkpoint-every", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func="cmd_train")

    p = sub.add_parser("sample", help="generate frames from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--text-phonemes", required=True)
    p.add_argument("--spk-features")
    p.add_argument("--spk-phonemes")
    p.add_argument("--spk-nv")
    p.add_argument("--spk-emo")
    p.add_argument("--nv-prompt")
    p.add_argument("--zero-nv", action="store_true")
    p.add_argument("--emo-prompt")
    p.add_argument("--zero-emo", action="store_true")
    p.add_argument("--nfe", type=int, default=32)
    p.add_argument("--guidance", type=float, default=1.0)
    p.add_argument("--solver", choices=["euler", "midpoint"], default="euler")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func="cmd_sample")

    p = sub.add_parser("curate", help="filter a manifest through the gates")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ovlr-min", type=float, default=OVLR_MIN)
    p.add_argument("--report")
    p.set_defaults(func="cmd_curate")

    p = sub.add_parser("eval", help="similarity metrics")
    esub = p.add_subparsers(dest="eval_command", required=True)
    e = esub.add_parser("emo-sim", help="cosine-trajectory similarity of two feature files")
    e.add_argument("--a", required=True)
    e.add_argument("--b", required=True)
    e.set_defaults(func="cmd_eval_pair", metric="frame_cosine_sim")
    e = esub.add_parser("aro-val-sim", help="arousal/valence trajectory similarity")
    e.add_argument("--a", required=True)
    e.add_argument("--b", required=True)
    e.set_defaults(func="cmd_eval_pair", metric="aro_val_sim")
    e = esub.add_parser("report", help="score pairs across seeds and aggregate")
    e.add_argument("--pairs", required=True, help="JSONL of {a, b} path templates; '{seed}' is substituted")
    e.add_argument("--seeds", required=True, help="comma-separated seed names")
    e.add_argument("--out", required=True)
    e.set_defaults(func="cmd_eval_report")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: building it costs far more than a parse,
    and parsing leaves no state in it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # Looked up on every call, not bound when the parser was built, so a
    # cmd_* replaced on the module (by a tracer, say) is the one that runs.
    command = globals()[args.func]
    try:
        return command(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
