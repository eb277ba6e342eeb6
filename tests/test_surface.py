"""Pin the settable surface: every value a caller or operator can set.

The count follows four rules: dataclass fields with a default that
``__init__`` takes (``init=False`` constants are not settable), keyword
parameters with a default on public functions and on methods of public
classes, ``flowcond`` flags, and config-file keys.  The first two come
from an ``ast`` walk over ``src/flowcond``, the flags from a walk of
``cli.build_parser()``.  flowcond reads no config file, so the fourth
rule adds nothing.  A change that adds or removes a knob edits
``SURFACE`` below, so the diff shows it.
"""

import argparse
import ast
from pathlib import Path

import flowcond
from flowcond import cli

SURFACE = sorted([
    "field curate.CurationReport.emotion_gate",
    "field curate.CurationReport.quality_gate",
    "field curate.CurationReport.retained",
    "field curate.CurationReport.retained_by_emotion",
    "field curate.CurationReport.speaker_gate",
    "field features.FeatureMatrix.frame_rate",
    "field sampler.GuidanceConfig.nfe",
    "field sampler.GuidanceConfig.strength",
    "field seqmodel.ModelConfig.d_ffn",
    "field seqmodel.ModelConfig.d_model",
    "field seqmodel.ModelConfig.d_phn",
    "field seqmodel.ModelConfig.feature_dim",
    "field seqmodel.ModelConfig.n_heads",
    "field seqmodel.ModelConfig.n_layers",
    "field seqmodel.ModelConfig.n_phonemes",
    "field training.TrainSettings.batch_frames",
    "field training.TrainSettings.checkpoint_every",
    "field training.TrainSettings.peak_lr",
    "field training.TrainSettings.seed",
    "field training.TrainSettings.steps",
    "field training.TrainSettings.warmup_steps",
    "flag flowcond curate --in",
    "flag flowcond curate --out",
    "flag flowcond curate --ovlr-min",
    "flag flowcond curate --report",
    "flag flowcond eval aro-val-sim --a",
    "flag flowcond eval aro-val-sim --b",
    "flag flowcond eval emo-sim --a",
    "flag flowcond eval emo-sim --b",
    "flag flowcond eval report --out",
    "flag flowcond eval report --pairs",
    "flag flowcond eval report --seeds",
    "flag flowcond sample --checkpoint",
    "flag flowcond sample --emo-prompt",
    "flag flowcond sample --guidance",
    "flag flowcond sample --nfe",
    "flag flowcond sample --nv-prompt",
    "flag flowcond sample --out",
    "flag flowcond sample --seed",
    "flag flowcond sample --spk-emo",
    "flag flowcond sample --spk-features",
    "flag flowcond sample --spk-nv",
    "flag flowcond sample --spk-phonemes",
    "flag flowcond sample --text-phonemes",
    "flag flowcond sample --zero-emo",
    "flag flowcond sample --zero-nv",
    "flag flowcond synth --count",
    "flag flowcond synth --feature-dim",
    "flag flowcond synth --frames",
    "flag flowcond synth --kind",
    "flag flowcond synth --out",
    "flag flowcond synth --seed",
    "flag flowcond train --batch-frames",
    "flag flowcond train --checkpoint-every",
    "flag flowcond train --manifest",
    "flag flowcond train --out",
    "flag flowcond train --peak-lr",
    "flag flowcond train --ratios",
    "flag flowcond train --seed",
    "flag flowcond train --steps",
    "flag flowcond train --warmup",
    "keyword cli.main(argv=)",
    "keyword curate.run_pipeline(ovlr_min=)",
    "keyword features.generate_corpus(feature_dim=)",
    "keyword features.generate_corpus(n_phonemes=)",
    "keyword features.synth_condition_oracle(feature_dim=)",
    "keyword features.synth_condition_oracle(with_nv=)",
    "keyword features.synth_phonemes(n_phonemes=)",
    "keyword seqmodel.erf(out=)",
    "keyword seqmodel.erf(scratch=)",
    "keyword seqmodel.init_params(zero_output=)",
    "keyword seqmodel.load_checkpoint(blob=)",
    "keyword seqmodel.positional_encoding(dtype=)",
    "keyword training.train_loop(checkpoint_path=)",
    "keyword training.train_loop(on_step=)",
])


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(isinstance(target, ast.Name) and target.id == "dataclass"
               for target in (d.func if isinstance(d, ast.Call) else d
                              for d in cls.decorator_list))


def _init_false(value: ast.expr) -> bool:
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in value.keywords
    )


def _keywords(fn: ast.FunctionDef, owner: str) -> list[str]:
    if fn.name.startswith("_"):
        return []
    args = fn.args
    positional = args.posonlyargs + args.args
    with_default = positional[len(positional) - len(args.defaults):] + [
        a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    ]
    return [f"keyword {owner}{fn.name}({a.arg}=)" for a in with_default]


def source_surface() -> list[str]:
    """Settable dataclass fields and public keyword defaults in the package source."""
    names = []
    for path in sorted(Path(flowcond.__file__).parent.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                names += _keywords(node, f"{module}.")
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if (_is_dataclass(node) and isinstance(item, ast.AnnAssign)
                            and item.value is not None and not _init_false(item.value)):
                        names.append(f"field {module}.{node.name}.{item.target.id}")
                    elif isinstance(item, ast.FunctionDef):
                        names += _keywords(item, f"{module}.{node.name}.")
    return names


def flag_surface(parser: argparse.ArgumentParser, command: str = "flowcond") -> list[str]:
    names = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                names += flag_surface(sub, f"{command} {name}")
        elif not isinstance(action, argparse._HelpAction):
            names += [f"flag {command} {option}" for option in action.option_strings]
    return names


def test_settable_surface_is_pinned():
    found = sorted(source_surface() + flag_surface(cli.build_parser()))
    assert found == SURFACE
    assert len(SURFACE) == 75
