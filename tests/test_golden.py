"""Golden digests: a fixed-seed pass through the CLI writes the committed bytes.

One pass through ``cli.main`` runs two ``synth`` corpora, ten desk-shaped
``train`` steps with ``--checkpoint-every 5``, four ``sample`` runs
(guided and unguided, with a speaker prompt and without, ``--nfe 8``),
``curate`` at two ``--ovlr-min`` values, and the three ``eval``
commands.  The sha256 of every file it writes, and of each
command's stdout, must equal the one in ``golden_digests.json``.

When a change moves bytes on purpose, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py

and name the moved artifacts and the reason (RNG draw order, summation
order, a default) in CHANGES.md.  The digests hold only for the numpy
version, BLAS build, SIMD features and BLAS thread count they were made
with, which the file records; on another build the test fails naming
both, and never skips.
"""

import os

# Pin BLAS before numpy loads (tests/conftest.py does the same under pytest).
for knob in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(knob, "1")

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from flowcond.cli import main  # noqa: E402

DIGESTS = Path(__file__).with_name("golden_digests.json")
REGENERATE = "PYTHONPATH=src python tests/test_golden.py"


def _sample_runs() -> list[tuple[str, list[str]]]:
    speaker = ["--spk-features", "c2/mixed_00000.fmat", "--spk-phonemes", "c2/mixed_00000.phn",
               "--spk-nv", "c2/mixed_00000.nv.fmat", "--spk-emo", "c2/mixed_00000.emo.fmat",
               "--nv-prompt", "c2/mixed_00002.nv.fmat", "--emo-prompt", "c2/mixed_00002.emo.fmat"]
    runs = []
    for prompt, prompt_args in (("spk", speaker), ("plain", ["--zero-nv", "--zero-emo"])):
        for guidance in ("1.0", "0.0"):
            name = f"euler-g{guidance}-{prompt}"
            runs.append((f"sample {name}", [
                "sample", "--checkpoint", "run/checkpoint.fmck",
                "--text-phonemes", "c2/mixed_00001.phn", *prompt_args,
                "--nfe", "8", "--guidance", guidance, "--seed", "4",
                "--out", f"samples/{name}.fmat",
            ]))
    return runs


RUNS = [
    ("synth c1", ["synth", "--kind", "sinusoid", "--count", "6", "--frames", "48",
                  "--seed", "1", "--out", "c1"]),
    ("synth c2", ["synth", "--kind", "mixed", "--count", "6", "--frames", "48",
                  "--seed", "2", "--out", "c2"]),
    ("train", ["train", "--manifest", "c1/manifest.jsonl", "--manifest", "c2/manifest.jsonl",
               "--ratios", "0.6,0.4", "--steps", "10", "--batch-frames", "576", "--warmup", "3",
               "--checkpoint-every", "5", "--seed", "3", "--out", "run"]),
    *_sample_runs(),
    *[(f"curate {ovlr}", ["curate", "--in", "c2/manifest.jsonl", "--out", f"kept-{ovlr}.jsonl",
                          "--ovlr-min", ovlr, "--report", f"kept-{ovlr}.json"])
      for ovlr in ("1.5", "3.0")],
    ("eval emo-sim", ["eval", "emo-sim", "--a", "samples/euler-g1.0-spk.fmat",
                      "--b", "samples/euler-g1.0-plain.fmat"]),
    ("eval aro-val-sim", ["eval", "aro-val-sim", "--a", "c2/mixed_00000.emo.fmat",
                          "--b", "c2/mixed_00003.emo.fmat"]),
    ("eval report", ["eval", "report", "--pairs", "pairs.jsonl", "--seeds", "spk,plain",
                     "--out", "report.json"]),
]

# eval report's pair templates; '{seed}' names the prompt setting.
PAIRS = [
    {"a": "samples/euler-g1.0-{seed}.fmat", "b": "c2/mixed_00001.fmat"},
    {"a": "samples/euler-g1.0-{seed}.fmat", "b": "samples/euler-g0.0-{seed}.fmat"},
]


def build_record() -> dict:
    """What the digests depend on besides the code."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_configuration": blas.get("openblas configuration"),
        "simd": config["SIMD Extensions"]["found"],
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def digest_runs(workdir: Path) -> dict[str, str]:
    """Run every command in ``workdir``; sha256 of each file and stdout."""
    digests = {}
    with contextlib.chdir(workdir):
        Path("samples").mkdir()
        Path("pairs.jsonl").write_text("".join(json.dumps(p) + "\n" for p in PAIRS))
        for name, argv in RUNS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code == 0 and not err.getvalue(), f"{name}: exit {code}, {err.getvalue()!r}"
            digests[f"stdout of {name}"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    for path in sorted(workdir.rglob("*")):
        if path.is_file():
            digests[path.relative_to(workdir).as_posix()] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return digests


def test_fixed_seed_cli_runs_write_the_golden_bytes(tmp_path):
    golden = json.loads(DIGESTS.read_text())
    here = build_record()
    assert golden["build"] == here, (
        f"{DIGESTS.name} was made on {golden['build']}, but this is {here}; "
        f"the digests hold only on their own build. Regenerate with `{REGENERATE}` "
        "on a build whose bytes you have checked."
    )
    got = digest_runs(tmp_path)
    want = golden["artifacts"]
    moved = sorted(k for k in got.keys() & want.keys() if got[k] != want[k])
    missing = sorted(want.keys() - got.keys())
    new = sorted(got.keys() - want.keys())
    assert not (moved or missing or new), (
        f"moved: {moved}; missing: {missing}; new: {new}. If the change means to move "
        f"these bytes, regenerate with `{REGENERATE}` and say why in CHANGES.md."
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        artifacts = digest_runs(Path(tmp))
    DIGESTS.write_text(json.dumps(
        {"regenerate": REGENERATE, "build": build_record(), "artifacts": artifacts},
        indent=1, sort_keys=True,
    ) + "\n")
    print(f"wrote {len(artifacts)} digests to {DIGESTS}", file=sys.stderr)
