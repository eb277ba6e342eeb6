"""Run one flowcond benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Workloads: train, toy, sample, data.  The workload runs in a fresh
child process (``bench.py``) whose environment pins BLAS to one thread
before numpy loads and puts this checkout's ``src/`` on the import
path.  The report is printed first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer table with
``--trace 1``).  The full result, with the environment block, is also
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train", "toy", "sample", "data")
THREAD_KNOBS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "FLOWCOND_THREADS")
CHILD_TIMEOUT_S = 170


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for knob in THREAD_KNOBS:
        env[knob] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one flowcond benchmark workload.")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "flowcond" / "__init__.py").is_file():
        print(f"error: no flowcond source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload {args.workload} ran past {CHILD_TIMEOUT_S}s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"error: workload {args.workload} exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])["result"]
    print("\n".join(lines[:-1]))
    metrics = result["metrics"]
    units = dict(unit_table(args.trace))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def unit_table(trace: int):
    """(name, unit) of the metrics one run reports, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


if __name__ == "__main__":
    raise SystemExit(main())
