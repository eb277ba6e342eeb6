"""Run the three-gate curation pipeline over a synthetic manifest.

Emotion first (five classes kept at any confidence, neutral/happy only
at full confidence), then quality (strictly above the threshold), then
speaker change.  A record is attributed to the first gate it fails.
"""

import tempfile
from pathlib import Path

import numpy as np

from flowcond import run_pipeline
from flowcond.features import DatasetRecord, write_manifest

rng = np.random.default_rng(0)
labels = ["angry", "disgusted", "fearful", "sad", "surprised", "neutral", "happy"]

records = [
    DatasetRecord(
        id=f"clip{i:04d}",
        features_path=f"clip{i}.fmat",
        phonemes_path=f"clip{i}.phn",
        nv_path=f"clip{i}.nv.fmat",
        emo_path=f"clip{i}.emo.fmat",
        duration_s=float(rng.uniform(1, 10)),
        emotion_label=labels[int(rng.integers(len(labels)))],
        emotion_confidence=float(rng.choice([0.2, 0.6, 0.9, 1.0])),
        ovlr=float(rng.uniform(1.5, 4.5)),
        speaker_change=bool(rng.uniform() < 0.15),
    )
    for i in range(500)
]

workdir = Path(tempfile.mkdtemp())
src = workdir / "raw.jsonl"
dst = workdir / "curated.jsonl"
write_manifest(records, src)

report = run_pipeline(src, dst)
print(f"input records:   {report.total}")
print(f"dropped-emotion: {report.emotion_gate}")
print(f"dropped-quality: {report.quality_gate}")
print(f"dropped-speaker: {report.speaker_gate}")
print(f"retained:        {report.retained}")
print("\nretained by emotion:")
for label, n in sorted(report.retained_by_emotion.items()):
    print(f"  {label:10s} {n}")

# boundary behavior
strict = [r for r in records if r.emotion_label in ("neutral", "happy")]
full_conf = [r for r in strict if r.emotion_confidence >= 1.0]
print(f"\nneutral/happy records: {len(strict)}, of which {len(full_conf)} at full confidence")
print("only the full-confidence ones can pass the emotion gate.")
