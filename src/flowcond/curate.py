"""Pseudo-label curation over manifest records.

Three gates run in a fixed order - emotion, quality, speaker change -
and a record is rejected by the first gate it fails.  Scores come from
the manifest itself; no detector models run here.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from .features import DatasetRecord, manifest_line, read_manifest

# The label rules and the threshold default follow the paper's
# pseudo-label curation recipe.
KEEP_ANY_CONFIDENCE = frozenset({"angry", "disgusted", "fearful", "sad", "surprised"})
STRICT_CONFIDENCE_ONLY = frozenset({"neutral", "happy"})
STRICT_CONFIDENCE = 1.0
OVLR_MIN = 3.0


@dataclass
class CurationReport:
    """Counts per first-failing gate plus the retained tally."""

    emotion_gate: int = 0
    quality_gate: int = 0
    speaker_gate: int = 0
    retained: int = 0
    retained_by_emotion: dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.emotion_gate + self.quality_gate + self.speaker_gate + self.retained

    def to_dict(self) -> dict:
        return {
            "emotion_gate": self.emotion_gate,
            "quality_gate": self.quality_gate,
            "speaker_gate": self.speaker_gate,
            "retained": self.retained,
            "retained_by_emotion": dict(sorted(self.retained_by_emotion.items())),
        }


def emotion_gate(label: str, confidence: float) -> bool:
    """Keep the high-signal emotion classes at any confidence; the two
    dominant classes only at full confidence.  An unknown label raises."""
    if not 0.0 <= confidence <= 1.0:
        raise ValueError(f"confidence must be in [0, 1], got {confidence}")
    if label in KEEP_ANY_CONFIDENCE:
        return True
    if label in STRICT_CONFIDENCE_ONLY:
        return confidence >= STRICT_CONFIDENCE
    raise ValueError(f"unknown emotion label {label!r}")


def quality_gate(ovlr: float, ovlr_min: float) -> bool:
    """Keep only records strictly above the quality threshold."""
    if not math.isfinite(ovlr):
        raise ValueError(f"ovlr must be finite, got {ovlr}")
    return ovlr > ovlr_min


def speaker_gate(speaker_change: bool) -> bool:
    """Drop any record where a speaker change was detected."""
    return not speaker_change


def first_failing_gate(rec: DatasetRecord, ovlr_min: float) -> str | None:
    """Name of the first gate the record fails, or None if it is retained."""
    if not emotion_gate(rec.emotion_label, rec.emotion_confidence):
        return "emotion_gate"
    if not quality_gate(rec.ovlr, ovlr_min):
        return "quality_gate"
    if not speaker_gate(rec.speaker_change):
        return "speaker_gate"
    return None


def run_pipeline(
    manifest_in: str | Path,
    manifest_out: str | Path,
    ovlr_min: float = OVLR_MIN,
) -> CurationReport:
    """Filter a manifest through the gates, streaming record by record.

    Output preserves input order.  On any malformed line the pipeline
    aborts and leaves no partial output behind.
    """
    if not math.isfinite(ovlr_min):
        raise ValueError(f"ovlr_min must be finite, got {ovlr_min}")
    out_path = Path(manifest_out)
    tmp_path = out_path.with_name(out_path.name + ".tmp")
    report = CurationReport()
    try:
        with open(tmp_path, "w") as out:
            for _, rec in read_manifest(manifest_in):
                reason = first_failing_gate(rec, ovlr_min)
                if reason is None:
                    report.retained += 1
                    report.retained_by_emotion[rec.emotion_label] = (
                        report.retained_by_emotion.get(rec.emotion_label, 0) + 1
                    )
                    out.write(manifest_line(rec) + "\n")
                else:
                    setattr(report, reason, getattr(report, reason) + 1)
        os.replace(tmp_path, out_path)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise
    return report
