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

KEEP_ANY_CONFIDENCE = frozenset({"angry", "disgusted", "fearful", "sad", "surprised"})
STRICT_CONFIDENCE_ONLY = frozenset({"neutral", "happy"})


@dataclass(frozen=True)
class CurationPolicy:
    """Thresholds and label sets for the three gates."""

    keep_emotions_any_conf: frozenset[str] = KEEP_ANY_CONFIDENCE
    strict_emotions: frozenset[str] = STRICT_CONFIDENCE_ONLY
    strict_confidence: float = 1.0
    ovlr_min: float = 3.0
    unknown_label_policy: str = "error"  # or "drop"

    def __post_init__(self):
        if self.keep_emotions_any_conf & self.strict_emotions:
            raise ValueError("emotion label sets must be disjoint")
        if not 0.0 <= self.strict_confidence <= 1.0:
            raise ValueError(f"strict_confidence must be in [0, 1], got {self.strict_confidence}")
        if self.unknown_label_policy not in ("error", "drop"):
            raise ValueError("unknown_label_policy must be 'error' or 'drop'")


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


def emotion_gate(label: str, confidence: float, policy: CurationPolicy) -> bool:
    """Keep the high-signal emotion classes at any confidence; the two
    dominant classes only at full confidence."""
    if not 0.0 <= confidence <= 1.0:
        raise ValueError(f"confidence must be in [0, 1], got {confidence}")
    if label in policy.keep_emotions_any_conf:
        return True
    if label in policy.strict_emotions:
        return confidence >= policy.strict_confidence
    if policy.unknown_label_policy == "error":
        raise ValueError(f"unknown emotion label {label!r}")
    return False


def quality_gate(ovlr: float, policy: CurationPolicy) -> bool:
    """Keep only records strictly above the quality threshold."""
    if not math.isfinite(ovlr):
        raise ValueError(f"ovlr must be finite, got {ovlr}")
    return ovlr > policy.ovlr_min


def speaker_gate(speaker_change: bool) -> bool:
    """Drop any record where a speaker change was detected."""
    return not speaker_change


def first_failing_gate(rec: DatasetRecord, policy: CurationPolicy) -> str | None:
    """Name of the first gate the record fails, or None if it is retained."""
    if not emotion_gate(rec.emotion_label, rec.emotion_confidence, policy):
        return "emotion_gate"
    if not quality_gate(rec.ovlr, policy):
        return "quality_gate"
    if not speaker_gate(rec.speaker_change):
        return "speaker_gate"
    return None


def run_pipeline(
    manifest_in: str | Path,
    manifest_out: str | Path,
    policy: CurationPolicy | None = None,
) -> CurationReport:
    """Filter a manifest through the gates, streaming record by record.

    Output preserves input order.  On any malformed line the pipeline
    aborts and leaves no partial output behind.
    """
    policy = policy or CurationPolicy()
    out_path = Path(manifest_out)
    tmp_path = out_path.with_name(out_path.name + ".tmp")
    report = CurationReport()
    try:
        with open(tmp_path, "w") as out:
            for _, rec in read_manifest(manifest_in):
                reason = first_failing_gate(rec, policy)
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
