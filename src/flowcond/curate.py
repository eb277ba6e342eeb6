"""Pseudo-label curation over manifest records.

Three gates run in a fixed order - emotion, quality, speaker change -
and a record is rejected by the first gate it fails.  Scores come from
the manifest itself; no detector models run here.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from .features import DatasetRecord, FormatError, _manifest_lines

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


def first_failing_gate(label: str, confidence: float, ovlr: float, speaker_change: bool,
                       ovlr_min: float) -> str | None:
    """Name of the first gate a record with these scores fails, or None if
    it is retained."""
    if not emotion_gate(label, confidence):
        return "emotion_gate"
    if not quality_gate(ovlr, ovlr_min):
        return "quality_gate"
    if not speaker_gate(speaker_change):
        return "speaker_gate"
    return None


# The values first_failing_gate takes, picked from a manifest line's field
# values, so that curation builds no DatasetRecord per line.
_FIELD_NAMES = [f.name for f in fields(DatasetRecord)]
_gate_values = operator.itemgetter(*(
    _FIELD_NAMES.index(name)
    for name in ("emotion_label", "emotion_confidence", "ovlr", "speaker_change")
))


def run_pipeline(
    manifest_in: str | Path,
    manifest_out: str | Path,
    ovlr_min: float = OVLR_MIN,
) -> CurationReport:
    """Filter a manifest through the gates, streaming record by record.

    Output preserves input order.  Each retained line is written as it
    was read, stripped of surrounding whitespace and ended with one
    newline: its key order, spacing and escapes are kept, so a manifest
    in the canonical form ``write_manifest`` writes comes out unchanged.
    A malformed line, or a label or confidence the emotion gate cannot
    judge, raises a FormatError that names the line, and leaves no
    partial output behind.
    """
    if not math.isfinite(ovlr_min):
        raise ValueError(f"ovlr_min must be finite, got {ovlr_min}")
    out_path = Path(manifest_out)
    tmp_path = out_path.with_name(out_path.name + ".tmp")
    # Records per first-failing gate; None counts the retained ones.
    tally = {"emotion_gate": 0, "quality_gate": 0, "speaker_gate": 0, None: 0}
    retained_by_emotion = {}
    try:
        with open(tmp_path, "w", encoding="utf-8") as out:
            for lineno, line, values in _manifest_lines(manifest_in):
                label, confidence, ovlr, speaker_change = _gate_values(values)
                try:
                    reason = first_failing_gate(label, confidence, ovlr, speaker_change, ovlr_min)
                except ValueError as exc:
                    raise FormatError(f"manifest line {lineno}: {exc}") from exc
                tally[reason] += 1
                if reason is None:
                    retained_by_emotion[label] = retained_by_emotion.get(label, 0) + 1
                    out.write(line + "\n")
        os.replace(tmp_path, out_path)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise
    return CurationReport(retained=tally.pop(None), retained_by_emotion=retained_by_emotion,
                          **tally)
