"""Condition-stream construction and file I/O.

External detectors deliver their outputs as files; this module reads
and writes the binary feature-matrix format and the JSONL manifest, and
generates the synthetic oracle corpora used for testing in place of the
real detectors.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator

import numpy as np

from .infill import NV_DIM

FMAT_MAGIC = b"FMAT"
FMAT_VERSION = 1
# Element cap keeps rows*cols*4 comfortably inside 32-bit file offsets.
_MAX_ELEMENTS = 2**31

SYNTH_KINDS = ("constant", "ramp", "step", "sinusoid")


class FormatError(ValueError):
    """A stored file violates its format contract; the message names the field."""


@dataclass
class FeatureMatrix:
    """An F x T frame matrix with its frame rate; stored as 32-bit floats."""

    values: np.ndarray
    frame_rate: float = 100.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 2:
            raise ValueError(f"feature matrix must be 2-d, got {self.values.shape}")


@dataclass
class DatasetRecord:
    """One manifest line: file paths plus the scores the curation gates read."""

    id: str
    features_path: str
    phonemes_path: str
    nv_path: str
    emo_path: str
    duration_s: float
    emotion_label: str
    emotion_confidence: float
    ovlr: float
    speaker_change: bool


# Manifest field -> the exact types its decoded JSON value may have, read
# from the (string) annotations of DatasetRecord, in field order.  A float
# field takes an int or a float, never a bool, and must be finite as a
# float.  Exact type() membership is enough: json yields no subclasses.
_NUMBER_TYPES = (int, float)
_RECORD_TYPES = {
    f.name: {"str": (str,), "float": _NUMBER_TYPES, "bool": (bool,)}[f.type]
    for f in fields(DatasetRecord)
}
_TYPE_WORDS = {(str,): "a string", _NUMBER_TYPES: "a finite number", (bool,): "a boolean"}
_FLOAT_MAX = sys.float_info.max


def store_feature_matrix(matrix: FeatureMatrix | np.ndarray, path: str | Path) -> None:
    """Write the binary FMAT file: magic, version, dims, frame rate, f32 payload."""
    if not isinstance(matrix, FeatureMatrix):
        matrix = FeatureMatrix(values=matrix)
    rows, cols = matrix.values.shape
    header = FMAT_MAGIC + struct.pack("<IIIf", FMAT_VERSION, rows, cols, matrix.frame_rate)
    payload = np.ascontiguousarray(matrix.values, dtype="<f4").tobytes()
    Path(path).write_bytes(header + payload)


def load_feature_matrix(path: str | Path) -> FeatureMatrix:
    """Read an FMAT file back, validating every header field and the payload."""
    # open() rather than Path.read_bytes(): a few µs less per call, which
    # pays for the payload check when a corpus load reads hundreds of files.
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != FMAT_MAGIC:
        raise FormatError(f"bad magic in {path}: expected {FMAT_MAGIC!r}")
    if len(blob) < 20:
        raise FormatError(f"truncated header in {path}")
    version, rows, cols, frame_rate = struct.unpack("<IIIf", blob[4:20])
    if version != FMAT_VERSION:
        raise FormatError(f"unsupported version {version} in {path}")
    if not (math.isfinite(frame_rate) and frame_rate > 0):
        raise FormatError(f"bad frame rate {frame_rate} in {path}: must be finite and positive")
    if rows * cols > _MAX_ELEMENTS:
        raise FormatError(f"dimension overflow in {path}: {rows} x {cols}")
    expected = 20 + rows * cols * 4
    if len(blob) < expected:
        raise FormatError(
            f"truncated payload in {path}: declared {rows} x {cols}, "
            f"got {len(blob) - 20} of {rows * cols * 4} bytes"
        )
    if len(blob) > expected:
        raise FormatError(f"trailing bytes after payload in {path}")
    values = np.frombuffer(blob, dtype="<f4", offset=20).reshape(rows, cols)
    if not np.isfinite(values).all():
        raise FormatError(f"non-finite values in payload of {path}")
    return FeatureMatrix(values=values.copy(), frame_rate=frame_rate)


def store_phonemes(tokens: np.ndarray, path: str | Path) -> None:
    """Write token ids as one line of space-separated integers."""
    Path(path).write_text(" ".join(str(int(t)) for t in tokens) + "\n")


def load_phonemes(path: str | Path) -> np.ndarray:
    text = Path(path).read_text().strip()
    if not text:
        return np.zeros(0, dtype=np.int64)
    try:
        return np.array([int(tok) for tok in text.split()], dtype=np.int64)
    except ValueError as exc:
        raise FormatError(f"non-integer phoneme token in {path}: {exc}") from exc


def frames_to_seconds(frames: int, frames_per_second: float) -> float:
    return frames / frames_per_second


# One encoder for every line; json.dumps(..., sort_keys=True) would build a
# new one per call.
_encode_manifest = json.JSONEncoder(sort_keys=True).encode


def manifest_line(rec: DatasetRecord) -> str:
    return _encode_manifest(vars(rec))


def write_manifest(records: list[DatasetRecord], path: str | Path) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(manifest_line(rec) + "\n")


# One decoder for every line; json.loads wraps the same scan in two more
# Python calls and two regex matches per line.
_raw_decode = json.JSONDecoder().raw_decode


def read_manifest(path: str | Path) -> Iterator[tuple[int, DatasetRecord]]:
    """Yield (line_number, record) pairs, validating each line as it streams."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj, end = _raw_decode(line)
            except (json.JSONDecodeError, RecursionError):
                end = -1
            if end != len(line):
                # Not one whole JSON value: json.loads raises the error, so
                # a BOM or extra data is reported as json.loads reports it.
                try:
                    json.loads(line)
                except json.JSONDecodeError as exc:
                    raise FormatError(f"manifest line {lineno}: invalid JSON ({exc})") from exc
                except RecursionError:
                    raise FormatError(f"manifest line {lineno}: invalid JSON (nested too deeply)") from None
            try:
                rec = DatasetRecord(**obj)
            except TypeError as exc:
                raise FormatError(f"manifest line {lineno}: {exc}") from exc
            for name, types in _RECORD_TYPES.items():
                value = obj[name]
                # NaN fails both comparisons; so do ints no float can hold.
                if type(value) not in types or (
                    types is _NUMBER_TYPES and not -_FLOAT_MAX <= value <= _FLOAT_MAX
                ):
                    raise FormatError(
                        f"manifest line {lineno}: {name} must be {_TYPE_WORDS[types]}, "
                        f"got {value!r}"
                    )
            yield lineno, rec


# --- synthetic oracle corpus ------------------------------------------------
#
# The generator law ties the feature matrix deterministically to the
# condition streams: each frame is a unit-norm carrier scaled by
# (1 + arousal), plus a fixed pattern vector scaled by the norm of the
# NV column.  Conditioning faithfulness is then directly measurable as
# the column norm of generated output.

_CARRIER_PERIOD = 64.0


def carrier_matrix(feature_dim: int, T: int) -> np.ndarray:
    """Deterministic unit-norm carrier columns; row 0 is constant so the
    pre-normalization norm never vanishes."""
    f = np.arange(feature_dim, dtype=np.float64)[:, None]
    tau = np.arange(T, dtype=np.float64)[None, :]
    raw = np.cos(2.0 * np.pi * (f + 1.0) * tau / _CARRIER_PERIOD + 2.0 * np.pi * f / max(feature_dim, 1))
    raw[0, :] = 1.0
    return raw / np.linalg.norm(raw, axis=0, keepdims=True)


def pattern_vector(feature_dim: int) -> np.ndarray:
    """Fixed unit vector added when nonverbal activity is present."""
    p = np.where(np.arange(feature_dim) % 2 == 0, 1.0, -1.0)
    return p / np.sqrt(feature_dim)


def _trajectory(kind: str, T: int, rng: np.random.Generator) -> np.ndarray:
    """One centered scalar trajectory of length T in [-0.5, 0.5]."""
    tau = np.arange(T, dtype=np.float64)
    if kind == "constant":
        return np.full(T, rng.uniform(-0.5, 0.5))
    if kind == "ramp":
        a0, a1 = rng.uniform(-0.5, 0.5, size=2)
        return a0 + (a1 - a0) * (tau / max(T - 1, 1))
    if kind == "step":
        a0, a1 = rng.uniform(-0.5, 0.5, size=2)
        cut = int(rng.integers(max(1, T // 5), max(2, T - T // 5))) if T > 1 else 1
        out = np.full(T, a0)
        out[cut:] = a1
        return out
    if kind == "sinusoid":
        amp = rng.uniform(0.1, 0.45)
        offset = rng.uniform(-(0.5 - amp), 0.5 - amp)
        cycles = rng.uniform(1.0, 3.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        return offset + amp * np.sin(2.0 * np.pi * cycles * tau / T + phase)
    raise ValueError(f"unknown trajectory kind {kind!r}; expected one of {SYNTH_KINDS}")


def synth_condition_oracle(
    kind: str,
    T: int,
    rng: np.random.Generator,
    *,
    feature_dim: int = 8,
    with_nv: bool | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generate (emo 2xT, nv 32xT, features FxT) obeying the oracle law.

    feature column = (1 + arousal) * carrier + ||nv column|| * pattern.
    ``with_nv`` forces the nonverbal burst on or off; None flips a coin.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    arousal = _trajectory(kind, T, rng)
    valence = _trajectory(kind, T, rng)
    emo = np.stack([arousal, valence])

    nv = np.zeros((NV_DIM, T))
    burst = rng.uniform() < 0.3 if with_nv is None else with_nv
    if burst:
        b0 = int(rng.integers(0, T))
        b1 = int(rng.integers(b0 + 1, T + 1))
        gain = rng.uniform(0.5, 1.5)
        direction = np.ones(NV_DIM) / np.sqrt(NV_DIM)
        nv[:, b0:b1] = gain * direction[:, None]

    carrier = carrier_matrix(feature_dim, T)
    gate = np.linalg.norm(nv, axis=0)
    features = (1.0 + arousal)[None, :] * carrier + gate[None, :] * pattern_vector(feature_dim)[:, None]
    return emo, nv, features


def synth_phonemes(T: int, rng: np.random.Generator, n_phonemes: int = 16) -> np.ndarray:
    """Block-constant token ids (ids 1..n-1; 0 stays reserved as blank),
    in blocks of 5 to 15 frames."""
    tokens = np.zeros(T, dtype=np.int64)
    pos = 0
    while pos < T:
        block = int(rng.integers(5, 16))
        tokens[pos : pos + block] = int(rng.integers(1, n_phonemes))
        pos += block
    return tokens


_EMOTION_LABELS = (
    "angry", "disgusted", "fearful", "sad", "surprised", "neutral", "happy",
)


def generate_corpus(
    out_dir: str | Path,
    kind: str,
    count: int,
    T: int,
    seed: int,
    *,
    feature_dim: int = 8,
    n_phonemes: int = 16,
) -> Path:
    """Write a synthetic corpus (feature/phoneme/nv/emo files + manifest).

    ``kind`` may be one of the trajectory kinds or "mixed", which cycles
    through all of them.  Deterministic: the same seed yields byte-
    identical directories.  Every file is stamped 100 frames/s.  Returns
    the manifest path.  Bad arguments raise before anything is created.
    """
    kinds = SYNTH_KINDS if kind == "mixed" else (kind,)
    if any(k not in SYNTH_KINDS for k in kinds):
        raise ValueError(f"unknown corpus kind {kind!r}")
    # n_phonemes >= 2: id 0 is the reserved blank, so ids are drawn from 1..n-1.
    for name, value, least in (
        ("count", count, 0), ("T", T, 1),
        ("feature_dim", feature_dim, 1), ("n_phonemes", n_phonemes, 2),
    ):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    records = []
    streams = np.random.SeedSequence(seed).spawn(count)
    for i in range(count):
        rng = np.random.default_rng(streams[i])
        k = kinds[i % len(kinds)]
        emo, nv, feats = synth_condition_oracle(k, T, rng, feature_dim=feature_dim)
        tokens = synth_phonemes(T, rng, n_phonemes=n_phonemes)

        rec_id = f"{kind}_{i:05d}"
        paths = {
            "features": out / f"{rec_id}.fmat",
            "phonemes": out / f"{rec_id}.phn",
            "nv": out / f"{rec_id}.nv.fmat",
            "emo": out / f"{rec_id}.emo.fmat",
        }
        store_feature_matrix(FeatureMatrix(feats), paths["features"])
        store_phonemes(tokens, paths["phonemes"])
        store_feature_matrix(FeatureMatrix(nv), paths["nv"])
        store_feature_matrix(FeatureMatrix(emo), paths["emo"])

        records.append(
            DatasetRecord(
                id=rec_id,
                features_path=paths["features"].name,
                phonemes_path=paths["phonemes"].name,
                nv_path=paths["nv"].name,
                emo_path=paths["emo"].name,
                duration_s=frames_to_seconds(T, FeatureMatrix.frame_rate),
                emotion_label=_EMOTION_LABELS[int(rng.integers(len(_EMOTION_LABELS)))],
                emotion_confidence=round(float(rng.uniform()), 4),
                ovlr=round(float(rng.uniform(1.0, 5.0)), 4),
                speaker_change=bool(rng.uniform() < 0.1),
            )
        )

    manifest = out / "manifest.jsonl"
    write_manifest(records, manifest)
    return manifest
