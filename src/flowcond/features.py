"""Condition-stream construction and file I/O.

External detectors deliver their outputs as files; this module reads
and writes the binary feature-matrix format and the JSONL manifest, and
generates the synthetic oracle corpora used for testing in place of the
real detectors.

A manifest line is accepted when it is one JSON object with exactly the
ten ``DatasetRecord`` fields as keys, in any order: the four paths, ``id``
and ``emotion_label`` strings, ``speaker_change`` a boolean, and
``duration_s``, ``emotion_confidence`` and ``ovlr`` each an int or a
float (never a boolean) within the finite float range.  Anything else is
a ``FormatError`` that names the line and its first fault.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import os
import struct
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator, NoReturn

import numpy as np

from .infill import NV_DIM

FMAT_MAGIC = b"FMAT"
FMAT_VERSION = 1
# Element cap keeps rows*cols*4 comfortably inside 32-bit file offsets.
_MAX_ELEMENTS = 2**31
# version, rows, cols, frame rate: the 16 bytes after the magic.
_FMAT_HEADER = struct.Struct("<IIIf")
# Frames per second of every feature stream.
FRAME_RATE = 100.0

SYNTH_KINDS = ("constant", "ramp", "step", "sinusoid")


class FormatError(ValueError):
    """A stored file violates its format contract; the message names the field."""


@dataclass
class FeatureMatrix:
    """An F x T frame matrix with its frame rate; stored as 32-bit floats."""

    values: np.ndarray
    frame_rate: float = FRAME_RATE

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
# The accept check of _manifest_lines, built from the same table: the field
# values in field order, every allowed tuple of their exact types (8, since
# each of the three number fields is an int or a float), and the number
# fields' positions.
_record_values = operator.itemgetter(*_RECORD_TYPES)
_RECORD_TYPE_TUPLES = frozenset(itertools.product(*_RECORD_TYPES.values()))
_DURATION, _CONFIDENCE, _OVLR = (
    i for i, types in enumerate(_RECORD_TYPES.values()) if types is _NUMBER_TYPES
)


def store_feature_matrix(matrix: FeatureMatrix | np.ndarray, path: str | Path) -> None:
    """Write the binary FMAT file: magic, version, dims, frame rate, f32 payload."""
    if not isinstance(matrix, FeatureMatrix):
        matrix = FeatureMatrix(values=matrix)
    rows, cols = matrix.values.shape
    header = FMAT_MAGIC + _FMAT_HEADER.pack(FMAT_VERSION, rows, cols, matrix.frame_rate)
    payload = np.ascontiguousarray(matrix.values, dtype="<f4").tobytes()
    _write_file(path, header + payload)


# os.open/os.read/os.close: a whole-file read in four system calls, without
# the buffered file object open() builds around them.  _READ_CHUNK is the
# first read's buffer: os.read allocates it before it reads, then shrinks
# it, so a small file never pays for a megabyte.  A file that fills it
# has the rest asked for in one read, of the size fstat gives.  A write
# opens as open(path, "wb") does, and a new file gets the mode open()
# would give it.
_O_BINARY = getattr(os, "O_BINARY", 0)
_O_RDONLY = os.O_RDONLY | _O_BINARY
_O_WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | _O_BINARY
_READ_CHUNK = 1 << 16


def _write_file(path: str | Path, data: bytes) -> None:
    """Make ``data`` the whole content of the file at ``path``, creating it
    or truncating it first.

    Raises ``OSError`` as ``open()`` does, and ``os.write`` errors (a full
    disk, say) are raised again with the path attached, so they name the
    file.  ``os.write`` may write only part of what it is given, so it is
    called until every byte is written.
    """
    fd = os.open(path, _O_WRITE, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)


def _read_file(path: str | Path) -> bytes:
    """The bytes of the file at ``path``, read to EOF.

    Raises ``OSError`` as ``open()`` does: ``os.read`` errors (a directory
    opens, then fails the read) are raised again with the path attached,
    so they name the file.
    """
    fd = os.open(path, _O_RDONLY)
    try:
        chunks = []
        size = _READ_CHUNK
        while chunk := os.read(fd, size):
            if not chunks and len(chunk) == size:  # a full first read
                size = max(os.fstat(fd).st_size - size, size)
            chunks.append(chunk)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)
    return b"".join(chunks)  # one chunk is returned as it is, not copied


def _read_fmat(path: str | Path) -> tuple[np.ndarray, float]:
    """(values, frame rate) of an FMAT file, validating every header field
    and the payload; ``values`` is a read-only float32 view of the bytes."""
    blob = _read_file(path)
    if len(blob) < 4 or blob[:4] != FMAT_MAGIC:
        raise FormatError(f"bad magic in {path}: expected {FMAT_MAGIC!r}")
    if len(blob) < 20:
        raise FormatError(f"truncated header in {path}")
    version, rows, cols, frame_rate = _FMAT_HEADER.unpack_from(blob, 4)
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
    return values, frame_rate


def load_feature_matrix(path: str | Path) -> FeatureMatrix:
    """Read an FMAT file back, validating every header field and the payload."""
    values, frame_rate = _read_fmat(path)
    return FeatureMatrix(values=values.copy(), frame_rate=frame_rate)


def store_phonemes(tokens: np.ndarray, path: str | Path) -> None:
    """Write token ids as one line of space-separated integers; a float id
    is truncated toward zero, as ``int()`` does."""
    tokens = np.asarray(tokens)
    if tokens.ndim == 1 and tokens.dtype.kind in "iu":  # tolist() gives Python ints
        text = " ".join(map(str, tokens.tolist()))
    else:
        text = " ".join(str(int(t)) for t in tokens)
    _write_file(path, (text + "\n").encode())


def non_utf8_line(path: str | Path) -> tuple[int, str]:
    """(line number, fault) of the first line of ``path`` that is not UTF-8.

    For the error of a text read that raised ``UnicodeDecodeError``: the
    decoder reads ahead, so the lines read so far do not tell which line
    failed.  This reads the file again as bytes and counts lines as a
    text-mode read does (\\n, \\r and \\r\\n each end one); a UTF-8
    character never spans a line end.
    """
    lines = _read_file(path).splitlines()
    for lineno, raw in enumerate(lines, start=1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            return lineno, (f"not UTF-8 text (byte {exc.start + 1} of the line is "
                            f"{raw[exc.start]:#04x}: {exc.reason})")
    raise FormatError(f"{path} is not UTF-8 text")  # it changed since the failed read


def load_phonemes(path: str | Path) -> np.ndarray:
    """Token ids from a file of whitespace-separated integers, in UTF-8."""
    try:
        text = _read_file(path).decode("utf-8").strip()
    except UnicodeDecodeError:
        lineno, fault = non_utf8_line(path)
        raise FormatError(f"phoneme file {path} line {lineno}: {fault}") from None
    if not text:
        return np.zeros(0, dtype=np.int64)
    try:
        return np.array([int(tok) for tok in text.split()], dtype=np.int64)
    except ValueError as exc:
        raise FormatError(f"non-integer phoneme token in {path}: {exc}") from exc
    except OverflowError:
        raise FormatError(f"phoneme id outside the 64-bit integer range in {path}") from None


def interpolate_stream(src: np.ndarray, target_len: int) -> np.ndarray:
    """Linearly resample each row of a D x L stream to length ``target_len``.

    Endpoints are preserved: column 0 maps to column 0 and column L-1 to
    column target_len-1.  Equal lengths return the values unchanged.
    Output is float64.
    """
    src = np.asarray(src)
    if src.ndim != 2:
        raise ValueError(f"stream must be 2-d, got shape {src.shape}")
    d, length = src.shape
    if length < 1:
        raise ValueError("stream must have at least one column")
    if target_len < 1:
        raise ValueError(f"target length must be >= 1, got {target_len}")
    if length == target_len:
        return src.astype(np.float64)
    # np.interp returns a knot's value exactly when a query lands on it, so
    # one column broadcasts and one query reads column 0.
    xs = np.arange(length, dtype=np.float64)
    xq = np.linspace(0.0, float(length - 1), target_len)
    out = np.empty((d, target_len), dtype=np.float64)
    for i in range(d):
        out[i] = np.interp(xq, xs, src[i].astype(np.float64))
    return out


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
    for lineno, _, values in _manifest_lines(path):
        yield lineno, DatasetRecord(*values)


def _manifest_lines(path: str | Path) -> Iterator[tuple[int, str, tuple]]:
    """Yield (line_number, stripped line, field values) for each non-blank line.

    The values are the line's ten accepted field values in
    ``DatasetRecord`` field order, so ``DatasetRecord(*values)`` is its
    record; a caller that reads only some fields builds no record.  The
    line is the exact text that decoded to them, so a caller can copy it
    out without encoding it again.  A decoded line is
    accepted by one check, whatever its key order: all ten field values
    fetched at once, exactly ten keys, the tuple of their exact types one
    of the eight allowed, and each number within the float range (NaN,
    infinities and ints such as 10**400 are not).  Only a line that fails
    goes on to ``_raise_manifest_error``, which words the error.  A file
    that is not UTF-8 raises a ``FormatError`` naming it and the line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj, end = _raw_decode(line)
                except (ValueError, RecursionError):  # ValueError: an int too long to convert
                    end = -1
                if end != len(line):
                    # Not one whole JSON value: json.loads raises the error, so
                    # a BOM or extra data is reported as json.loads reports it.
                    try:
                        json.loads(line)
                    except ValueError as exc:
                        raise FormatError(f"manifest line {lineno}: invalid JSON ({exc})") from exc
                    except RecursionError:
                        raise FormatError(f"manifest line {lineno}: invalid JSON (nested too deeply)") from None
                try:
                    # A missing key, or a value that is not an object, raises.
                    values = _record_values(obj)
                except (KeyError, TypeError):
                    _raise_manifest_error(lineno, obj)
                # NaN fails the range comparisons; so do ints no float can hold.
                if not (
                    len(obj) == len(values)
                    and tuple(map(type, values)) in _RECORD_TYPE_TUPLES
                    and -_FLOAT_MAX <= values[_DURATION] <= _FLOAT_MAX
                    and -_FLOAT_MAX <= values[_CONFIDENCE] <= _FLOAT_MAX
                    and -_FLOAT_MAX <= values[_OVLR] <= _FLOAT_MAX
                ):
                    _raise_manifest_error(lineno, obj)
                yield lineno, line, values
    except UnicodeDecodeError:
        lineno, fault = non_utf8_line(path)
        raise FormatError(f"manifest {path} line {lineno}: {fault}") from None


def _raise_manifest_error(lineno: int, obj) -> NoReturn:
    """Raise the FormatError for a decoded line the accept check rejected:
    a missing or unexpected key first, then the first bad field in field
    order.  It decides nothing; it only words the error."""
    try:
        DatasetRecord(**obj)
    except TypeError as exc:
        # The message quotes an unexpected key as it is: escape, as repr
        # would, what would break the error's one line.
        text = "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(exc))
        raise FormatError(f"manifest line {lineno}: {text}") from exc
    for name, types in _RECORD_TYPES.items():
        value = obj[name]
        if type(value) not in types or (
            types is _NUMBER_TYPES and not -_FLOAT_MAX <= value <= _FLOAT_MAX
        ):
            raise FormatError(
                f"manifest line {lineno}: {name} must be {_TYPE_WORDS[types]}, got {value!r}"
            )
    raise AssertionError(f"manifest line {lineno} failed the accept check but no field check")


# --- synthetic oracle corpus ------------------------------------------------
#
# The generator law ties the feature matrix deterministically to the
# condition streams: each frame is a unit-norm carrier scaled by
# (1 + arousal), plus a fixed pattern vector scaled by the norm of the
# NV column.  Conditioning faithfulness is then directly measurable as
# the column norm of generated output.

_CARRIER_PERIOD = 64.0


@functools.lru_cache(maxsize=32)
def carrier_matrix(feature_dim: int, T: int) -> np.ndarray:
    """Deterministic unit-norm carrier columns; row 0 is constant so the
    pre-normalization norm never vanishes.

    Cached per shape, since every record of a corpus asks for the same
    matrix; it is read-only because callers share it.
    """
    f = np.arange(feature_dim, dtype=np.float64)[:, None]
    tau = np.arange(T, dtype=np.float64)[None, :]
    raw = np.cos(2.0 * np.pi * (f + 1.0) * tau / _CARRIER_PERIOD + 2.0 * np.pi * f / max(feature_dim, 1))
    raw[0, :] = 1.0
    carrier = raw / np.linalg.norm(raw, axis=0, keepdims=True)
    carrier.flags.writeable = False
    return carrier


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
    # Record files are named by joining strings onto the directory, with
    # no Path object per file.
    root = os.fspath(out)

    records = []
    streams = np.random.SeedSequence(seed).spawn(count)
    for i in range(count):
        rng = np.random.default_rng(streams[i])
        k = kinds[i % len(kinds)]
        emo, nv, feats = synth_condition_oracle(k, T, rng, feature_dim=feature_dim)
        tokens = synth_phonemes(T, rng, n_phonemes=n_phonemes)

        rec_id = f"{kind}_{i:05d}"
        names = (f"{rec_id}.fmat", f"{rec_id}.phn", f"{rec_id}.nv.fmat", f"{rec_id}.emo.fmat")
        store_feature_matrix(feats, os.path.join(root, names[0]))
        store_phonemes(tokens, os.path.join(root, names[1]))
        store_feature_matrix(nv, os.path.join(root, names[2]))
        store_feature_matrix(emo, os.path.join(root, names[3]))

        records.append(
            DatasetRecord(
                id=rec_id,
                features_path=names[0],
                phonemes_path=names[1],
                nv_path=names[2],
                emo_path=names[3],
                duration_s=T / FRAME_RATE,
                emotion_label=_EMOTION_LABELS[int(rng.integers(len(_EMOTION_LABELS)))],
                emotion_confidence=round(float(rng.uniform()), 4),
                ovlr=round(float(rng.uniform(1.0, 5.0)), 4),
                speaker_change=bool(rng.uniform() < 0.1),
            )
        )

    manifest = out / "manifest.jsonl"
    write_manifest(records, manifest)
    return manifest
