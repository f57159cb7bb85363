"""Dataset ingestion, emission, and deterministic synthetic motion generation.

File layout (one file per dataset):

    participant,activity,frame,Head_x,Head_y,Head_z,...,EffectorLToe_z

fixed 87-column CSV, one row per frame, UTF-8, coordinates as decimal text
with 9 significant digits ("%.9g"). Files are written with LF line ends and
read with LF or CRLF ones; no other character ends a line. Rows of a
(participant, activity) sequence are contiguous and frame-ordered. A file
with only the header is an empty dataset.

format_sig9 writes the "%.9g" text of a block of values at a time with
numpy, and read_dataset parses a block of lines at a time with np.loadtxt;
a block it cannot take is parsed line by line, which names the line of the
first defect.

The synthetic generator builds each activity class from a parametric
skeleton: a base posture (pelvis height, torso/head pitch, arm and leg
angles) plus, for the dynamic classes, a sinusoidal gait phase and a
constant per-frame hip translation. Per-joint isotropic Gaussian noise is
added on top. All randomness flows from a 64-bit seed through per-sequence
substreams keyed by (seed, participant, activity), so generation is
reproducible and order-independent.
Each sequence is posed, moved and rounded to the file precision as one
(T, 28, 3) array, bit for bit as a per-frame build with a "%.9g" text round
trip would give.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classifiers.base import check_integers
from .skeleton import (
    DYNAMIC_LABELS,
    N_JOINTS,
    ActivityClass,
    ActivitySequence,
    JointId,
    validate_sequence,
)

PRNG_ALGORITHM = "numpy-pcg64"

# Per-frame hip speed ranges (meters/frame) for the dynamic classes.
# Walking is slowest; texting-while-walking and carrying share a band;
# running is fastest.
DEFAULT_GAIT_SPEED_RANGES: dict[int, tuple[float, float]] = {
    5: (0.018, 0.022),
    6: (0.028, 0.032),
    7: (0.028, 0.032),
    8: (0.034, 0.040),
    9: (0.055, 0.065),
}

_GAIT_PHASE_RATES = {5: 2 * math.pi / 24, 6: 2 * math.pi / 24,
                     7: 2 * math.pi / 24, 8: 2 * math.pi / 24,
                     9: 2 * math.pi / 14}


class DatasetFormatError(ValueError):
    """Raised when a dataset file violates the documented layout."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class FileIngest:
    path: str


@dataclass(frozen=True)
class Synthetic:
    seed: int
    algorithm: str = PRNG_ALGORITHM


@dataclass(frozen=True)
class DatasetManifest:
    """A set of activity sequences plus where they came from."""

    sequences: tuple[ActivitySequence, ...]
    source: FileIngest | Synthetic

    def __post_init__(self):
        object.__setattr__(self, "sequences", tuple(self.sequences))
        keys = [(s.participant_id, s.activity.label) for s in self.sequences]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ValueError(f"duplicate (participant, activity) pairs: {dupes}")

    @property
    def manifest_id(self) -> str:
        if isinstance(self.source, Synthetic):
            return f"synthetic:{self.source.algorithm}:seed={self.source.seed}"
        return f"file:{self.source.path}"

    def __len__(self) -> int:
        return len(self.sequences)


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic motion generator."""

    n_participants: int = 16
    frames_per_sequence: int = 60
    noise_sigma: float = 0.01
    seed: int = 0

    def __post_init__(self):
        check_integers(self, "n_participants")
        check_integers(self, "frames_per_sequence", minimum=51)
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


# ---------------------------------------------------------------------------
# CSV layout
# ---------------------------------------------------------------------------

def csv_columns() -> list[str]:
    """The 87 column names, in canonical order."""
    cols = ["participant", "activity", "frame"]
    for joint in JointId:
        for axis in ("x", "y", "z"):
            cols.append(f"{joint.name}_{axis}")
    return cols


_HEADER = ",".join(csv_columns())
_N_COLS = 3 + 3 * N_JOINTS
_MAX_FRAME_INDEX = np.iinfo(np.int64).max


_POW10 = np.array([float(10**k) for k in range(23)])  # 10**k, exact for k <= 22


def _sig9(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(exponent, mantissa, fast) of every value, as int64, int64 and bool arrays.

    Where fast is True, |v| rounded to 9 significant digits is
    mantissa * 10**(exponent - 8), mantissa in [1e8, 1e9): the digits and
    exponent "%.9g" % v prints. |v| * 10**k, k = 8 - floor(log10|v|), is one
    correctly rounded operation on exact doubles, rounded to an integer r;
    r = 1e9 carries into the next exponent. fast is False, and the mantissa
    a placeholder, for zero, non-finite values, |k| > 21 (so that 10**k is
    exact also after a carry), a scaled value outside [1e8, 1e9) (a misjudged
    log10) and one within 1e-6 of a tie.
    """
    a = np.abs(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.floor(np.log10(a))
        np.subtract(8.0, k, out=k)
        fast = np.abs(k) <= 21  # False for zero, NaN and inf
        k[~fast] = 0.0
        k = k.astype(np.int64)
        scale = _POW10[np.abs(k)]
        scaled = np.where(k >= 0, a * scale, a / scale)
        r = np.rint(scaled)
        fast &= (scaled >= 1e8) & (scaled < 1e9) & (np.abs(scaled - r) < 0.5 - 1e-6)
    r[~fast] = 1e8
    carry = r == 1e9
    r[carry] = 1e8
    return 8 - k + carry, r.astype(np.int64), fast


# format_sig9 lays each value out in 24 bytes, three little-endian uint64 words:
#   byte 0: "-";  bytes 1..5: "0." and the zeros after it, below exponent 0;
#   bytes 6..22: mantissa digit i at 6 + 2i, a "." slot after each of the first 8;
#   byte 23: "," ("\n" after a row's last value).
# That covers "%.9g"'s fixed notation, decimal exponents -4 to 8. The bytes a
# value uses depend only on its sign, exponent and trailing zeros, which
# index two tables: the digits it keeps (trailing zeros after the point are
# stripped) and the other characters. Unused bytes are 0, and are dropped
# from the block's text.
_SIG9_BLOCK = 2048  # values per block: about 150 kB of working memory


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """(pairs, trailing zeros) of n = 0..9999: its 4 digits at the even bytes
    of a word (words 1 and 2), and how many of them end it as zeros."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T  # row n: n's digits
    pairs = np.zeros((10000, 8), np.uint8)
    pairs[:, ::2] = digits + ord("0")
    trailing = np.cumprod(digits[:, ::-1] == 0, axis=1, dtype=np.int8).sum(axis=1, dtype=np.int8)
    return pairs.view("<u8").ravel(), trailing


_PAIRS, _TRAILING_ZEROS4 = _digit_tables()
_FIRST_DIGIT = (np.arange(10, dtype="<u8") + ord("0")) << 48  # byte 6


def _sig9_layouts() -> tuple[np.ndarray, np.ndarray]:
    """(mask, fill): the (2 * 13 * 9, 3) words of each (sign, exponent, trailing zeros)."""
    byte = np.arange(24, dtype=np.int8)
    slot = (byte - 6) // 2  # mantissa digit, or the "." after it
    neg = np.arange(2)[:, None, None, None] == 1
    exponent = np.arange(-4, 9, dtype=np.int8)[:, None, None]
    trailing = np.arange(9, dtype=np.int8)[:, None]
    last = np.maximum(exponent, 8 - trailing)  # the last digit written
    digit = (byte >= 6) & (byte % 2 == 0) & (slot <= last)
    point = (byte >= 6) & (byte % 2 == 1) & (slot == exponent) & (last > exponent)
    prefix = (exponent < 0) & (byte >= 1) & (byte < 2 - exponent)  # "0." and zeros
    char = np.uint8
    fill = (point * char(ord(".")) + prefix * np.where(byte == 2, char(ord(".")), char(ord("0")))
            + ((byte == 0) & neg) * char(ord("-")) + (byte == 23) * char(ord(",")))
    return tuple(np.broadcast_to(t, (2, 13, 9, 24)).astype(np.uint8).reshape(-1, 24).view("<u8")
                 for t in (digit * char(255), fill))


_LAYOUT_MASK, _LAYOUT_FILL = _sig9_layouts()
_ROW_END = np.uint64(ord(",") ^ ord("\n")) << np.uint64(56)  # byte 23: word 2's last


def _format_sig9_block(rows: np.ndarray) -> str:
    """The rows of a 2-D float array as "%.9g" text, "," between values, "\n" after each row."""
    values = rows.ravel()
    exponent, mantissa, fast = _sig9(values)
    fast &= (exponent >= -4) & (exponent <= 8)
    first, rest = np.divmod(mantissa.astype(np.int32), 10**8)
    middle, last = np.divmod(rest, 10**4)
    trailing = _TRAILING_ZEROS4[last] + (last == 0) * _TRAILING_ZEROS4[middle]
    layout = (np.signbit(values) * 13 + exponent + 4) * 9 + trailing
    layout[~fast] = 0
    del exponent, mantissa, rest, trailing  # a block's peak memory is what a writer holds
    text = bytearray(24 * values.size)
    words = np.frombuffer(text, "<u8").reshape(-1, 3)
    _LAYOUT_MASK.take(layout, axis=0, out=words)
    words[:, 0] &= _FIRST_DIGIT.take(first)
    words[:, 1] &= _PAIRS.take(middle)
    words[:, 2] &= _PAIRS.take(last)
    words |= _LAYOUT_FILL.take(layout, axis=0)
    chars = words.view(np.uint8)
    for i in np.flatnonzero(~fast).tolist():
        value = ("%.9g" % values[i]).encode()
        chars[i, :23] = 0
        chars[i, :len(value)] = np.frombuffer(value, np.uint8)
    words.reshape(rows.shape + (3,))[:, -1, 2] ^= _ROW_END
    return text.translate(None, b"\0").decode("ascii")


def format_sig9(rows: np.ndarray) -> Iterator[str]:
    """Each row of a 2-D float array as comma-separated text, 9 significant digits.

    This is the file precision of every CSV the package writes: a value
    that survives it round-trips bit-exactly through float(). The text is
    "%.9g" % v for every value, byte for byte. Blocks of 2048 values are
    formatted at a time with numpy: values in "%.9g"'s fixed notation
    (decimal exponents -4 to 8) from _sig9's 9-digit integer mantissa, the
    rest (zero, non-finite, other exponents, near-ties) by "%.9g" itself.
    Rows are yielded lazily, so a caller that decorates them holds one block.
    """
    rows = np.asarray(rows, dtype=np.float64)
    step = max(1, _SIG9_BLOCK // max(1, rows.shape[1]))
    for start in range(0, len(rows), step):
        yield from _format_sig9_block(rows[start:start + step]).split("\n")[:-1]


def write_lines(path: str | Path, header: str, rows: Iterable[str]) -> None:
    """Write a CSV file: the header line, then one line per row.

    This is the file format of every CSV the package writes: UTF-8, each
    line ending in LF. Rows are consumed lazily, so no caller holds the
    whole file in memory.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        f.writelines(row + "\n" for row in rows)


def write_dataset(manifest: DatasetManifest, path: str | Path) -> None:
    """Serialize a manifest to the documented CSV layout.

    Coordinates are written with 9 significant digits; a value that survives
    that quantization round-trips bit-exactly through read_dataset.
    """
    write_lines(path, _HEADER, (
        f"{seq.participant_id},{seq.activity.label},{i},{coords}"
        for seq in manifest.sequences
        for i, coords in zip(seq.frame_index.tolist(),
                             format_sig9(seq.frames.reshape(len(seq), -1)))
    ))


def read_dataset(path: str | Path) -> DatasetManifest:
    """Parse a dataset file, failing with a located error on any defect.

    The file is UTF-8, and its lines end in LF or CRLF; no other character
    ends a line. It is read in blocks of lines, so a pipe works, and only
    one block of text is held at a time. Every row is parsed first, then
    every sequence must pass validate_sequence; the first defect found
    aborts the read and names the offending line.
    """
    path = Path(path)
    rows = _Rows()
    with open(path, "rb") as f:
        header = f.readline()
        if not header:
            raise DatasetFormatError("empty file: missing header")
        _check_header(_text(header, 1))
        line_no = 2
        while block := f.readlines(_READ_BYTES):
            rows.add(_text(b"".join(block), line_no), line_no)
            line_no += len(block)

    sequences: list[ActivitySequence] = []
    for (participant, label), (coords, frame_index, row_lines) in rows.sequences():
        try:
            seq = ActivitySequence(participant, ActivityClass(label),
                                   coords.reshape(-1, N_JOINTS, 3), frame_index)
        except ValueError as exc:
            raise DatasetFormatError(str(exc), line=int(row_lines[0])) from exc
        violations = validate_sequence(seq).violations
        if violations:
            v = violations[0]
            raise DatasetFormatError(
                f"sequence (participant={participant}, activity={label}): {v.message}",
                line=None if v.position is None else int(row_lines[v.position]),
            )
        sequences.append(seq)
    return DatasetManifest(tuple(sequences), FileIngest(str(path)))


_READ_BYTES = 1 << 16  # text per block of lines that read_dataset parses at once
# Characters that float() and np.loadtxt may read differently: loadtxt
# strips \x1c-\x1f around a number and float() does not, and loadtxt ends a
# line at a CR (numpy 2.4 rejects one inside a line). A block with one of
# them, or with any non-ASCII text, goes through the locator.
_LOADTXT_UNSAFE = "\r\x1c\x1d\x1e\x1f"


def _text(data: bytes, first_line: int) -> str:
    """Lines read from a dataset file, the first at line first_line, as UTF-8
    text with each CRLF as LF and without the final LF."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = first_line + data.count(b"\n", 0, exc.start)
        raise DatasetFormatError(f"not UTF-8: {exc.reason}", line=line) from exc
    if "\r" in text:  # `in` scans much faster than replace
        text = text.replace("\r\n", "\n")
    return text.removesuffix("\n")


def _check_header(line: str) -> None:
    header_fields = line.split(",")
    expected_fields = csv_columns()
    if header_fields != expected_fields:
        if len(header_fields) != len(expected_fields):
            raise DatasetFormatError(
                f"header has {len(header_fields)} columns, expected {_N_COLS}", line=1
            )
        bad = next(
            (got, want)
            for got, want in zip(header_fields, expected_fields)
            if got != want
        )
        raise DatasetFormatError(
            f"unknown column {bad[0]!r} where {bad[1]!r} was expected", line=1
        )


class _Rows:
    """The body rows of a dataset file, parsed block by block in file order.

    A block is parsed at once (_parse), or else line by line (_locate),
    which raises the located error of its first defective line. Each block
    gives its rows' coordinates, frame indices and line numbers, and the
    runs of rows that share a (participant, activity) key. The rows of a
    sequence are collected in pieces, joined into one array of each when
    the next sequence opens.
    """

    def __init__(self):
        self.pieces: dict[tuple[int, int], list[tuple[np.ndarray, ...]]] = {}

    def add(self, text: str, first_line: int) -> None:
        """Parse the LF-separated lines of text, the first of them at line first_line."""
        lines = text.split("\n")
        coords, frames, line_numbers, runs = (self._parse(text, lines, first_line)
                                              or self._locate(lines, first_line))
        ends = [row for row, _ in runs[1:]] + [len(frames)]
        for (lo, key), hi in zip(runs, ends):
            if key not in self.pieces:
                self._join_last()
                self.pieces[key] = []
            self.pieces[key].append((coords[lo:hi], frames[lo:hi], line_numbers[lo:hi]))

    def _join_last(self) -> None:
        if self.pieces:
            pieces = self.pieces[next(reversed(self.pieces))]
            pieces[:] = [tuple(np.concatenate(part) for part in zip(*pieces))]

    def sequences(self) -> Iterator[tuple[tuple[int, int], tuple[np.ndarray, ...]]]:
        """Each sequence's key and (coordinates, frame indices, line numbers) in
        file order, dropped as it is yielded so that a copy replaces it."""
        self._join_last()
        while self.pieces:
            key = next(iter(self.pieces))
            yield key, self.pieces.pop(key)[0]

    def _parse(self, text: str, lines: list[str], first_line: int) -> tuple | None:
        """The block's rows, keys from str.split and int and coordinates from
        one np.loadtxt call; None where the block has a defect or text that
        float() and loadtxt may read differently."""
        if not text.isascii() or any(c in text for c in _LOADTXT_UNSAFE):
            return None
        line_numbers = np.arange(first_line, first_line + len(lines))
        if "" in lines:
            kept = np.flatnonzero([bool(line) for line in lines])
            lines, line_numbers = [lines[i] for i in kept], line_numbers[kept]
        if not lines:
            return None
        try:
            fields = [line.split(",", 3) for line in lines]
            keys = np.array([(int(f[0]), int(f[1]), int(f[2])) for f in fields], dtype=np.int64)
            coords = np.loadtxt([f[3] for f in fields], delimiter=",", comments=None, ndmin=2)
        except (IndexError, ValueError, OverflowError):
            return None
        if coords.shape != (len(lines), _N_COLS - 3) or (keys[:, 2] < 0).any():
            return None
        opens = np.flatnonzero(np.r_[True, (keys[1:, :2] != keys[:-1, :2]).any(axis=1)])
        runs = [(row, (participant, label)) for row, participant, label
                in zip(opens.tolist(), *keys[opens, :2].T.tolist())]
        continues = runs[0][1] == next(reversed(self.pieces), None)
        opened = [key for _, key in runs[continues:]]
        if len(set(opened)) < len(opened) or not self.pieces.keys().isdisjoint(opened):
            return None  # a sequence reopens
        return coords, keys[:, 2], line_numbers, runs

    def _locate(self, lines: list[str], first_line: int) -> tuple:
        """The block's rows parsed one line at a time, raising the located
        error of the first defective line."""
        coords = np.empty((len(lines), _N_COLS - 3))
        frames: list[int] = []
        line_numbers: list[int] = []
        runs: list[tuple[int, tuple[int, int]]] = []
        starts = dict.fromkeys(self.pieces)  # the keys seen, in file order
        for line_no, line in enumerate(lines, start=first_line):
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != _N_COLS:
                raise DatasetFormatError(
                    f"row has {len(fields)} fields, expected {_N_COLS}", line=line_no
                )
            try:
                key = (int(fields[0]), int(fields[1]))
                frame = int(fields[2])
            except ValueError as exc:
                raise DatasetFormatError(f"malformed row key: {exc}", line=line_no) from exc
            try:
                coords[len(frames)] = fields[3:]
            except ValueError as exc:
                raise DatasetFormatError(f"malformed coordinate: {exc}", line=line_no) from exc
            if key not in starts:
                starts[key] = None
            elif key != next(reversed(starts)):
                raise DatasetFormatError(
                    f"rows for (participant={key[0]}, activity={key[1]}) are not contiguous",
                    line=line_no,
                )
            if not 0 <= frame <= _MAX_FRAME_INDEX:
                bound = "be non-negative" if frame < 0 else f"be at most {_MAX_FRAME_INDEX}"
                raise DatasetFormatError(f"frame_index must {bound}, got {frame}", line=line_no)
            if not runs or key != runs[-1][1]:
                runs.append((len(frames), key))
            frames.append(frame)
            line_numbers.append(line_no)
        return (coords[:len(frames)], np.array(frames, dtype=np.int64),
                np.array(line_numbers, dtype=np.int64), runs)


# ---------------------------------------------------------------------------
# Parametric pose model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _PoseParams:
    pelvis_height: float | np.ndarray
    torso_pitch: float | np.ndarray  # rad, positive leans toward +z
    head_pitch: float | np.ndarray  # rad, positive looks down
    r_shoulder: float | np.ndarray  # rad, positive swings the arm forward (+z)
    l_shoulder: float | np.ndarray
    r_elbow: float | np.ndarray  # rad, additional forward bend at the elbow
    l_elbow: float | np.ndarray
    r_hip: float | np.ndarray  # rad, positive swings the leg forward (+z)
    l_hip: float | np.ndarray
    r_knee: float | np.ndarray  # rad, positive pulls the heel backward
    l_knee: float | np.ndarray
    lying: bool = False


def _libm(f, x) -> np.ndarray:
    """math.sin or math.cos per element: libm's bits, which a SIMD np.sin may not give."""
    return np.array([f(v) for v in np.ravel(x).tolist()]).reshape(np.shape(x))


def _vec(x, y, z) -> np.ndarray:
    """Stack three broadcastable coordinates into (..., 3) vectors."""
    return np.stack(np.broadcast_arrays(x, y, z), axis=-1)


def _pitch_matrix(theta) -> np.ndarray:
    c, s = _libm(math.cos, theta), _libm(math.sin, theta)
    zero, one = np.zeros_like(c), np.ones_like(c)
    return np.stack([_vec(one, zero, zero), _vec(zero, c, -s), _vec(zero, s, c)], axis=-2)


def _sagittal(theta) -> np.ndarray:
    """Unit vectors in the y-z plane, theta radians forward of straight down."""
    return _vec(0.0, -_libm(math.cos, theta), _libm(math.sin, theta))


def _build_pose(p: _PoseParams, shape: tuple[int, ...]) -> np.ndarray:
    """The (*shape, 28, 3) joint positions of a posture whose angles broadcast to shape."""
    out = np.zeros(shape + (N_JOINTS, 3))
    pelvis = _vec(0.0, p.pelvis_height, 0.0)
    torso_up = _vec(0.0, _libm(math.cos, p.torso_pitch), _libm(math.sin, p.torso_pitch))

    hip = pelvis
    lower = hip + 0.10 * torso_up
    middle = lower + 0.15 * torso_up
    chest = middle + 0.15 * torso_up
    neck = chest + 0.15 * torso_up
    # A matmul, not elementwise sums: its BLAS kernel fixes the summation order.
    head_pitch = _pitch_matrix(p.torso_pitch + p.head_pitch)
    head_up = head_pitch @ np.array([0.0, 1.0, 0.0])
    head = neck + 0.15 * head_up
    eff_head = head + 0.10 * head_up
    eye = head + head_pitch @ np.array([0.03, 0.02, 0.08])

    out[..., JointId.Hip, :] = hip
    out[..., JointId.LowerSpine, :] = lower
    out[..., JointId.MiddleSpine, :] = middle
    out[..., JointId.Chest, :] = chest
    out[..., JointId.Neck, :] = neck
    out[..., JointId.Head, :] = head
    out[..., JointId.EffectorHead, :] = eff_head
    out[..., JointId.REye, :] = eye

    com = hip + 0.35 * (chest - hip)
    out[..., JointId.CenterOfMass, :] = com
    out[..., JointId.CenterOfMassGroundProjection, 0::2] = com[..., 0::2]

    for side, shoulder_pitch, elbow_bend, clav_id, sh_id, fore_id, hand_id in (
        (+1.0, p.r_shoulder, p.r_elbow, JointId.RClavicle, JointId.RShoulder,
         JointId.RForearm, JointId.RHand),
        (-1.0, p.l_shoulder, p.l_elbow, JointId.LClavicle, JointId.LShoulder,
         JointId.LForearm, JointId.LHand),
    ):
        shoulder = neck + np.array([side * 0.19, -0.05, 0.0])
        elbow = shoulder + 0.28 * _sagittal(shoulder_pitch)
        out[..., clav_id, :] = neck + np.array([side * 0.07, -0.02, 0.0])
        out[..., sh_id, :] = shoulder
        out[..., fore_id, :] = elbow
        out[..., hand_id, :] = elbow + 0.26 * _sagittal(shoulder_pitch + elbow_bend)

    for side, hip_pitch, knee_bend, thigh_id, shin_id, foot_id, toe_id, eff_id in (
        (+1.0, p.r_hip, p.r_knee, JointId.RThigh, JointId.RShin, JointId.RFoot,
         JointId.RToe, JointId.EffectorRToe),
        (-1.0, p.l_hip, p.l_knee, JointId.LThigh, JointId.LShin, JointId.LFoot,
         JointId.LToe, JointId.EffectorLToe),
    ):
        thigh = pelvis + np.array([side * 0.09, -0.02, 0.0])
        knee = thigh + 0.44 * _sagittal(hip_pitch)
        ankle = knee + 0.42 * _sagittal(hip_pitch - knee_bend)
        toe = ankle + np.array([0.0, -0.05, 0.13])
        out[..., thigh_id, :] = thigh
        out[..., shin_id, :] = knee
        out[..., foot_id, :] = ankle
        out[..., toe_id, :] = toe
        out[..., eff_id, :] = toe + np.array([0.0, -0.01, 0.05])

    if p.lying:
        # Rotate upright pose onto a couch surface: body axis along +x.
        rotated = np.empty_like(out)
        rotated[..., 0] = out[..., 1]
        rotated[..., 1] = 0.45 - out[..., 0]
        rotated[..., 2] = out[..., 2]
        out = rotated
    return out


def _swing(base: float, amplitude: float, phase: np.ndarray) -> np.ndarray:
    return base + amplitude * np.maximum(0.0, _libm(math.sin, phase))


def class_template(label: int, phase: float | np.ndarray = 0.0) -> np.ndarray:
    """The noiseless posture of an activity class at one or more gait phases.

    A scalar phase gives one (28, 3) pose; a 1-D array of T phases gives the
    (T, 28, 3) poses in one pass, each bitwise equal to the scalar call.
    Stationary classes ignore phase. This is the template the generator
    scales, rotates, and translates per sequence.
    """
    phase = np.asarray(phase, dtype=np.float64)
    s = _libm(math.sin, phase)
    if label == 1:  # sitting on office chair, hands at keyboard
        p = _PoseParams(0.55, -0.08, 0.05, 0.55, 0.55, 0.95, 0.95,
                        1.45, 1.45, 1.40, 1.40)
    elif label == 2:  # standing, phone held high in the right hand
        p = _PoseParams(1.00, 0.03, 0.62, 0.62, 0.30, 1.65, 0.80,
                        0.00, 0.00, 0.03, 0.03)
    elif label == 3:  # sitting on a stool, leaning forward, hands on thighs
        p = _PoseParams(0.70, 0.18, 0.15, 0.35, 0.35, 0.55, 0.55,
                        1.10, 1.10, 1.45, 1.45)
    elif label == 4:  # lying on a couch, arms folded
        p = _PoseParams(0.0, 0.0, 0.10, 0.90, 0.90, 1.90, 1.90,
                        0.35, 0.35, 0.50, 0.50, lying=True)
    elif label == 5:  # walking, arms counter-swinging
        p = _PoseParams(1.00, 0.06, 0.0, -0.40 * s, 0.40 * s, 0.20, 0.20,
                        0.45 * s, -0.45 * s,
                        _swing(0.10, 0.45, phase), _swing(0.10, 0.45, phase + math.pi))
    elif label == 6:  # walking, both hands texting at chest height
        p = _PoseParams(1.00, 0.03, 0.62, 0.40, 0.40, 1.55, 1.55,
                        0.45 * s, -0.45 * s,
                        _swing(0.10, 0.45, phase), _swing(0.10, 0.45, phase + math.pi))
    elif label == 7:  # carrying a box in front, arms nearly straight
        p = _PoseParams(1.00, -0.08, 0.0, 1.05, 1.05, 0.25, 0.25,
                        0.32 * s, -0.32 * s,
                        _swing(0.10, 0.32, phase), _swing(0.10, 0.32, phase + math.pi))
    elif label == 8:  # pulling an object trailing behind the right arm
        p = _PoseParams(1.00, 0.30, 0.05, -0.75, 0.25 * s, 0.15, 0.25,
                        0.38 * s, -0.38 * s,
                        _swing(0.10, 0.40, phase), _swing(0.10, 0.40, phase + math.pi))
    elif label == 9:  # running: long stride, high heels, bent arms
        p = _PoseParams(0.98 + 0.02 * _libm(math.sin, 2 * phase), 0.12, 0.0,
                        -0.55 * s, 0.55 * s, 1.15, 1.15,
                        0.80 * s, -0.80 * s,
                        _swing(0.15, 0.85, phase), _swing(0.15, 0.85, phase + math.pi))
    else:
        raise ValueError(f"activity label must be in 1..9, got {label}")
    return _build_pose(p, phase.shape)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _quantize_sig9(a: np.ndarray) -> np.ndarray:
    """Round every value to 9 significant decimal digits (the file precision).

    Bitwise float("%.9g" % v), without text: from _sig9's exponent and
    mantissa m, k = 8 - exponent, m / 10**k (or m * 10**-k) is one correctly
    rounded operation on exact doubles. The values _sig9 leaves to the text
    go through it.
    """
    a = np.asarray(a, dtype=np.float64)
    exponent, mantissa, fast = _sig9(a)
    k = 8 - exponent
    scale = _POW10[np.abs(k)]
    out = np.copysign(np.where(k >= 0, mantissa / scale, mantissa * scale), a)
    if not fast.all():
        out[~fast] = [float("%.9g" % v) for v in a[~fast].tolist()]
    return out


def _generate_sequence(spec: SynthSpec, participant: int, label: int) -> ActivitySequence:
    rng = np.random.default_rng([spec.seed, participant, label])
    scale = rng.uniform(0.92, 1.08)
    yaw = rng.uniform(-0.35, 0.35)
    home = np.array([rng.uniform(-1.0, 1.0), 0.0, rng.uniform(2.0, 4.0)])
    phase0 = rng.uniform(0.0, 2 * math.pi)
    speed = rng.uniform(*DEFAULT_GAIT_SPEED_RANGES[label]) if label in DYNAMIC_LABELS else 0.0
    rate = _GAIT_PHASE_RATES.get(label, 0.0)

    n = spec.frames_per_sequence
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    heading = rot @ np.array([0.0, 0.0, 1.0])
    noise = rng.normal(0.0, spec.noise_sigma, size=(n, N_JOINTS, 3))

    t = np.arange(n)
    poses = class_template(label, phase0 + rate * t)
    walk = ((t - (n - 1) / 2.0) * speed)[:, None, None] * heading
    positions = (scale * poses) @ rot.T + home + walk
    positions = _quantize_sig9(positions + noise)
    if not np.isfinite(positions).all():
        raise ValueError(f"noise_sigma={spec.noise_sigma!r} gives non-finite coordinates "
                         f"(participant {participant}, activity {label})")
    return ActivitySequence(participant, ActivityClass(label), positions, t)


def generate_synthetic(spec: SynthSpec) -> DatasetManifest:
    """Generate a deterministic synthetic dataset from a SynthSpec.

    Every (participant, activity) pair gets its own sequence. Coordinates
    are pre-quantized to the file precision so the manifest round-trips
    bit-exactly through write_dataset / read_dataset.
    """
    sequences = [
        _generate_sequence(spec, participant, label)
        for participant in range(1, spec.n_participants + 1)
        for label in range(1, 10)
    ]
    return DatasetManifest(tuple(sequences), Synthetic(spec.seed))


def generate_depth_pair(
    seed: int,
    n_participants: int = 8,
    frames_per_sequence: int = 60,
    noise_sigma: float = 0.01,
    depth_offset: float = 0.35,
) -> DatasetManifest:
    """Diagnostic two-class fixture whose classes differ only in depth.

    Both classes share the standing posture; class 2 shifts the hands and
    forearms by depth_offset along z. The x and y coordinates are therefore
    class-independent, so any classifier restricted to a 2D (x, y)
    projection sees no signal while the 3D features separate cleanly.
    The inputs other than depth_offset follow the SynthSpec rules.
    """
    SynthSpec(n_participants, frames_per_sequence, noise_sigma, seed)
    if not math.isfinite(depth_offset):
        raise ValueError(f"depth_offset must be finite, got {depth_offset!r}")
    base = class_template(2, 0.0)
    shifted = base.copy()
    for j in (JointId.RForearm, JointId.RHand, JointId.LForearm, JointId.LHand):
        shifted[j, 2] += depth_offset

    sequences = []
    for participant in range(1, n_participants + 1):
        for label, template in ((1, base), (2, shifted)):
            rng = np.random.default_rng([seed, participant, label])
            home = np.array([rng.uniform(-1.0, 1.0), 0.0, rng.uniform(2.0, 4.0)])
            noise = rng.normal(0.0, noise_sigma, size=(frames_per_sequence, N_JOINTS, 3))
            positions = _quantize_sig9(template[None, :, :] + home + noise)
            sequences.append(ActivitySequence(participant, ActivityClass(label), positions,
                                              np.arange(frames_per_sequence)))
    return DatasetManifest(tuple(sequences), Synthetic(seed))
