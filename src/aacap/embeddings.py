"""Per-segment embedding matrices: planning, file I/O, and a mock extractor.

An embedding matrix stacks one row per audio segment, ordered by segment
start time; segments are half-overlapped windows of a fixed duration. Real
extractors run offline and write the versioned "AACE" file format below;
the mock extractor stands in for them in tests and toy datasets.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import CorruptionError, DataError, FormatError
from .features import FRAME_HOP, Spectrogram

MAGIC = b"AACE"
FORMAT_VERSION = 1

DEFAULT_SEGMENT_SECONDS = 0.96

_TOL = 1e-9


@dataclass
class SegmentPlan:
    window: float  # seconds
    starts: list[float]  # strictly increasing, spaced window/2 apart

    @property
    def count(self) -> int:
        return len(self.starts)


def plan_segments(duration: float, window: float = DEFAULT_SEGMENT_SECONDS) -> SegmentPlan:
    """Half-overlapped segment starts 0, w/2, w, ... that fit inside the audio."""
    if not (np.isfinite(duration) and np.isfinite(window)):
        raise DataError(f"audio duration {duration} and segment window {window} must be finite")
    if window <= 0:
        raise DataError(f"segment window must be positive, got {window}")
    if duration < window - _TOL:
        raise DataError(
            f"audio of {duration:.3f}s is shorter than one {window:.3f}s segment; "
            "pad the audio to at least the segment length")
    hop = window / 2.0
    # the check above lets the window overrun the audio by _TOL seconds, which
    # is more than _TOL hops for a hop under 1 s: such audio still gets a segment
    last = max(0, int(np.floor((duration - window) / hop + _TOL)))
    return SegmentPlan(window, [k * hop for k in range(last + 1)])


def save_embedding_file(path, matrix: np.ndarray):
    """Write a (T, F) matrix as magic + version/T/F (u32 LE) + float32 LE rows.

    A value that is not finite, or overflows float32, is a DataError raised
    before the file is opened: load_embedding_file would reject the file.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or min(matrix.shape) < 1:
        raise DataError(f"embedding matrix must be 2-D with T, F >= 1, got {matrix.shape}")
    t, f = matrix.shape
    with np.errstate(over="ignore"):
        values = matrix.astype("<f4")
    if not np.isfinite(values).all():
        what = ("non-finite values" if not np.isfinite(matrix).all() else
                f"values beyond float32's range (±{np.finfo(np.float32).max:.4g})")
        raise DataError(f"{t}x{f} embedding matrix has {what}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<III", FORMAT_VERSION, t, f))
        fh.write(values.tobytes())


def load_embedding_file(path) -> np.ndarray:
    """Read an AACE file back as a float64 (T, F) matrix; NaN, inf, or T or F
    of 0 is corrupt."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 16 or data[:4] != MAGIC:
        raise FormatError(f"{path}: missing AACE magic bytes")
    version, t, f = struct.unpack("<III", data[4:16])
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    if t < 1 or f < 1:
        raise CorruptionError(f"{path}: empty {t}x{f} matrix")
    expected = 16 + 4 * t * f
    if len(data) != expected:
        raise CorruptionError(
            f"{path}: expected {expected} bytes for a {t}x{f} matrix, found {len(data)}")
    values = np.frombuffer(data, dtype="<f4", offset=16).astype(np.float64)
    if not np.isfinite(values).all():
        raise CorruptionError(f"{path}: {t}x{f} matrix has non-finite values")
    return values.reshape(t, f)


def mock_extract(s: Spectrogram, plan: SegmentPlan, dim: int, seed: int) -> np.ndarray:
    """Deterministic stand-in for a frozen event-tagger backbone.

    Each segment is summarised by its per-mel-band mean and variance, then
    pushed through a fixed random projection drawn from `seed`. Identical
    segments therefore produce identical rows.

    Segment k spans frames [round(start / FRAME_HOP), round((start + window) / FRAME_HOP)),
    clipped to the spectrogram and at least one frame wide. Segments of one
    width are pooled together: a strided (frames - width + 1, width,
    mel_bins) view of the spectrogram picks their frames in one gather, and
    the mean and variance over its width axis add frames in the order that
    chunk.mean(axis=0) and chunk.var(axis=0) of each segment alone do, so
    the statistics are bit-identical to those. The gather is one copy of
    the segments' frames, about twice the spectrogram. All rows then take
    the projection in one (segments, 2 mel_bins) x (2 mel_bins, dim)
    product, which BLAS may sum in another order than one row at a time.
    """
    spectrogram_duration = s.frames * FRAME_HOP
    last_end = plan.starts[-1] + plan.window if plan.starts else 0.0
    if last_end > spectrogram_duration + plan.window / 2.0 + _TOL:
        raise DataError(
            f"segment plan runs to {last_end:.3f}s but spectrogram covers only "
            f"{spectrogram_duration:.3f}s")
    rng = np.random.default_rng(seed)
    projection = rng.standard_normal((2 * s.mel_bins, dim)) / np.sqrt(2 * s.mel_bins)
    starts = np.asarray(plan.starts, dtype=np.float64)
    lo = np.rint(starts / FRAME_HOP).astype(np.int64)
    hi = np.maximum(lo + 1, np.rint((starts + plan.window) / FRAME_HOP).astype(np.int64))
    lo = np.minimum(lo, s.frames - 1)
    widths = np.minimum(hi, s.frames) - lo
    stats = np.empty((plan.count, 2 * s.mel_bins))
    for width in np.unique(widths).tolist():
        which = np.flatnonzero(widths == width)
        windows = np.lib.stride_tricks.sliding_window_view(s.values, width, axis=0)
        chunks = windows.swapaxes(1, 2)[lo[which]]  # (segments, width, mel_bins)
        mean = np.add.reduce(chunks, axis=1) / width
        chunks -= mean[:, None, :]
        np.square(chunks, out=chunks)
        stats[which, :s.mel_bins] = mean
        stats[which, s.mel_bins:] = np.add.reduce(chunks, axis=1) / width
    return stats @ projection
