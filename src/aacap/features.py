"""Waveform to log-mel-spectrogram front end, SpecAugment, and bucket padding.

The analysis defaults (512-sample window at 16 kHz, 160-sample hop, 64 mel
bins spanning 125-7500 Hz) give a front end compatible with common audio
event taggers; everything is configurable.
"""

import wave
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, ShapeError

TARGET_SAMPLE_RATE = 16000
MIN_SAMPLE_RATE = 1000  # lower rates would expand more than 16x in resample

DEFAULT_WINDOW = 512
DEFAULT_HOP = 160
DEFAULT_MEL_BINS = 64
DEFAULT_FMIN = 125.0
DEFAULT_FMAX = 7500.0

LOG_OFFSET = 1e-6

STFT_CHUNK_FRAMES = 256  # frames per rfft call in stft_power
RESAMPLE_BLOCK = 8192  # output samples per step of resample: 64 kB per scratch array
PCM_SCALE = 2.0 ** -15  # 16-bit PCM value to float sample, exactly


@dataclass
class Waveform:
    """Mono audio: float samples in [-1, 1], or int16 PCM as read_wav passes
    it to resample, each value standing for value * PCM_SCALE."""

    samples: np.ndarray
    sample_rate: int

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass
class Spectrogram:
    values: np.ndarray  # (frames, mel_bins) log energies
    frame_hop: float  # seconds between frame starts

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def mel_bins(self) -> int:
        return self.values.shape[1]


@dataclass
class AugmentConfig:
    max_time_mask: int = 192
    max_freq_mask: int = 48
    apply_probability: float = 0.4

    def __post_init__(self):
        if self.max_time_mask < 0 or self.max_freq_mask < 0:
            raise ConfigError("mask lengths must be non-negative")
        if not 0.0 <= self.apply_probability <= 1.0:
            raise ConfigError(f"apply_probability {self.apply_probability} outside [0, 1]")


@dataclass
class AppliedMasks:
    """Spans actually masked by one spec_augment call (None = mask not drawn)."""

    time_span: Optional[tuple[int, int]]  # (start, length) in frames
    freq_span: Optional[tuple[int, int]]  # (start, length) in bins


def read_wav(path) -> Waveform:
    """Read single-channel 16-bit PCM WAV and resample to 16 kHz if needed."""
    try:
        with wave.open(str(path), "rb") as wav:
            channels = wav.getnchannels()
            width = wav.getsampwidth()
            rate = wav.getframerate()
            frames = wav.getnframes()
            raw = wav.readframes(frames)
    except (wave.Error, EOFError) as exc:
        raise DataError(f"{path}: not a readable WAV file ({exc})") from exc
    except RuntimeError as exc:  # wave's seek past the end of the enclosing chunk
        raise DataError(f"{path}: not a readable WAV file (a chunk header's size "
                        f"runs past its enclosing chunk)") from exc
    if channels != 1:
        raise DataError(f"{path}: expected mono audio, got {channels} channels")
    if width != 2:
        raise DataError(f"{path}: expected 16-bit samples, got {8 * width}-bit")
    if rate < MIN_SAMPLE_RATE:
        raise DataError(f"{path}: sample rate {rate} Hz is below {MIN_SAMPLE_RATE} Hz")
    if len(raw) != frames * width:  # wave reads what the file holds, not what the header says
        raise DataError(f"{path}: data chunk holds {len(raw)} bytes, not whole {8 * width}-bit "
                        f"samples summing to the {frames * width} bytes its header gives")
    if frames == 0:
        raise DataError(f"{path}: has no samples")
    return resample(Waveform(np.frombuffer(raw, dtype="<i2"), rate), TARGET_SAMPLE_RATE)


def resample(w: Waveform, target_rate: int) -> Waveform:
    """Linear-interpolation resampling to target_rate, as float64 samples.

    int16 samples are PCM, read as value * PCM_SCALE (exact); any other
    samples are taken as float64 and must be finite, or it is a DataError.
    Equal rates return the samples as they are, PCM scaled. Otherwise output
    k lies at input position k * rate_in / rate_out: between inputs
    j = k * rate_in // rate_out and j + 1, at phase r / rate_out with
    r = k * rate_in mod rate_out, both exact int64 arithmetic. Its value is
    y[j] + (y[j + 1] - y[j]) * r / rate_out, evaluated left to right. On PCM
    the difference and its product with r are exact, so only the division
    and the sum round: the output is within 0.75 * 2**-52 of the exact
    rational interpolation. Outputs past the last input take the last
    sample. Outputs are filled RESAMPLE_BLOCK at a time, each block
    gathering and scaling only the inputs it reads, so beside its input and
    output the call holds a few 64 kB scratch arrays at any length.
    """
    y = np.asarray(w.samples)
    n_in = len(y)
    if n_in == 0:
        raise DataError("cannot resample a waveform with no samples")
    if y.dtype.kind == "i" and y.dtype.itemsize == 2:
        scale = PCM_SCALE
    else:
        y, scale = y.astype(np.float64, copy=False), 1.0
        if not (np.isfinite(y.min()) and np.isfinite(y.max())):  # a NaN propagates to both
            raise DataError("cannot resample a waveform with non-finite samples")
    if w.sample_rate == target_rate:
        return w if scale == 1.0 else Waveform(y * scale, target_rate)
    rate_in, rate_out = w.sample_rate, target_rate
    n_out = int(round(n_in / rate_in * rate_out))
    out = np.empty(n_out)
    # Outputs from k_edge on have j >= n_in - 1.
    k_edge = min(n_out, -(-(n_in - 1) * rate_out // rate_in))
    out[k_edge:] = y[-1] * scale
    for start in range(0, k_edge, RESAMPLE_BLOCK):
        k = np.arange(start, min(start + RESAMPLE_BLOCK, k_edge), dtype=np.int64)
        j, r = np.divmod(k * rate_in, rate_out)
        y0 = y[j] * scale
        step = y[j + 1] * scale - y0
        step *= r
        step /= rate_out
        np.add(y0, step, out=out[start:start + len(k)])
    return Waveform(out, target_rate)


def stft_power(w: Waveform, window_size: int = DEFAULT_WINDOW,
               hop: int = DEFAULT_HOP) -> np.ndarray:
    """Hann-windowed magnitude-squared STFT, shape (frames, window_size // 2 + 1).

    frames = floor((len - window_size) / hop) + 1; no padding is applied.
    Frames are read through a strided view of the samples (no copy) and
    transformed STFT_CHUNK_FRAMES at a time with one rfft per chunk. Beside
    the returned grid, that holds one chunk's windowed frames and complex
    spectrum: about 3.2 MB at the default 512-sample window, whatever the
    clip length.
    """
    if window_size <= 0 or window_size & (window_size - 1) != 0:
        raise ConfigError(f"window_size {window_size} is not a power of two")
    if hop <= 0 or hop > window_size:
        raise ConfigError(f"hop {hop} must be in 1..window_size ({window_size})")
    n = len(w.samples)
    if n < window_size:
        raise DataError(
            f"waveform of {n} samples is shorter than the {window_size}-sample window")
    n_frames = (n - window_size) // hop + 1
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window_size) / window_size)
    frames = np.lib.stride_tricks.sliding_window_view(w.samples, window_size)[::hop]
    power = np.empty((n_frames, window_size // 2 + 1))
    for start in range(0, n_frames, STFT_CHUNK_FRAMES):
        stop = start + STFT_CHUNK_FRAMES
        spectrum = np.fft.rfft(frames[start:stop] * window, axis=-1)
        power[start:stop] = np.abs(spectrum) ** 2
    return power


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(mel_bins: int, fft_bins: int, sample_rate: int,
                   f_min: float, f_max: float) -> np.ndarray:
    """Triangular filters on the 2595*log10(1 + f/700) scale, shape (mel_bins, fft_bins)."""
    if mel_bins < 2:
        raise ConfigError(f"mel_bins must be >= 2, got {mel_bins}")
    if not 0 <= f_min < f_max <= sample_rate / 2:
        raise ConfigError(
            f"need 0 <= f_min < f_max <= {sample_rate / 2}, got ({f_min}, {f_max})")
    edges = mel_to_hz(np.linspace(hz_to_mel(f_min), hz_to_mel(f_max), mel_bins + 2))
    fft_freqs = np.arange(fft_bins) * sample_rate / (2.0 * (fft_bins - 1))
    bank = np.zeros((mel_bins, fft_bins))
    for i in range(mel_bins):
        lo, center, hi = edges[i], edges[i + 1], edges[i + 2]
        rising = (fft_freqs - lo) / (center - lo)
        falling = (hi - fft_freqs) / (hi - center)
        bank[i] = np.maximum(0.0, np.minimum(rising, falling))
    return bank


def log_mel(power: np.ndarray, mel_bins: int = DEFAULT_MEL_BINS,
            f_min: float = DEFAULT_FMIN, f_max: float = DEFAULT_FMAX) -> Spectrogram:
    """Apply a mel filterbank to an STFT power grid and take ln(x + 1e-6).

    The grid is taken to come from 16 kHz audio at the default hop.
    """
    bank = mel_filterbank(mel_bins, power.shape[1], TARGET_SAMPLE_RATE, f_min, f_max)
    return Spectrogram(np.log(power @ bank.T + LOG_OFFSET),
                       DEFAULT_HOP / TARGET_SAMPLE_RATE)


def wav_to_log_mel(path) -> Spectrogram:
    """Full front end at the default analysis settings: read, resample, STFT, mel, log."""
    return log_mel(stft_power(read_wav(path)))


def spec_augment(values: np.ndarray, cfg: AugmentConfig,
                 seed: int) -> tuple[np.ndarray, AppliedMasks]:
    """Masked copy of a (frames, bins) grid, and the spans it masked.

    One time span and one frequency span are drawn independently. Each mask
    is applied with probability cfg.apply_probability; its length is uniform
    on [0, max] (clamped to the grid) and its start uniform so that it fits.
    Masked cells are set to the grid mean. Deterministic given seed.
    """
    rng = np.random.default_rng(seed)
    fill = float(values.mean()) if values.size else 0.0
    values = values.copy()
    spans = [None, None]  # (time, frequency)
    for axis, max_length in enumerate((cfg.max_time_mask, cfg.max_freq_mask)):
        if rng.random() < cfg.apply_probability:
            size = values.shape[axis]
            length = int(rng.integers(0, min(max_length, size) + 1))
            start = int(rng.integers(0, size - length + 1))
            values.swapaxes(0, axis)[start:start + length] = fill
            spans[axis] = (start, length)
    return values, AppliedMasks(*spans)


def bucket_pad(batch: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Zero-pad each (T_i, F) item along time to the batch max.

    Returns (padded (B, T_max, F), valid lengths (B,)). Attention and the loss
    must ignore frames at or beyond each item's valid length.
    """
    if len(batch) == 0:
        raise DataError("bucket_pad of an empty batch")
    dims = {item.shape[1] for item in batch}
    if len(dims) != 1:
        raise ShapeError(f"mixed feature dims in batch: {sorted(dims)}")
    feature_dim = dims.pop()
    lengths = np.array([item.shape[0] for item in batch], dtype=np.int64)
    t_max = int(lengths.max())
    padded = np.zeros((len(batch), t_max, feature_dim))
    for i, item in enumerate(batch):
        padded[i, :item.shape[0]] = item
    return padded, lengths
