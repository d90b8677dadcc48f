"""Waveform to log-mel-spectrogram front end and SpecAugment.

The front end has one analysis setting, the VGGish-style one of common
audio event taggers, held in module constants rather than parameters:
16 kHz audio, a Hann window of WINDOW_SIZE = 512 samples (FFT_BINS = 257),
a hop of HOP = 160 samples (FRAME_HOP = 10 ms), and MEL_BINS = 64 mel
bands over F_MIN to F_MAX, 125 to 7500 Hz. `log_mel` of a Waveform
(what `wav_to_log_mel` runs) takes each STFT chunk straight down to mel
bins, so the full power grid of `stft_power` is never built on that path.

`stft_power`'s chunks are independent, and numpy releases the interpreter
lock inside the rfft and the mel product that take most of a chunk's time
(0.1-0.5 ms each at STFT_CHUNK_FRAMES). So a call splits its chunks in two:
the first half runs on the caller's thread, the second on an
`aacap-features` helper thread (numerics.side_by_side) started and joined
within the call, each half with buffers of its own. With one chunk there is
no helper. Each chunk runs the same operations on either thread, so the
outputs are those of one thread, bit for bit. `resample` stays on one
thread: its blocks' gathers and ufuncs take 2-10 us each, and two threads
made it about 10 % slower, the lock's handoffs costing more than the
overlap saved.
"""

import functools
import math
import wave
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .numerics import side_by_side

TARGET_SAMPLE_RATE = 16000
MIN_SAMPLE_RATE = 1000  # lower rates would expand more than 16x in resample

WINDOW_SIZE = 512
HOP = 160
FFT_BINS = WINDOW_SIZE // 2 + 1
FRAME_HOP = HOP / TARGET_SAMPLE_RATE  # seconds between frame starts
MEL_BINS = 64
F_MIN = 125.0
F_MAX = 7500.0

LOG_OFFSET = 1e-6

# frames per rfft call in stft_power; the buffers of its two threads hold
# what those of one 256-frame chunk did
STFT_CHUNK_FRAMES = 128
RESAMPLE_BLOCK = 8192  # output samples per step of resample, rounded to whole periods
PCM_SCALE = 2.0 ** -15  # 16-bit PCM value to float sample, exactly


@dataclass
class Waveform:
    """Mono audio: float samples in [-1, 1], or int16 PCM as read_wav passes
    it to resample, each value standing for value * PCM_SCALE (resample,
    stft_power and log_mel read it so)."""

    samples: np.ndarray
    sample_rate: int

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass
class Spectrogram:
    values: np.ndarray  # (frames, mel_bins) log energies, FRAME_HOP apart

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
    sample. (j, r) repeats every period = rate_out / gcd(rate_in, rate_out)
    outputs (160 at 44.1 to 16 kHz), with j advanced by rate_in / gcd, so
    one table of (j, r), made once per call, serves every block of about
    RESAMPLE_BLOCK outputs (a whole number of periods, at least one); a
    block adds its start / period * (rate_in / gcd) to the table's j. Each
    block gathers and scales only the inputs it reads, so beside its input
    and output the call holds the table and a few scratch arrays of one
    block each: 64 kB at 44.1 to 16 kHz, or 8 bytes per output of a period
    longer than RESAMPLE_BLOCK (128 kB at 44.099 to 16 kHz). The blocks
    run on the caller's thread; the module docstring says why.
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
    # (j, r) repeats every `period` outputs, with j advanced by rate_in // gcd;
    # each block starts on a period, so one table serves them all.
    g = math.gcd(rate_in, rate_out)
    period = rate_out // g
    span = period * max(1, RESAMPLE_BLOCK // period)
    j_table, r = np.divmod(np.arange(min(span, k_edge), dtype=np.int64) * rate_in, rate_out)
    r = r.astype(np.float64)  # exact: r < rate_out
    j = np.empty_like(j_table)
    for start in range(0, k_edge, span):
        n = min(span, k_edge - start)
        np.add(j_table[:n], start // period * (rate_in // g), out=j[:n])
        y0 = y[j[:n]] * scale
        j[:n] += 1
        step = y[j[:n]] * scale - y0
        step *= r[:n]
        step /= rate_out
        np.add(y0, step, out=out[start:start + n])
    return Waveform(out, target_rate)


def stft_power(w: Waveform, bank: Optional[np.ndarray] = None) -> np.ndarray:
    """Hann-windowed magnitude-squared STFT, shape (frames, FFT_BINS); given a
    filterbank `bank` of shape (k, FFT_BINS), that power times bank.T
    instead, shape (frames, k).

    frames = floor((len - WINDOW_SIZE) / HOP) + 1; no padding is applied.
    int16 samples are PCM: PCM_SCALE is folded into the window, which is
    exact, so the result is that of their float form. Frames are read
    through a strided view of the samples (no copy) and transformed
    STFT_CHUNK_FRAMES at a time, one rfft per chunk. The first half of the
    chunks runs on the caller's thread and the rest on a helper, each
    thread with buffers of its own, allocated once per call. Each chunk's
    power, np.abs then np.square in place (bit-identical to
    np.abs(x) ** 2), lands straight in the grid; with a bank it lands in a
    chunk buffer that one product per chunk takes down to k columns, so the
    full grid is never built. Beside the result each thread holds one
    chunk's windowed frames and spectrum, about 1.05 MB whatever the clip
    length, and with a bank 0.33 MB more for its power and product: 2.1 MB,
    or 2.8 MB with a bank, for the two threads.
    """
    n = len(w.samples)
    if n < WINDOW_SIZE:
        raise DataError(
            f"waveform of {n} samples is shorter than the {WINDOW_SIZE}-sample window")
    n_frames = (n - WINDOW_SIZE) // HOP + 1
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(WINDOW_SIZE) / WINDOW_SIZE)
    if w.samples.dtype.kind == "i" and w.samples.dtype.itemsize == 2:
        window *= PCM_SCALE
    frames = np.lib.stride_tricks.sliding_window_view(w.samples, WINDOW_SIZE)[::HOP]
    chunk = min(STFT_CHUNK_FRAMES, n_frames)
    out = np.empty((n_frames, FFT_BINS if bank is None else bank.shape[0]))

    def run(starts: range):
        windowed = np.empty((chunk, WINDOW_SIZE))
        spectrum = np.empty((chunk, FFT_BINS), dtype=np.complex128)
        if bank is not None:
            # zeros: a thread whose first chunk is a clip's short last one
            # never writes the rest, and its product reads them (see below)
            power, projected = np.zeros((chunk, FFT_BINS)), np.empty((chunk, bank.shape[0]))
        for start in starts:
            stop = min(start + chunk, n_frames)
            rows = stop - start
            np.multiply(frames[start:stop], window, out=windowed[:rows])
            np.fft.rfft(windowed[:rows], axis=-1, out=spectrum[:rows])
            chunk_power = out[start:stop] if bank is None else power[:rows]
            np.abs(spectrum[:rows], out=chunk_power)
            np.square(chunk_power, out=chunk_power)
            if bank is not None:
                # Every product takes all `chunk` rows, a short last chunk's
                # stale ones too: BLAS may sum a row of a short product in
                # another order (OpenBLAS has a small-matrix kernel), and at
                # `chunk` rows the rows matched a one-product grid's on every
                # length tested.
                np.matmul(power, bank.T, out=projected)
                out[start:stop] = projected[:rows]
    starts = range(0, n_frames, chunk)
    if len(starts) < 2:
        run(starts)
    else:
        half = (len(starts) + 1) // 2
        side_by_side([functools.partial(run, starts[:half]),
                      functools.partial(run, starts[half:])], "aacap-features")
    return out


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.cache
def mel_filterbank() -> np.ndarray:
    """Triangular filters on the 2595*log10(1 + f/700) scale, MEL_BINS of them
    spaced evenly in mel over F_MIN-F_MAX, on the STFT's FFT_BINS bins at
    16 kHz: shape (MEL_BINS, FFT_BINS).

    Built once and cached; the returned array is read-only.
    """
    edges = mel_to_hz(np.linspace(hz_to_mel(F_MIN), hz_to_mel(F_MAX), MEL_BINS + 2))
    fft_freqs = np.arange(FFT_BINS) * TARGET_SAMPLE_RATE / (2.0 * (FFT_BINS - 1))
    bank = np.zeros((MEL_BINS, FFT_BINS))
    for i in range(MEL_BINS):
        lo, center, hi = edges[i], edges[i + 1], edges[i + 2]
        rising = (fft_freqs - lo) / (center - lo)
        falling = (hi - fft_freqs) / (hi - center)
        bank[i] = np.maximum(0.0, np.minimum(rising, falling))
    bank.flags.writeable = False
    return bank


def log_mel(source: Union[Waveform, np.ndarray]) -> Spectrogram:
    """ln(x + LOG_OFFSET) of mel energies, shape (frames, MEL_BINS).

    `source` is a 16 kHz Waveform, or an stft_power grid (frames, FFT_BINS)
    taken to come from one; a grid of another width is a ShapeError. A
    Waveform runs the STFT with the mel bank as stft_power's bank, so each
    chunk goes straight into the (frames, MEL_BINS) result and the power
    grid is never built; its values are bit-identical to
    log_mel(stft_power(source)). The offset and the log are taken in place.
    """
    if isinstance(source, Waveform):
        if source.sample_rate != TARGET_SAMPLE_RATE:
            raise DataError(f"log_mel needs {TARGET_SAMPLE_RATE} Hz audio, got "
                            f"{source.sample_rate} Hz; resample it first")
        mel = stft_power(source, bank=mel_filterbank())
    else:
        if source.shape[1] != FFT_BINS:
            raise ShapeError(f"log_mel needs a power grid {FFT_BINS} bins wide (the STFT's), "
                             f"got {source.shape[1]}")
        mel = source @ mel_filterbank().T
    mel += LOG_OFFSET
    return Spectrogram(np.log(mel, out=mel))


def wav_to_log_mel(path) -> Spectrogram:
    """The whole front end: read and resample, then log_mel of the waveform
    (STFT, mel and log chunk by chunk)."""
    return log_mel(read_wav(path))


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

