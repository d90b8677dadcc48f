import importlib.util
import itertools
import json
import math
import tracemalloc
import wave
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aacap.errors import ConfigError, DataError, ShapeError
from aacap.features import (
    FRAME_HOP,
    LOG_OFFSET,
    MIN_SAMPLE_RATE,
    RESAMPLE_BLOCK,
    STFT_CHUNK_FRAMES,
    TARGET_SAMPLE_RATE,
    AugmentConfig,
    Waveform,
    log_mel,
    mel_filterbank,
    read_wav,
    resample,
    spec_augment,
    stft_power,
    wav_to_log_mel,
)

REPO = Path(__file__).resolve().parents[1]


def naive_windowed_dft_power(frame: np.ndarray) -> np.ndarray:
    """Direct O(N^2) DFT of a Hann-windowed frame; oracle for stft_power."""
    n = len(frame)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    x = frame * window
    ks = np.arange(n // 2 + 1)
    phases = np.exp(-2j * np.pi * np.outer(ks, np.arange(n)) / n)
    return np.abs(phases @ x) ** 2


def test_stft_matches_naive_dft_oracle():
    rng = np.random.default_rng(7)
    samples = rng.uniform(-1, 1, 512 + 3 * 160)
    power = stft_power(Waveform(samples, 16000))
    assert power.shape == (4, 257)
    for t in range(4):
        oracle = naive_windowed_dft_power(samples[t * 160:t * 160 + 512])
        assert np.allclose(power[t], oracle, atol=1e-9)


def test_stft_bin_centered_sine_concentrates_energy():
    # 20 cycles over the 512-sample window = exactly bin 20. The Hann window
    # leaks a quarter of the amplitude into each neighbour, so the center
    # bin alone carries 2/3 of the energy and bins 19..21 carry ~all of it.
    n = 512
    k = 20
    samples = np.sin(2 * np.pi * k * np.arange(n) / n)
    power = stft_power(Waveform(samples, 16000))
    frame = power[0]
    total = frame.sum()
    assert frame[k] == frame.max()
    assert frame[k] / total > 0.6
    assert frame[k - 1:k + 2].sum() / total > 0.9
    assert frame[:k - 1].sum() + frame[k + 2:].sum() < 0.1 * total


def test_stft_zero_waveform_zero_power():
    power = stft_power(Waveform(np.zeros(1024), 16000))
    assert np.array_equal(power, np.zeros_like(power))


def test_stft_exact_window_gives_one_frame():
    power = stft_power(Waveform(np.ones(512), 16000))
    assert power.shape[0] == 1


def test_stft_too_short_waveform():
    with pytest.raises(DataError):
        stft_power(Waveform(np.zeros(100), 16000))


def per_frame_stft_power(samples: np.ndarray) -> np.ndarray:
    """The 512/160 STFT one frame at a time, one rfft each; stft_power must
    equal it bit for bit."""
    n_frames = (len(samples) - 512) // 160 + 1
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(512) / 512)
    power = np.empty((n_frames, 257))
    for t in range(n_frames):
        frame = samples[t * 160:t * 160 + 512] * window
        power[t] = np.abs(np.fft.rfft(frame)) ** 2
    return power


CHUNK = STFT_CHUNK_FRAMES


@pytest.mark.parametrize("frames, tail", [
    (1, 0),
    (1, 159),
    (CHUNK, 0),
    (CHUNK + 1, 0),
    (3 * CHUNK + 17, 5),
], ids=["one-frame", "one-frame-with-tail", "one-chunk", "one-chunk-plus-one",
        "partial-last-chunk"])
def test_stft_equals_the_per_frame_loop(frames, tail):
    n = 512 + 160 * (frames - 1) + tail
    samples = np.random.default_rng(frames).uniform(-1, 1, n)
    w = Waveform(samples, 16000)
    power = stft_power(w)
    assert power.shape == (frames, 257)
    assert np.array_equal(power, per_frame_stft_power(samples))
    assert not np.shares_memory(power, w.samples)


def test_stft_of_a_strided_input_equals_the_per_frame_loop():
    samples = np.random.default_rng(5).uniform(-1, 1, 2 * (512 + 160 * (CHUNK + 40)))[::2]
    assert not samples.flags.c_contiguous
    power = stft_power(Waveform(samples, 16000))
    assert np.array_equal(power, per_frame_stft_power(samples))


@pytest.mark.parametrize("frames, chunks", [
    (CHUNK - 28, 1),
    (2 * CHUNK, 2),
    (CHUNK + 5, 2),  # the helper's one chunk is short
    (2 * CHUNK + 17, 3),  # the helper's first and only chunk is the short last one
    (4 * CHUNK + 60, 5),
], ids=["one", "two", "two-short-last", "three-short-last", "five"])
@pytest.mark.parametrize("mel", [False, True], ids=["grid", "mel"])
def test_threaded_stft_power_equals_one_thread_bit_for_bit(monkeypatch, frames, chunks, mel):
    """The chunks split over two threads, each with buffers of its own, at
    the default switch interval and at 1 us (which interleaves the threads
    finely), give the bits of the same halves run one after the other on
    the caller's thread. A thread whose first chunk is a clip's short last
    one never writes the rest of its power buffer, and its product still
    reads them. With one chunk no helper starts."""
    import sys

    from aacap import features

    samples = np.random.default_rng(frames).uniform(-1, 1, 512 + 160 * (frames - 1) + 90)
    w = Waveform(samples, TARGET_SAMPLE_RATE)
    call = (lambda: log_mel(w).values) if mel else (lambda: stft_power(w))
    side_by_side, helpers = features.side_by_side, []

    def counted(calls, name):
        helpers.append(name)
        return side_by_side(calls, name)
    monkeypatch.setattr(features, "side_by_side", counted)
    threaded = call()
    assert helpers == ["aacap-features"] * (chunks > 1)
    saved = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        interleaved = call()
    finally:
        sys.setswitchinterval(saved)
    monkeypatch.setattr(features, "side_by_side", lambda calls, name: [c() for c in calls])
    inline = call()
    monkeypatch.undo()
    assert_same_bits(threaded, inline)
    assert_same_bits(interleaved, inline)
    if mel:
        assert_same_bits(threaded, log_mel(stft_power(w)).values)
    else:
        assert np.array_equal(threaded, per_frame_stft_power(samples))


def test_stft_extra_memory_is_bounded_on_a_long_clip():
    # One rfft over all frames of 30 s would hold ~25 MB of windowed frames
    # and spectrum beside the grid; chunks keep that to a few MB.
    w = Waveform(np.random.default_rng(0).uniform(-1, 1, 30 * 16000), 16000)
    tracemalloc.start()
    try:
        power = stft_power(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= power.nbytes + 8 * 2**20


def assert_same_bits(a: np.ndarray, b: np.ndarray):
    assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("frames, tail", [(1, 0), (CHUNK, 37), (CHUNK + 1, 0),
                                          (3 * CHUNK + 17, 159)],
                         ids=["one-frame", "one-chunk", "one-chunk-plus-one",
                              "partial-last-chunk"])
def test_log_mel_of_a_waveform_equals_log_mel_of_its_power_grid(frames, tail):
    n = 512 + 160 * (frames - 1) + tail
    w = Waveform(np.random.default_rng(frames).uniform(-1, 1, n), TARGET_SAMPLE_RATE)
    spec = log_mel(w)
    assert spec.values.shape == (frames, 64) and FRAME_HOP == 160 / TARGET_SAMPLE_RATE
    assert_same_bits(spec.values, log_mel(stft_power(w)).values)


def test_log_mel_of_the_ingest_clips_equals_log_mel_of_their_power_grids(tmp_path):
    for clip in _ingest_clips(tmp_path):
        w = read_wav(clip["path"])
        assert_same_bits(log_mel(w).values, log_mel(stft_power(w)).values)


def test_log_mel_of_a_waveform_never_builds_the_power_grid():
    # The (2997, 257) power grid of 30 s at 16 kHz is 6.2 MB; streaming holds
    # one chunk's frames, spectrum and power beside the (2997, 64) result.
    w = Waveform(np.random.default_rng(0).uniform(-1, 1, 30 * TARGET_SAMPLE_RATE),
                 TARGET_SAMPLE_RATE)
    log_mel(w)  # the filterbank is cached from here on
    tracemalloc.start()
    try:
        spec = log_mel(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - spec.values.nbytes < 3.5 * 2**20 < spec.frames * 257 * 8


def test_stft_and_log_mel_read_int16_samples_as_pcm():
    # int16 samples are PCM, value * 2**-15, as resample reads them; taken as
    # raw values the log-mel would come out ln(2**30) ~ 20.79 too high.
    pcm = np.random.default_rng(2).integers(-32768, 32768, 512 + 160 * (CHUNK + 20),
                                            dtype=np.int16)
    w = Waveform(pcm, TARGET_SAMPLE_RATE)
    as_float = Waveform(pcm / 32768.0, TARGET_SAMPLE_RATE)
    assert_same_bits(stft_power(w), stft_power(as_float))
    assert_same_bits(log_mel(w).values, log_mel(as_float).values)


def test_log_mel_of_a_waveform_at_another_rate_is_a_data_error():
    with pytest.raises(DataError, match="needs 16000 Hz audio, got 44100 Hz"):
        log_mel(Waveform(np.zeros(44100), 44100))


def test_mel_filterbank_is_built_once_and_read_only():
    bank = mel_filterbank()
    assert mel_filterbank() is bank
    with pytest.raises(ValueError, match="read-only"):
        bank[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        bank *= 2.0


def test_log_mel_zero_power_is_constant_floor():
    spec = log_mel(np.zeros((3, 257)))
    assert spec.values.shape == (3, 64)
    assert np.allclose(spec.values, math.log(LOG_OFFSET))


def test_filterbank_rows_positive_and_triangular():
    bank = mel_filterbank()
    assert bank.shape == (64, 257)
    for row in bank:
        assert row.sum() > 0
        support = np.nonzero(row)[0]
        assert np.array_equal(support, np.arange(support[0], support[-1] + 1))
        peak = row.argmax()
        assert np.all(np.diff(row[support[0]:peak + 1]) >= 0)
        assert np.all(np.diff(row[peak:support[-1] + 1]) <= 0)


def test_log_mel_doubling_power_bounded_by_ln2():
    rng = np.random.default_rng(3)
    power = rng.uniform(0.5, 2.0, (4, 257))
    base = log_mel(power).values
    doubled = log_mel(2.0 * power).values
    gain = doubled - base
    assert np.all(gain <= math.log(2) + 1e-12)
    # mel energies here are >> 1e-6 so the offset is negligible
    assert np.allclose(gain, math.log(2), atol=1e-4)


def test_log_mel_monotone_in_power():
    rng = np.random.default_rng(4)
    power = rng.uniform(0.0, 1.0, (5, 257))
    bumped = power + rng.uniform(0.0, 0.5, power.shape)
    lo = log_mel(power).values
    hi = log_mel(bumped).values
    assert np.all(hi >= lo - 1e-12)


def test_log_mel_rejects_a_single_fft_bin():
    # the mel bank spans the STFT's 257 bins; a grid of any other width, one
    # bin wide (no frequency span) included, is a shape error naming both
    for bins in (1, 129, 256, 258):
        with pytest.raises(ShapeError, match=f"257 bins wide .*, got {bins}$"):
            log_mel(np.ones((2, bins)))


def _toy_grid(frames=220, bins=64, seed=0) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(frames, bins))


def test_spec_augment_probability_zero_is_identity():
    grid = _toy_grid()
    out, masks = spec_augment(grid, AugmentConfig(apply_probability=0.0), seed=5)
    assert np.array_equal(out, grid)
    assert masks.time_span is None and masks.freq_span is None


def test_spec_augment_probability_one_masks_one_span_each_axis():
    grid = _toy_grid()
    out, masks = spec_augment(grid, AugmentConfig(apply_probability=1.0), seed=11)
    assert out.shape == grid.shape
    assert masks.time_span is not None and masks.freq_span is not None
    t0, tlen = masks.time_span
    f0, flen = masks.freq_span
    assert 0 <= tlen <= 192
    assert 0 <= flen <= 48
    fill = grid.mean()
    assert np.allclose(out[t0:t0 + tlen, :], fill)
    assert np.allclose(out[:, f0:f0 + flen], fill)
    # nothing outside the two spans changed
    untouched = np.ones(grid.shape, dtype=bool)
    untouched[t0:t0 + tlen, :] = False
    untouched[:, f0:f0 + flen] = False
    assert np.array_equal(out[untouched], grid[untouched])


def test_spec_augment_deterministic_per_seed():
    grid = _toy_grid()
    a, _ = spec_augment(grid, AugmentConfig(), seed=42)
    b, _ = spec_augment(grid, AugmentConfig(), seed=42)
    assert np.array_equal(a, b)


def test_spec_augment_monte_carlo_application_rate():
    grid = _toy_grid(frames=200)
    hits = 0
    for seed in range(10_000):
        _, masks = spec_augment(grid, AugmentConfig(), seed)
        if masks.time_span is not None:
            hits += 1
    assert abs(hits / 10_000 - 0.4) <= 0.02


def _two_block_spec_augment(values, cfg, seed):
    """The time mask and the frequency mask written as two blocks: the
    reference for spec_augment's one loop over axes."""
    rng = np.random.default_rng(seed)
    fill = float(values.mean()) if values.size else 0.0
    values = values.copy()
    frames, bins = values.shape
    time_span = None
    if rng.random() < cfg.apply_probability:
        length = int(rng.integers(0, min(cfg.max_time_mask, frames) + 1))
        start = int(rng.integers(0, frames - length + 1))
        values[start:start + length, :] = fill
        time_span = (start, length)
    freq_span = None
    if rng.random() < cfg.apply_probability:
        length = int(rng.integers(0, min(cfg.max_freq_mask, bins) + 1))
        start = int(rng.integers(0, bins - length + 1))
        values[:, start:start + length] = fill
        freq_span = (start, length)
    return values, (time_span, freq_span)


@settings(max_examples=400, deadline=None)
@given(frames=st.integers(1, 40), bins=st.integers(1, 12),
       max_time=st.integers(0, 50), max_freq=st.integers(0, 15),
       probability=st.sampled_from([0.0, 1.0, 0.4, 0.9]), seed=st.integers(0, 2 ** 32 - 1))
def test_spec_augment_equals_the_two_block_version(frames, bins, max_time, max_freq,
                                                  probability, seed):
    grid = np.random.default_rng(seed).normal(size=(frames, bins))
    cfg = AugmentConfig(max_time_mask=max_time, max_freq_mask=max_freq,
                        apply_probability=probability)
    out, masks = spec_augment(grid, cfg, seed)
    want, spans = _two_block_spec_augment(grid, cfg, seed)
    assert np.array_equal(out, want)
    assert (masks.time_span, masks.freq_span) == spans
    assert not np.shares_memory(out, grid)


def test_spec_augment_equals_the_two_block_version_on_edge_grids():
    # 1-frame and 1-bin grids, masks of max length 0, probabilities 0 and 1
    zero_length = 0
    for frames, bins, max_time, max_freq, probability, seed in itertools.product(
            (1, 2, 7), (1, 3), (0, 1, 5), (0, 2), (0.0, 1.0), range(6)):
        grid = np.random.default_rng(seed).normal(size=(frames, bins))
        cfg = AugmentConfig(max_time_mask=max_time, max_freq_mask=max_freq,
                            apply_probability=probability)
        out, masks = spec_augment(grid, cfg, seed)
        want, spans = _two_block_spec_augment(grid, cfg, seed)
        assert np.array_equal(out, want)
        assert (masks.time_span, masks.freq_span) == spans
        zero_length += sum(span is not None and span[1] == 0 for span in spans)
    assert zero_length > 0


def test_spec_augment_rejects_bad_probability():
    with pytest.raises(ConfigError):
        AugmentConfig(apply_probability=1.5)


def test_wav_round_trip_and_resampling(tmp_path):
    rng = np.random.default_rng(9)
    original = Waveform(rng.uniform(-0.5, 0.5, 8000), 8000)
    path = tmp_path / "tone.wav"
    write_wav(path, original)
    loaded = read_wav(path)
    assert loaded.sample_rate == 16000
    assert len(loaded.samples) == 16000
    # 16-bit quantisation plus linear interpolation: values stay close
    assert np.max(np.abs(loaded.samples[::2] - original.samples)) < 1e-3


def test_read_wav_rejects_stereo(tmp_path):
    import wave as wave_mod

    path = tmp_path / "stereo.wav"
    with wave_mod.open(str(path), "wb") as wav:
        wav.setnchannels(2)
        wav.setsampwidth(2)
        wav.setframerate(16000)
        wav.writeframes(b"\x00\x00" * 64)
    with pytest.raises(DataError):
        read_wav(path)


def write_wav(path, w: Waveform):
    """Write a waveform as mono 16-bit PCM: read_wav's inverse, up to rounding."""
    clipped = np.clip(w.samples, -1.0, 1.0)
    pcm = (clipped * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(w.sample_rate)
        wav.writeframes(pcm.tobytes())


def wav_bytes(rate: int, frames: int = 64) -> bytes:
    """A mono 16-bit PCM WAV file of silence whose header claims `rate`."""
    import struct

    data = b"\x00\x00" * frames
    fmt = struct.pack("<HHIIHH", 1, 1, rate, 2 * rate, 2, 16)
    return (b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVEfmt "
            + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(data)) + data)


def test_read_wav_rejects_zero_sample_rate(tmp_path):
    path = tmp_path / "rate0.wav"
    path.write_bytes(wav_bytes(0))
    with pytest.raises(DataError, match="sample rate 0"):
        read_wav(path)


@pytest.mark.parametrize("rate", [1, MIN_SAMPLE_RATE - 1])
def test_read_wav_rejects_rates_below_the_floor(tmp_path, rate):
    path = tmp_path / f"rate{rate}.wav"
    path.write_bytes(wav_bytes(rate))
    with pytest.raises(DataError, match=f"sample rate {rate} Hz is below"):
        read_wav(path)


def test_read_wav_accepts_the_floor_rate(tmp_path):
    path = tmp_path / "floor.wav"
    path.write_bytes(wav_bytes(MIN_SAMPLE_RATE, frames=64))
    w = read_wav(path)
    assert w.sample_rate == TARGET_SAMPLE_RATE
    assert len(w.samples) == 64 * TARGET_SAMPLE_RATE // MIN_SAMPLE_RATE


def test_read_wav_rejects_garbage(tmp_path):
    path = tmp_path / "noise.wav"
    path.write_bytes(b"not a wav at all")
    with pytest.raises(DataError):
        read_wav(path)


def test_read_wav_with_an_odd_data_byte_count_is_a_data_error(tmp_path):
    path = tmp_path / "odd.wav"
    path.write_bytes(wav_bytes(TARGET_SAMPLE_RATE)[:-1])  # the last sample cut in half
    with pytest.raises(DataError, match="127 bytes, not whole 16-bit samples"):
        read_wav(path)


def test_read_wav_with_a_data_chunk_cut_short_by_whole_samples_is_a_data_error(tmp_path):
    path = tmp_path / "short.wav"
    write_wav(path, Waveform(np.zeros(TARGET_SAMPLE_RATE), TARGET_SAMPLE_RATE))
    path.write_bytes(path.read_bytes()[:-2000])
    with pytest.raises(DataError, match="holds 30000 bytes, .* the 32000 bytes its header"):
        read_wav(path)


def test_read_wav_with_a_chunk_running_past_its_parent_is_a_data_error(tmp_path):
    import struct

    data = bytearray(wav_bytes(TARGET_SAMPLE_RATE))
    data[16:20] = struct.pack("<I", 0x470010)  # the fmt chunk's size, far past the file
    path = tmp_path / "chunk.wav"
    path.write_bytes(bytes(data))
    with pytest.raises(DataError, match="chunk header's size"):
        read_wav(path)


def test_resample_identity_when_rates_match():
    w = Waveform(np.arange(10.0), 16000)
    assert resample(w, 16000) is w


def exact_resample(pcm: np.ndarray, rate_in: int, rate_out: int, ks) -> list[Fraction]:
    """Outputs ks of linear interpolation of pcm * 2**-15 at output times
    k / rate_out, in exact rational arithmetic; past the last input, the last sample."""
    pcm = [int(v) for v in pcm]
    values = []
    for k in ks:
        j, r = divmod(int(k) * rate_in, rate_out)
        if j >= len(pcm) - 1:
            values.append(Fraction(pcm[-1], 2**15))
        else:
            values.append(Fraction(pcm[j] * rate_out + r * (pcm[j + 1] - pcm[j]),
                                   2**15 * rate_out))
    return values


BLOCK = RESAMPLE_BLOCK
RATES = st.one_of(st.sampled_from([1000, 8000, 15999, 16000, 16001, 22050, 44100, 48000,
                                   96000]),
                  st.integers(1000, 96000))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rate_in=RATES, rate_out=RATES,
       length=st.sampled_from([1, 2, 3, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17]),
       of_output=st.booleans(), seed=st.integers(0, 2**16))
def test_resample_of_pcm_is_within_2_52_of_exact_interpolation_and_equals_its_float_form(
        rate_in, rate_out, length, of_output, seed):
    # `of_output` makes `length` the output's length, so the blocks' edges are hit too.
    n_in = max(1, round(length * rate_in / rate_out)) if of_output else length
    rng = np.random.default_rng(seed)
    pcm = rng.integers(-32768, 32768, n_in).astype(np.int16)
    out = resample(Waveform(pcm, rate_in), rate_out)
    assert out.sample_rate == rate_out and out.samples.dtype == np.float64
    assert len(out.samples) == int(round(n_in / rate_in * rate_out))
    as_float = resample(Waveform(pcm / 32768.0, rate_in), rate_out).samples
    assert np.array_equal(out.samples.view(np.uint64), as_float.view(np.uint64))
    n_out = len(out.samples)
    edges = np.arange(0, n_out, BLOCK)[:, None] + np.arange(-2, 3)
    ks = np.unique(np.concatenate([np.arange(5), np.arange(n_out - 5, n_out), edges.ravel(),
                                   rng.integers(0, max(n_out, 1), 300)]))
    ks = ks[(ks >= 0) & (ks < n_out)]
    for k, exact in zip(ks, exact_resample(pcm, rate_in, rate_out, ks)):
        # resample's stated bound on PCM, 0.75 * 2**-52: the division and the sum round
        assert abs(Fraction(out.samples[k]) - exact) <= Fraction(3, 2**54), k


def divmod_resample(pcm: np.ndarray, rate_in: int, rate_out: int) -> np.ndarray:
    """resample's formula with each output's (j, r) from its own int64 divmod."""
    n_out = int(round(len(pcm) / rate_in * rate_out))
    j, r = np.divmod(np.arange(n_out, dtype=np.int64) * rate_in, rate_out)
    past = j >= len(pcm) - 1
    j[past] = len(pcm) - 2
    y0 = pcm[j] * 2.0**-15
    step = pcm[j + 1] * 2.0**-15 - y0
    step *= r
    step /= rate_out
    out = y0 + step
    out[past] = pcm[-1] * 2.0**-15
    return out


@pytest.mark.parametrize("rate_in, rate_out", [
    (44100, 16000), (22050, 16000), (48000, 16000), (8000, 16000), (44099, 16000),
    (16001, 8192)])
def test_resample_equals_the_per_output_divmod_formula(rate_in, rate_out):
    # (j, r) repeats every rate_out / gcd outputs: 160, 320, 1, 2 and 16000
    # outputs here, below and above RESAMPLE_BLOCK, and 8192, equal to it.
    period = rate_out // math.gcd(rate_in, rate_out)
    span = period * max(1, BLOCK // period)
    n_in = round((3 * span + 17) * rate_in / rate_out)
    pcm = np.random.default_rng(rate_in).integers(-32768, 32768, n_in).astype(np.int16)
    out = resample(Waveform(pcm, rate_in), rate_out).samples
    assert len(out) > 3 * span
    assert_same_bits(out, divmod_resample(pcm, rate_in, rate_out))


@pytest.mark.parametrize("rate_in, rate_out", [(44100, 16000), (96000, 44100), (16000, 44100)])
def test_resample_of_a_30_s_clip_is_within_1e_9_of_np_interp(rate_in, rate_out):
    # np.interp rounds each grid time k / rate, so its error grows with the
    # clip; on full-swing noise at 30 s it reads 6.4e-10 at 96 kHz, 2.9e-10 at 44.1 kHz.
    pcm = np.random.default_rng(rate_in).integers(-32768, 32768, 30 * rate_in).astype(np.int16)
    out = resample(Waveform(pcm, rate_in), rate_out).samples
    grid = np.interp(np.arange(len(out)) / rate_out, np.arange(len(pcm)) / rate_in,
                     pcm / 32768.0)
    assert np.max(np.abs(out - grid)) <= 1e-9


@pytest.mark.parametrize("rate_in, rate_out", [(44100, 16000), (8000, 16000), (16000, 44100),
                                               (16000, 16000)])
def test_resample_of_a_non_finite_float_sample_is_a_data_error(rate_in, rate_out):
    samples = np.random.default_rng(3).uniform(-1, 1, 3 * BLOCK)
    for bad, at in itertools.product([np.inf, -np.inf, np.nan], [0, 4321, 3 * BLOCK - 1]):
        broken = samples.copy()
        broken[at] = bad
        with pytest.raises(DataError, match="non-finite"):
            resample(Waveform(broken, rate_in), rate_out)


@pytest.mark.parametrize("samples", [
    np.random.default_rng(4).uniform(-1, 1, 3000).astype(np.float32),
    np.arange(-1500, 1500, dtype=np.int16),
    np.random.default_rng(5).uniform(-1, 1, 6000)[::2],
], ids=["float32", "int16", "strided"])
def test_resample_of_other_sample_layouts_equals_its_float64_form(samples):
    # int16 is PCM: its float64 form is value / 32768
    as_float = samples / 32768.0 if samples.dtype == np.int16 else samples.astype(np.float64)
    out = resample(Waveform(samples, 44100), TARGET_SAMPLE_RATE).samples
    want = resample(Waveform(as_float, 44100), TARGET_SAMPLE_RATE).samples
    assert out.dtype == np.float64
    assert np.array_equal(out.view(np.uint64), want.view(np.uint64))


def test_resample_of_no_samples_is_a_data_error():
    with pytest.raises(DataError, match="no samples"):
        resample(Waveform(np.zeros(0), 44100), TARGET_SAMPLE_RATE)


def test_resample_extra_memory_is_bounded_on_a_long_clip():
    # The two full time grids of 30 s at 44.1 kHz would hold ~14.4 MB beside
    # the output; the blocks keep that to their scratch arrays.
    w = Waveform(np.random.default_rng(0).uniform(-1, 1, 30 * 44100), 44100)
    tracemalloc.start()
    try:
        out = resample(w, TARGET_SAMPLE_RATE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out.samples.nbytes + 2**20


def test_read_wav_extra_memory_is_bounded_on_a_long_clip(tmp_path):
    # Beside its output, read_wav holds the file's 2.6 MB of PCM and the
    # resample's scratch, not a float64 copy of the clip (10.6 MB more).
    path = tmp_path / "long.wav"
    write_wav(path, Waveform(np.random.default_rng(0).uniform(-1, 1, 30 * 44100), 44100))
    tracemalloc.start()
    try:
        out = read_wav(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out.samples) == 30 * TARGET_SAMPLE_RATE
    assert peak - out.samples.nbytes < 4 * 2**20


def test_read_wav_scales_every_16_bit_value_as_a_float_division_would(tmp_path):
    pcm = np.arange(-32768, 32768).astype("<i2")
    path = tmp_path / "all.wav"
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(TARGET_SAMPLE_RATE)
        wav.writeframes(pcm.tobytes())
    samples = read_wav(path).samples
    assert samples.dtype == np.float64
    assert np.array_equal(samples.view(np.uint64),
                          (pcm.astype(np.float64) / 32768.0).view(np.uint64))


def test_ingest_workload_checksums_match_the_benchmark_reference(tmp_path):
    """The benchmark's `ingest` clips, seed 0, each through the front end,
    segment plan and mock embeddings as that workload runs them, against
    perfbench/expected.json at its rtol."""
    from aacap.embeddings import mock_extract, plan_segments

    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  REPO / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    clips = inputs.make_ingest(0, tmp_path)["clips"]
    expected = json.loads((REPO / "perfbench" / "expected.json").read_text())
    rtol = expected["rtol"]["ingest"]
    want = expected["workloads"]["ingest"]["checksums"]
    assert len(clips) == len(want)
    assert {clip["rate"] for clip in clips} == {44100, TARGET_SAMPLE_RATE}
    for clip, (want_mel, want_embedding) in zip(clips, want):
        spectrogram = wav_to_log_mel(clip["path"])
        matrix = mock_extract(spectrogram, plan_segments(clip["duration"]),
                              inputs.FEATURE_DIM, clip["extract_seed"])
        assert float(spectrogram.values.sum()) == pytest.approx(want_mel, rel=rtol, abs=1e-12)
        assert float(matrix.sum()) == pytest.approx(want_embedding, rel=rtol, abs=1e-12)


def _ingest_clips(tmp_path) -> list[dict]:
    """The benchmark's seed-0 `ingest` clips, written under tmp_path."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  REPO / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.make_ingest(0, tmp_path)["clips"]
