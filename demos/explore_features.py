"""Walk through the audio front end: waveform -> STFT -> log-mel -> SpecAugment.

Run with: python3 demos/explore_features.py
"""

import numpy as np

from aacap.features import (
    WINDOW_SIZE,
    AugmentConfig,
    Waveform,
    log_mel,
    spec_augment,
    stft_power,
)

# --- build a 2-second test signal: a 440 Hz tone that turns into noise -----
rate = 16000
t = np.arange(rate) / rate
tone = 0.5 * np.sin(2 * np.pi * 440.0 * t)
noise = np.random.default_rng(0).uniform(-0.4, 0.4, rate)
wave = Waveform(np.concatenate([tone, noise]), rate)
print(f"waveform: {len(wave.samples)} samples at {wave.sample_rate} Hz "
      f"({wave.duration:.2f} s)")

# --- short-time Fourier transform ------------------------------------------
power = stft_power(wave)
print(f"STFT power grid: {power.shape[0]} frames x {power.shape[1]} bins")

# the tone should dominate one narrow band in the first half
first_half = power[:power.shape[0] // 2]
peak_bin = int(first_half.mean(axis=0).argmax())
peak_hz = peak_bin * rate / WINDOW_SIZE
print(f"strongest bin in the tonal half: {peak_bin} (~{peak_hz:.0f} Hz)")

# --- mel compression --------------------------------------------------------
spec = log_mel(power)
print(f"log-mel spectrogram: {spec.frames} frames x {spec.mel_bins} mel bins, "
      f"values in [{spec.values.min():.2f}, {spec.values.max():.2f}]")

# --- SpecAugment -------------------------------------------------------------
cfg = AugmentConfig(max_time_mask=40, max_freq_mask=12, apply_probability=1.0)
masked, info = spec_augment(spec.values, cfg, seed=7)
print(f"time mask: start={info.time_span[0]} length={info.time_span[1]} frames")
print(f"freq mask: start={info.freq_span[0]} length={info.freq_span[1]} bins")
changed = int((masked != spec.values).sum())
print(f"cells rewritten to the spectrogram mean: {changed}")

# same seed, same masks: augmentation is reproducible
again, _ = spec_augment(spec.values, cfg, seed=7)
print("deterministic per seed:", bool(np.array_equal(masked, again)))
