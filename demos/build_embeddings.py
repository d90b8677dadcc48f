"""Segment an audio clip and build its embedding matrix with the mock extractor.

Real deployments run a frozen audio-event tagger offline and store one
embedding row per half-overlapped segment in the "AACE" file format; the
seeded mock extractor stands in for that here.

Run with: python3 demos/build_embeddings.py
"""

import tempfile
from pathlib import Path

import numpy as np

from aacap.embeddings import (
    load_embedding_file,
    mock_extract,
    plan_segments,
    save_embedding_file,
)
from aacap.features import Waveform, log_mel

# --- plan half-overlapped segments over a 3.1 s clip ------------------------
duration = 3.1
plan = plan_segments(duration, window=0.96)
print(f"{duration} s of audio, 0.96 s windows with 50% overlap "
      f"-> {plan.count} segments")
print("segment starts:", [f"{s:.2f}" for s in plan.starts])

# --- features for the clip ---------------------------------------------------
rng = np.random.default_rng(3)
wave = Waveform(rng.uniform(-0.5, 0.5, int(16000 * duration)), 16000)
spec = log_mel(wave)  # STFT, mel and log chunk by chunk; no 257-bin power grid
print(f"spectrogram: {spec.frames} frames x {spec.mel_bins} bins")

# --- mock embedding rows -----------------------------------------------------
matrix = mock_extract(spec, plan, dim=24, seed=11)
print(f"embedding matrix: {matrix.shape[0]} segments x {matrix.shape[1]} dims")
print("row norms:", np.round(np.linalg.norm(matrix, axis=1), 3))

# --- file round trip ---------------------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "clip.aace"
    save_embedding_file(path, matrix)
    loaded = load_embedding_file(path)
    print(f"wrote {path.stat().st_size} bytes; "
          f"round trip exact: {bool(np.array_equal(loaded.astype(np.float32), matrix.astype(np.float32)))}")
