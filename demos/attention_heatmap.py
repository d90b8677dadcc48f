"""Visualize where the decoder listens while emitting each caption word.

Trains a small model on alignment-friendly toy data (event k in segment k),
exports the greedy-decoding attention trace, and renders it as an ASCII
heatmap: rows are caption words, columns are input segments.

Run with: python3 demos/attention_heatmap.py  (takes a couple of minutes)
"""

import tempfile
from pathlib import Path

import numpy as np

from aacap.pipeline import (
    TrainConfig,
    export_attention,
    load_manifest,
    make_toy_dataset,
    split_entries,
    train,
)

SHADES = " .:-=+*#%@"

with tempfile.TemporaryDirectory() as tmp:
    work = Path(tmp)
    manifest = make_toy_dataset(work / "toy", seed=7, n_items=24,
                                segments_per_item=(3, 6), n_events=6)
    print("training a small model on 24 alignment-probe items...")
    config = TrainConfig(batch_size=8, initial_lr=1e-2, max_epochs=400, seed=0,
                         vocab_min_count=1, enc_hidden=16, attn_dim=32,
                         dec_hidden=12, word_dim=8, plateau_patience=10 ** 6)
    result = train(config, manifest, work / "run")
    print(f"final training loss: {result.losses[-1]:.4f}\n")

    entries = split_entries(load_manifest(manifest), "dev")
    for entry in entries[:4]:
        record = export_attention(result.checkpoint_path, entry.path,
                                  work / "trace.json", item_id=entry.id)
        print(f"{entry.id}: decoded {' '.join(record['tokens'])!r} "
              f"(target {entry.captions[0]!r})")
        print("           " + " ".join(f"seg{t}" for t in range(record["frames"])))
        for word, row in zip(record["tokens"], record["weights"]):
            cells = " ".join(SHADES[min(int(w * len(SHADES)), len(SHADES) - 1)] * 4
                             for w in row)
            peak = int(np.argmax(row))
            print(f"  {word:>8s} {cells}   (peak: seg{peak})")
        print()
