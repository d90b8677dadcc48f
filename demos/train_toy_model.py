"""Train on the synthetic toy dataset until it is memorized, then decode.

Takes about a minute on one CPU core.

Run with: python3 demos/train_toy_model.py
"""

import tempfile
from pathlib import Path

from aacap.pipeline import (
    TrainConfig,
    caption_file,
    evaluate,
    load_manifest,
    make_toy_dataset,
    split_entries,
    train,
)

with tempfile.TemporaryDirectory() as tmp:
    work = Path(tmp)
    manifest = make_toy_dataset(work / "toy", seed=0, n_items=8)
    entries = split_entries(load_manifest(manifest), "dev")
    print(f"toy dataset: {len(entries)} items, e.g. {entries[0].captions[0]!r}")

    # small model, aggressive rate, plateau rule effectively off: the goal here
    # is memorization, not generalization
    config = TrainConfig(batch_size=4, initial_lr=1e-2, max_epochs=150, seed=0,
                         vocab_min_count=1, enc_hidden=32, attn_dim=32,
                         dec_hidden=32, word_dim=16, plateau_patience=1000)
    result = train(config, manifest, work / "run")
    print(f"trained {config.max_epochs} epochs; "
          f"loss {result.losses[0]:.3f} -> {result.losses[-1]:.3f}")

    # --- decode every training item -----------------------------------------
    print("\ngreedy captions vs targets:")
    for entry in entries:
        decoded = caption_file(result.checkpoint_path, entry.path, beam=1,
                               length_normalize=False)
        marker = "==" if decoded == entry.captions[0] else "!="
        print(f"  {decoded!r} {marker} {entry.captions[0]!r}")

    report = evaluate(result.checkpoint_path, manifest, split="dev", beam=3)
    print("\ntraining-set scores (x100):")
    for key, value in report.to_dict().items():
        print(f"  {key:8s} {100 * value:6.2f}")
