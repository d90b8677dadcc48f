"""Command line front end: vocab-build, train, evaluate, caption, attn-export, make-toy.

Exit codes: 0 success, 2 configuration error, 3 data error, including a
non-finite loss or gradient in training.
"""

import argparse
import sys

from .errors import ConfigError, DataError, ShapeError
from .features import AugmentConfig
from .metrics import MetricReport
from .pipeline import (
    TrainConfig,
    caption_file,
    evaluate,
    export_attention,
    load_manifest,
    make_toy_dataset,
    split_entries,
    train,
)
from .text import build_vocab


def _parse_segments(text: str):
    if ":" in text:
        lo, hi = text.split(":", 1)
        return (int(lo), int(hi))
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aacap",
                                     description="attention-based audio captioning")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vocab-build", help="build a vocabulary file from captions")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-count", type=int, default=10)
    p.add_argument("--all-splits", action="store_true",
                   help="count words over every split instead of dev only")

    p = sub.add_parser("train", help="train a captioning model")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--patience", type=int, default=3)
    p.add_argument("--lr-factor", type=float, default=0.5)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-count", type=int, default=10)
    p.add_argument("--enc-hidden", type=int, default=256)
    p.add_argument("--attn-dim", type=int, default=256)
    p.add_argument("--dec-hidden", type=int, default=256)
    p.add_argument("--word-dim", type=int, default=128)
    p.add_argument("--augment", action="store_true",
                   help="apply time/frequency masking to spectrogram inputs")
    p.add_argument("--max-time-mask", type=int, default=192)
    p.add_argument("--max-freq-mask", type=int, default=48)
    p.add_argument("--augment-prob", type=float, default=0.4)

    p = sub.add_parser("evaluate", help="score a manifest split with beam search")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="eval", choices=["dev", "val", "eval"])
    p.add_argument("--beam", type=int, default=3)
    p.add_argument("--no-length-norm", action="store_true")
    p.add_argument("--out", help="write the raw scores as JSON")

    p = sub.add_parser("caption", help="caption one embedding file or wav")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--mode", default="beam", choices=["greedy", "beam"])
    p.add_argument("--beam", type=int, default=3)
    p.add_argument("--no-length-norm", action="store_true")

    p = sub.add_parser("attn-export", help="export greedy-decoding attention weights")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--id", dest="item_id")

    p = sub.add_parser("make-toy", help="generate the synthetic toy dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-items", type=int, default=8)
    p.add_argument("--segments", type=_parse_segments, default=4,
                   help="segments per item, either N or LO:HI")
    p.add_argument("--dim", type=int, default=16)

    return parser


def _print_report(report: MetricReport):
    for key, value in report.to_dict().items():
        print(f"{key} {100.0 * value:.2f}")


def _run(args) -> int:
    if args.command == "vocab-build":
        entries = load_manifest(args.manifest)
        if not args.all_splits:
            entries = split_entries(entries, "dev")
        vocab = build_vocab((c for entry in entries for c in entry.captions),
                            min_count=args.min_count)
        vocab.save(args.out)
        print(f"{len(vocab)} tokens -> {args.out}")
    elif args.command == "train":
        augment = None
        if args.augment:
            augment = AugmentConfig(max_time_mask=args.max_time_mask,
                                    max_freq_mask=args.max_freq_mask,
                                    apply_probability=args.augment_prob)
        config = TrainConfig(batch_size=args.batch_size, initial_lr=args.lr,
                             plateau_patience=args.patience, lr_factor=args.lr_factor,
                             max_epochs=args.epochs, seed=args.seed, augment=augment,
                             vocab_min_count=args.min_count, enc_hidden=args.enc_hidden,
                             attn_dim=args.attn_dim, dec_hidden=args.dec_hidden,
                             word_dim=args.word_dim)
        result = train(config, args.manifest, args.out_dir)
        print(f"checkpoint: {result.checkpoint_path}")
        print(f"log: {result.log_path}")
        print(f"final loss {result.losses[-1]:.6f}, "
              f"best val BLEU-4 {max(result.val_bleu4):.6f}")
    elif args.command == "evaluate":
        report = evaluate(args.checkpoint, args.manifest, split=args.split,
                          beam=args.beam, length_normalize=not args.no_length_norm)
        _print_report(report)
        if args.out:
            report.save(args.out)
    elif args.command == "caption":
        print(caption_file(args.checkpoint, args.input, mode=args.mode,
                           beam=args.beam,
                           length_normalize=not args.no_length_norm))
    elif args.command == "attn-export":
        record = export_attention(args.checkpoint, args.input, args.out,
                                  item_id=args.item_id)
        print(f"{len(record['tokens'])} tokens x {record['frames']} frames -> {args.out}")
    elif args.command == "make-toy":
        manifest = make_toy_dataset(args.out_dir, seed=args.seed, n_items=args.n_items,
                                    segments_per_item=args.segments, dim=args.dim)
        print(str(manifest))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DataError, ShapeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
