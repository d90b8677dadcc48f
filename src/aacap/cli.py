"""Command line front end: train, evaluate, caption, attn-export, make-toy.

Exit codes: 0 success, 2 configuration error, including a model or toy
size too large to allocate, 3 data error, including a non-finite loss or
gradient in training.
"""

import argparse
import inspect
import sys

from . import pipeline
from .errors import ConfigError, DataError, ShapeError
from .features import AugmentConfig
from .metrics import MetricReport
from .pipeline import (
    TrainConfig,
    caption_file,
    evaluate,
    export_attention,
    make_toy_dataset,
    train,
)


def _default(func: str, name: str):
    """The default of parameter `name` of pipeline.<func>: each default is
    written once, in the library signature."""
    return inspect.signature(getattr(pipeline, func)).parameters[name].default


def _parse_segments(text: str):
    if ":" in text:
        lo, hi = text.split(":", 1)
        return (int(lo), int(hi))
    return int(text)


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line in one line, as main reports every other
    error; its subcommand parsers are of this class too."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aacap", description="attention-based audio captioning")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a captioning model")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.initial_lr)
    p.add_argument("--patience", type=int, default=TrainConfig.plateau_patience)
    p.add_argument("--lr-factor", type=float, default=TrainConfig.lr_factor)
    p.add_argument("--epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--min-count", type=int, default=TrainConfig.vocab_min_count)
    p.add_argument("--enc-hidden", type=int, default=TrainConfig.enc_hidden)
    p.add_argument("--attn-dim", type=int, default=TrainConfig.attn_dim)
    p.add_argument("--dec-hidden", type=int, default=TrainConfig.dec_hidden)
    p.add_argument("--word-dim", type=int, default=TrainConfig.word_dim)
    p.add_argument("--augment", action="store_true",
                   help="apply time/frequency masking to spectrogram inputs")
    p.add_argument("--max-time-mask", type=int, default=AugmentConfig.max_time_mask)
    p.add_argument("--max-freq-mask", type=int, default=AugmentConfig.max_freq_mask)
    p.add_argument("--augment-prob", type=float, default=AugmentConfig.apply_probability)

    p = sub.add_parser("evaluate", help="score a manifest split with beam search")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default=_default("evaluate", "split"), choices=pipeline.SPLITS)
    p.add_argument("--beam", type=int, default=_default("evaluate", "beam"))
    p.add_argument("--no-length-norm", action="store_true")
    p.add_argument("--out", help="write the raw scores as JSON")

    p = sub.add_parser("caption", help="caption one embedding file or wav")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--beam", type=int, default=_default("caption_file", "beam"))
    p.add_argument("--no-length-norm", action="store_true")

    p = sub.add_parser("attn-export", help="export greedy-decoding attention weights")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--id", dest="item_id")

    p = sub.add_parser("make-toy", help="generate the synthetic toy dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=_default("make_toy_dataset", "seed"))
    p.add_argument("--n-items", type=int, default=_default("make_toy_dataset", "n_items"))
    p.add_argument("--segments", type=_parse_segments,
                   default=_default("make_toy_dataset", "segments_per_item"),
                   help="segments per item, either N or LO:HI")
    p.add_argument("--dim", type=int, default=_default("make_toy_dataset", "dim"))

    return parser


def _print_report(report: MetricReport):
    for key, value in report.to_dict().items():
        print(f"{key} {100.0 * value:.2f}")


def _run(args) -> int:
    if args.command == "train":
        # built with or without --augment, so that a bad masking flag exits 2 either way
        augment = AugmentConfig(max_time_mask=args.max_time_mask,
                                max_freq_mask=args.max_freq_mask,
                                apply_probability=args.augment_prob)
        config = TrainConfig(batch_size=args.batch_size, initial_lr=args.lr,
                             plateau_patience=args.patience, lr_factor=args.lr_factor,
                             max_epochs=args.epochs, seed=args.seed,
                             augment=augment if args.augment else None,
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
        print(caption_file(args.checkpoint, args.input, beam=args.beam,
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
    except MemoryError as exc:  # sizes read from files are checked against them: a flag set it
        print(f"configuration error: a requested size is too large to allocate ({exc})",
              file=sys.stderr)
        return 2
    except (DataError, ShapeError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
