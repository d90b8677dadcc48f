"""Dataset manifests, the training loop, evaluation, and attention export.

A manifest is JSON lines, one record per audio item: id, path (either a
precomputed ".aace" embedding file or a ".wav" for the spectrogram
baseline), a list of captions (normally 5), and a split in {dev, val,
eval}. Training is reproducible bit for bit from (seed, config, manifest)
where numerics.blas_threads finds OpenBLAS, since its loop then runs at one
BLAS thread; with another BLAS it also depends on that library's threading.
evaluate, caption_file and export_attention run their encode and search at
numerics.DECODE_BLAS_THREADS (2, or 1 on one CPU): a beam step's few rows
read all of the output projection, and a second thread shares that read.
Their outputs are bit-identical at 1 and 2 threads. Each of the four puts
the caller's BLAS thread count back when it returns or raises.
"""

import json
import math
import shutil
import warnings
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from .decoding import DEFAULT_BEAM, beam_search, greedy_decode_encoded
from .embeddings import load_embedding_file, save_embedding_file
from .errors import ConfigError, CorruptionError, DataError
from .features import AugmentConfig, spec_augment, wav_to_log_mel
from .metrics import EvalInstance, MetricReport, bleu, evaluate_corpus
from .model import CaptionModel, EncoderOutput, ModelConfig, check_dims
from .numerics import DECODE_BLAS_THREADS, adam_step, blas_threads, check_allocatable
from .text import END, PAD, START, Vocabulary, build_vocab, decode, encode, normalize

SPLITS = ("dev", "val", "eval")
EXPECTED_CAPTIONS = 5
PLATEAU_MIN_IMPROVEMENT = 1e-6  # a validation gain at or below this is no gain
# The largest initial learning rate. Adam moves each weight by about lr per
# step, and at 1.0 one step is already about 10x the Glorot scale at the
# default dims; beyond that a run diverges while PROB_FLOOR keeps its loss
# finite, so nothing else would stop it.
MAX_LR = 1.0

TOY_EVENTS = ["beep", "chime", "drum", "hiss", "knock", "ring", "thud", "whir"]


@dataclass
class ManifestEntry:
    id: str
    path: str
    captions: list[str]
    split: str

    @property
    def is_wav(self) -> bool:
        return _is_wav(self.path)


def _is_wav(path) -> bool:
    return str(path).lower().endswith(".wav")


@dataclass
class TrainConfig:
    batch_size: int = 32
    initial_lr: float = 1e-4
    plateau_patience: int = 3
    lr_factor: float = 0.5
    max_epochs: int = 10
    seed: int = 0
    augment: Optional[AugmentConfig] = None
    vocab_min_count: int = 10
    enc_hidden: int = ModelConfig.enc_hidden
    attn_dim: int = ModelConfig.attn_dim
    dec_hidden: int = ModelConfig.dec_hidden
    word_dim: int = ModelConfig.word_dim

    def __post_init__(self):
        if not 0.0 < self.initial_lr <= MAX_LR:
            raise ConfigError(f"initial_lr must be in (0, {MAX_LR}], got {self.initial_lr}")
        if not 0.0 < self.lr_factor < 1.0:
            raise ConfigError(f"lr_factor must be in (0, 1), got {self.lr_factor}")
        if self.plateau_patience < 1:
            raise ConfigError(f"plateau_patience must be >= 1, got {self.plateau_patience}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.vocab_min_count < 1:
            raise ConfigError(f"vocab_min_count must be >= 1, got {self.vocab_min_count}")
        check_dims(enc_hidden=self.enc_hidden, attn_dim=self.attn_dim,
                   dec_hidden=self.dec_hidden, word_dim=self.word_dim)


@dataclass
class TrainResult:
    checkpoint_path: Path
    log_path: Path
    losses: list[float]
    val_bleu4: list[float]
    lrs: list[float]
    vocab: Vocabulary
    model: CaptionModel


class PlateauScheduler:
    """Scale the rate by `factor` after `patience` consecutive epochs without improvement.

    Improvement means beating the best seen value by more than
    PLATEAU_MIN_IMPROVEMENT; the stale counter resets when the rate drops.
    """

    def __init__(self, initial_lr: float, factor: float, patience: int):
        self.lr = initial_lr
        self.factor = factor
        self.patience = patience
        self.best = -math.inf
        self.stale = 0

    def observe(self, metric: float) -> float:
        """Record one epoch's validation metric; returns the next epoch's lr."""
        if metric > self.best + PLATEAU_MIN_IMPROVEMENT:
            self.best = metric
            self.stale = 0
        else:
            self.stale += 1
            if self.stale >= self.patience:
                self.lr *= self.factor
                self.stale = 0
        return self.lr


# ---------------------------------------------------------------------------
# manifests and features
# ---------------------------------------------------------------------------

def load_manifest(path) -> list[ManifestEntry]:
    entries = []
    base = Path(path).parent
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:  # utf-8-sig drops a byte-order mark, which may open the file only
                line = raw.decode("utf-8-sig" if line_no == 1 else "utf-8").strip()
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}:{line_no}: not UTF-8 text ({exc})") from exc
            if not line:
                continue
            try:
                record = json.loads(line)
                entry = ManifestEntry(str(record["id"]), str(record["path"]),
                                      record["captions"], str(record["split"]))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise DataError(f"{path}:{line_no}: bad manifest record ({exc})") from exc
            if not (isinstance(entry.captions, list)
                    and all(isinstance(c, str) for c in entry.captions)):
                raise DataError(f"{path}:{line_no}: captions must be a list of strings, "
                                f"got {entry.captions!r}")
            if entry.split not in SPLITS:
                raise DataError(f"{path}:{line_no}: split {entry.split!r} not in {SPLITS}")
            if not Path(entry.path).is_absolute():
                entry.path = str(base / entry.path)
            if not Path(entry.path).exists():
                raise DataError(f"{path}:{line_no}: referenced file missing: {entry.path}")
            if len(entry.captions) != EXPECTED_CAPTIONS:
                warnings.warn(
                    f"{entry.id}: {len(entry.captions)} captions (expected "
                    f"{EXPECTED_CAPTIONS})", stacklevel=2)
            entries.append(entry)
    if not entries:
        raise DataError(f"{path}: empty manifest")
    return entries


def save_manifest(path, entries: list[ManifestEntry]):
    with open(path, "w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(json.dumps(asdict(entry)) + "\n")


def split_entries(entries: list[ManifestEntry], split: str) -> list[ManifestEntry]:
    if split not in SPLITS:
        raise ConfigError(f"unknown split {split!r}")
    return [entry for entry in entries if entry.split == split]


def _require_references(entries: list[ManifestEntry], manifest_path):
    """Raises DataError naming the first entry without captions: scoring an
    item needs at least one reference."""
    for entry in entries:
        if not entry.captions:
            raise DataError(f"{manifest_path}: {entry.split} item {entry.id!r} has no "
                            f"captions; scoring it needs at least one reference")


def load_features(path) -> np.ndarray:
    """Input matrix of one file: log-mel frames for wav, rows from an
    embedding file otherwise."""
    if _is_wav(path):
        return wav_to_log_mel(path).values
    return load_embedding_file(path)


def load_input_file(path, expected_dim: int) -> np.ndarray:
    matrix = load_features(path)
    if matrix.shape[1] != expected_dim:
        raise DataError(
            f"{path}: feature dim {matrix.shape[1]} does not match the "
            f"checkpoint's expected {expected_dim}")
    return matrix


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

# Rows times padded frames of one training forward/backward call. A call holds
# about 80 kB per frame at the default dims when no frame is padded (tracemalloc
# peak of forward plus backward at 32 x 64 frames: 164-172 MB, as the two
# threads interleave), and less per padded frame when rows are padded, since
# the encoder keeps only valid frames; so this bounds its memory to ~170 MB
# whatever the clip length.
TRAIN_FRAME_BUDGET = 2048
# Rows times padded frames of one inference encode call. It keeps no backward
# cache and peaks in the second encoder layer at about 21.4 kB per frame at the
# default dims when no frame is padded (tracemalloc): 8 kB one direction's input
# projection, and 4 kB each the layer's packed input, its output and the bwd
# direction's mirrored copy of the input, so ~22 MB a call.
ENCODE_FRAME_BUDGET = 1024


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def encode_in_calls(model: CaptionModel,
                    matrices: Iterable[np.ndarray]) -> Iterator[EncoderOutput]:
    """Each matrix's encoding, in order, as one sequence cut to its frames.

    Consecutive matrices share one batch encode call while its rows times
    padded frames stay within ENCODE_FRAME_BUDGET; a longer matrix gets a
    call of its own. matrices is read lazily, one call's worth ahead.
    """
    def encoded(group):
        enc = model.encode(group)
        return (enc.item(b) for b in range(len(group)))

    group: list[np.ndarray] = []
    for matrix in matrices:
        if group and (len(group) + 1) * max(map(len, group + [matrix])) > ENCODE_FRAME_BUDGET:
            yield from encoded(group)
            group = []
        group.append(matrix)
    if group:
        yield from encoded(group)


def validation_bleu4(model: CaptionModel, vocab: Vocabulary,
                     entries: list[ManifestEntry],
                     matrices: list[np.ndarray]) -> float:
    """BLEU-4 of greedy captions of matrices against their entries' captions."""
    instances = []
    for entry, enc in zip(entries, encode_in_calls(model, matrices)):
        ids, _ = greedy_decode_encoded(model, enc)
        instances.append(EvalInstance(decode(ids, vocab).split(),
                                      [normalize(c) for c in entry.captions]))
    return bleu(instances, 4)


def train(config: TrainConfig, manifest_path, out_dir) -> TrainResult:
    """Teacher-forced training with Adam and the plateau rule.

    Each batch runs as forward and backward calls over its samples' feature
    matrices, one encoder row per sample, with the decoder stepping every
    sample of a call at once. A batch whose rows times padded frames exceed
    TRAIN_FRAME_BUDGET is split into calls of near-equal size within it;
    their gradients add up before the Adam step. The batch loss and gradients
    are the means over its samples. Writes <out_dir>/model.ckpt
    (best validation BLEU-4) and a machine parseable <out_dir>/train.log with
    one epoch per line. The epochs run under numerics.blas_threads(1), which
    puts the caller's BLAS thread count back when train returns or raises.
    """
    entries = load_manifest(manifest_path)
    dev = split_entries(entries, "dev")
    val = split_entries(entries, "val")
    if not dev or not val:
        raise DataError("training needs non-empty dev and val splits")
    if config.augment is not None and not any(entry.is_wav for entry in dev):
        raise ConfigError(
            "--augment masks log-mel frames of .wav items, and the dev split has none")
    _require_references(val, manifest_path)

    vocab = build_vocab((c for entry in dev for c in entry.captions),
                        min_count=config.vocab_min_count)
    targets = [[encode(c, vocab) for c in entry.captions] for entry in dev]
    dev_matrices = [load_features(entry.path) for entry in dev]
    val_matrices = [load_features(entry.path) for entry in val]
    dims = {m.shape[1] for m in dev_matrices + val_matrices}
    if len(dims) != 1:
        raise DataError(f"mixed feature dims across items: {sorted(dims)}")
    feature_dim = dims.pop()

    model_cfg = ModelConfig(embed_dim=feature_dim, vocab_size=len(vocab),
                            enc_hidden=config.enc_hidden, attn_dim=config.attn_dim,
                            dec_hidden=config.dec_hidden, word_dim=config.word_dim)
    model = CaptionModel(model_cfg, seed=config.seed)
    scheduler = PlateauScheduler(config.initial_lr, config.lr_factor,
                                 config.plateau_patience)
    rng = np.random.default_rng(config.seed)
    samples = [(i, j) for i in range(len(dev)) for j in range(len(dev[i].captions))]

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    checkpoint_path = out_dir / "model.ckpt"
    log_path = out_dir / "train.log"
    losses, val_scores, lrs = [], [], []
    best_val = -math.inf
    # one BLAS thread: a product's sums then come in one order whatever the
    # core count, and the loop's own two threads run without BLAS helpers
    with open(log_path, "w", encoding="utf-8") as log, blas_threads(1):
        for epoch in range(1, config.max_epochs + 1):
            lr = scheduler.lr
            order = rng.permutation(len(samples))
            loss_sum = 0.0
            for batch_no, start in enumerate(range(0, len(order), config.batch_size)):
                batch = [samples[k] for k in order[start:start + config.batch_size]]
                matrices = []
                for item_idx, caption_idx in batch:
                    matrix = dev_matrices[item_idx]
                    if config.augment is not None and dev[item_idx].is_wav:
                        matrix, _ = spec_augment(matrix, config.augment, _derived_seed(
                            config.seed, epoch, item_idx, caption_idx))
                    matrices.append(matrix)
                per_call = max(1, TRAIN_FRAME_BUDGET // max(len(m) for m in matrices))
                calls = math.ceil(len(batch) / per_call)
                model.zero_grads()
                batch_loss = 0.0
                for part in np.array_split(np.arange(len(batch)), calls):
                    result = model.forward_teacher_forced(
                        [matrices[k] for k in part],
                        [targets[i][j] for i, j in (batch[k] for k in part)])
                    if not math.isfinite(result.loss):
                        raise FloatingPointError(
                            f"non-finite loss in epoch {epoch} batch {batch_no} "
                            f"(items {[dev[i].id for i, _ in batch]})")
                    model.backward(result.cache)
                    batch_loss += result.loss
                batch_loss /= len(batch)
                for group in model.parameters():
                    group.gradient /= len(batch)
                    adam_step(group, lr)
                loss_sum += batch_loss * len(batch)
            mean_loss = loss_sum / len(samples)
            val_score = validation_bleu4(model, vocab, val, val_matrices)
            log.write(f"epoch={epoch} loss={mean_loss:.6f} "
                      f"val_bleu4={val_score:.6f} lr={lr:.6e}\n")
            losses.append(mean_loss)
            val_scores.append(val_score)
            lrs.append(lr)
            if val_score >= best_val:  # ties keep the most recent model
                best_val = val_score
                model.save(checkpoint_path, extra_config={"vocab": vocab.words})
            scheduler.observe(val_score)
    return TrainResult(checkpoint_path, log_path, losses, val_scores, lrs, vocab, model)


def parse_train_log(path) -> list[dict[str, float]]:
    """Epoch records from a train.log, one dict per line."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = dict(part.split("=", 1) for part in line.split())
            rows.append({"epoch": int(fields["epoch"]), "loss": float(fields["loss"]),
                         "val_bleu4": float(fields["val_bleu4"]),
                         "lr": float(fields["lr"])})
    return rows


# ---------------------------------------------------------------------------
# evaluation and single-item decoding
# ---------------------------------------------------------------------------

def load_checkpoint(path) -> tuple[CaptionModel, Vocabulary]:
    model, config = CaptionModel.load(path)
    if "vocab" not in config:
        raise DataError(f"{path}: checkpoint has no vocabulary block")
    words, size = config["vocab"], model.cfg.vocab_size
    if not (isinstance(words, list) and len(words) == size
            and all(isinstance(w, str) for w in words)):
        raise CorruptionError(f"{path}: vocabulary block is not a list of {size} strings")
    return model, Vocabulary(words)


def evaluate(checkpoint_path, manifest_path, split: str = "eval",
             beam: int = DEFAULT_BEAM, length_normalize: bool = True) -> MetricReport:
    """Beam-search decode every item of a split and score against all captions.

    The items are encoded a batch of consecutive items at a time
    (encode_in_calls) and decoded one by one, in manifest order, at
    DECODE_BLAS_THREADS BLAS threads."""
    model, vocab = load_checkpoint(checkpoint_path)
    entries = split_entries(load_manifest(manifest_path), split)
    if not entries:
        raise DataError(f"{manifest_path}: no entries in split {split!r}")
    _require_references(entries, manifest_path)
    matrices = (load_input_file(entry.path, model.cfg.embed_dim) for entry in entries)
    candidates = []
    references = []
    with blas_threads(DECODE_BLAS_THREADS):
        for entry, enc in zip(entries, encode_in_calls(model, matrices)):
            hyp = beam_search(model, enc, beam=beam, length_normalize=length_normalize)
            candidates.append(decode(hyp.tokens, vocab).split())
            references.append([normalize(c) for c in entry.captions])
    return evaluate_corpus(candidates, references)


def caption_file(checkpoint_path, input_path, beam: int = DEFAULT_BEAM,
                 length_normalize: bool = True) -> str:
    """Caption one embedding file or wav by beam search, at DECODE_BLAS_THREADS
    BLAS threads; greedy decoding is beam=1 with length_normalize=False."""
    model, vocab = load_checkpoint(checkpoint_path)
    matrix = load_input_file(input_path, model.cfg.embed_dim)
    with blas_threads(DECODE_BLAS_THREADS):
        hyp = beam_search(model, model.encode(matrix), beam=beam,
                          length_normalize=length_normalize)
    return decode(hyp.tokens, vocab)


def export_attention(checkpoint_path, input_path, out_path,
                     item_id: Optional[str] = None) -> dict:
    """Greedy decode, at DECODE_BLAS_THREADS BLAS threads, and write the
    per-token attention weights as JSON.

    The trace keeps one weight row per caption token (the <END> step is
    dropped so row k belongs to word k of the caption).
    """
    model, vocab = load_checkpoint(checkpoint_path)
    matrix = load_input_file(input_path, model.cfg.embed_dim)
    with blas_threads(DECODE_BLAS_THREADS):
        ids, trace = greedy_decode_encoded(model, model.encode(matrix))
    tokens = decode(ids, vocab).split()
    weights = [step.weights.tolist() for step, token in zip(trace, ids[1:])
               if token not in (PAD, START, END)]
    record = {"id": item_id or Path(str(input_path)).stem, "tokens": tokens,
              "frames": int(matrix.shape[0]), "weights": weights}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
        fh.write("\n")
    return record


# ---------------------------------------------------------------------------
# synthetic toy dataset
# ---------------------------------------------------------------------------

def make_toy_dataset(out_dir, seed: int = 0, n_items: int = 8,
                     segments_per_item: int | tuple[int, int] = 4, dim: int = 16,
                     n_events: int = len(TOY_EVENTS)) -> Path:
    """Synthetic audio-captioning data where segment k carries event k.

    Each item is a sequence of distinct "events"; the embedding row for
    segment k is a strong one-hot pattern for that event plus small noise,
    and every caption lists the event names in temporal order. That makes
    the set both memorizable (overfit checks) and usable as an attention
    alignment probe. segments_per_item may be an (inclusive) range to give
    items varying lengths. All items land in the dev split; the first two
    double as val and the last one as eval.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if n_items < 2:
        raise ConfigError(f"toy dataset needs n_items >= 2, got {n_items}")
    if not 2 <= n_events <= len(TOY_EVENTS):
        raise ConfigError(f"n_events must be 2..{len(TOY_EVENTS)}, got {n_events}")
    if isinstance(segments_per_item, int):
        seg_lo = seg_hi = segments_per_item
    else:
        seg_lo, seg_hi = segments_per_item
    if not 1 <= seg_lo <= seg_hi <= n_events:
        raise ConfigError(
            f"segments_per_item must fit 1..{n_events}, got {segments_per_item}")
    if dim < n_events:
        raise ConfigError(f"dim must be >= {n_events}, got {dim}")
    check_allocatable(seg_hi * dim, "a toy embedding matrix")
    out_dir = Path(out_dir)
    embeddings = out_dir / "embeddings"
    # the outermost directory this call makes, removed again if the call fails
    made = next((d for d in [*reversed(embeddings.parents), embeddings] if not d.exists()), None)
    embeddings.mkdir(parents=True, exist_ok=True)
    try:
        rng = np.random.default_rng(seed)
        entries = []
        for i in range(n_items):
            segments = int(rng.integers(seg_lo, seg_hi + 1))
            events = rng.choice(n_events, size=segments, replace=False)
            matrix = rng.normal(scale=0.05, size=(segments, dim))
            for t, event in enumerate(events):
                matrix[t, event] += 3.0
            rel_path = f"embeddings/item_{i:03d}.aace"
            save_embedding_file(out_dir / rel_path, matrix)
            caption = " ".join(TOY_EVENTS[e] for e in events)
            entries.append(ManifestEntry(f"toy_{i:03d}", rel_path,
                                         [caption] * EXPECTED_CAPTIONS, "dev"))
        for k in range(min(2, n_items)):
            entries.append(replace(entries[k], id=f"toy_val_{k}", split="val"))
        entries.append(replace(entries[n_items - 1], id="toy_eval_0", split="eval"))
        manifest_path = out_dir / "manifest.jsonl"
        save_manifest(manifest_path, entries)
    except BaseException:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise
    return manifest_path
