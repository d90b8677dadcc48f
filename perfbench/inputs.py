"""Seeded input generation for the benchmark workloads.

Everything here is a pure function of the seed: the same seed writes the
same bytes. The program under test only ever sees the files written here
(manifests, AACE embedding files, WAV clips, a synonym table and a
checkpoint), never the generator's in-memory state.

The shapes follow the Clotho setting of the paper (Drossos et al., 2020):
clips of 15-30 s, five captions of 8-20 words each, a vocabulary of about
4.4k words with a Zipf-like frequency profile. AACE and WAV files are
written by the benchmark's own writers, so a defect in the program's
writers cannot hide in its own inputs.
"""

import json
import math
import struct
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SEGMENT_WINDOW = 0.96  # seconds; plan_segments' default half-overlapped window
CLIP_SECONDS = (15.0, 30.0)
FEATURE_DIM = 128  # F_e of the paper's embeddings
CAPTION_WORDS = (8, 20)
N_CAPTIONS = 5
LEXICON_SIZE = 4400
N_SYNONYM_PAIRS = 300
# The lexicon and synonym table play the part of the language: they are the
# same for every seed, so that seeds vary the corpus and not the language
# (and with it the stemmer's cost per word).
LANGUAGE_SEED = 2020
TARGET_RATE = 16000
SOURCE_RATES = (44100, 16000)

# Sizes of one unit of work per workload. A train epoch is one batch of the
# default size 32; four dev items keep each seed's mean T close to the
# middle of its range.
TRAIN_DEV_ITEMS = 4
TRAIN_VAL_ITEMS = 1
TRAIN_BATCH_SIZE = 32  # TrainConfig's default, which the train workload keeps
EVAL_ITEMS = 12
SCORE_ITEMS = 1000
INGEST_CLIPS = 8

FUNCTION_WORDS = ["a", "the", "is", "of", "and", "in", "with", "while", "on", "an",
                  "are", "by", "as", "from", "then", "some", "into", "at"]
_ONSETS = ["b", "br", "c", "ch", "cl", "d", "dr", "f", "fl", "g", "gr", "h", "j", "k",
           "l", "m", "n", "p", "pl", "r", "s", "sh", "sl", "st", "t", "tr", "v", "w"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ea", "oo"]
_CODAS = ["", "n", "r", "l", "st", "nd", "mp", "ck", "t", "sh"]
# Inflections that make the Porter stemmer's step 1-5 rules fire.
_SUFFIXES = ["", "s", "es", "ed", "ing", "ly", "er", "ness", "ful", "ation",
             "ization", "ment", "ive", "ous", "al", "ance"]
_FORMS_PER_BASE = 8


def stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """n draws from [lo, hi), one uniform draw per equal-width stratum, shuffled.

    Stratifying keeps every seed's mean close to the interval's middle, so
    runs on different seeds do the same amount of work.
    """
    edges = lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n
    return rng.permutation(edges)


def segment_count(duration: float, window: float = SEGMENT_WINDOW) -> int:
    """Segments in a half-overlapped plan of a clip (15 s -> 30, 30 s -> 61)."""
    return int(math.floor((duration - window) / (window / 2.0) + 1e-9)) + 1


@dataclass
class Lexicon:
    words: list[str]  # rank order: most frequent first
    probs: np.ndarray  # Zipf-Mandelbrot weights over words
    siblings: dict[str, list[str]]  # word -> other inflections of its base

    def sample(self, rng: np.random.Generator, n: int) -> list[str]:
        return [self.words[i] for i in rng.choice(len(self.words), size=n, p=self.probs)]


def make_lexicon(size: int = LEXICON_SIZE) -> Lexicon:
    """Function words, then inflected pseudo-English content words, Zipf-ranked."""
    rng = np.random.default_rng(LANGUAGE_SEED)
    content_needed = size - len(FUNCTION_WORDS)
    seen = set(FUNCTION_WORDS)
    content: list[str] = []
    siblings: dict[str, list[str]] = {}
    while len(content) < content_needed:
        base = "".join(_ONSETS[rng.integers(len(_ONSETS))] + _VOWELS[rng.integers(len(_VOWELS))]
                       + _CODAS[rng.integers(len(_CODAS))]
                       for _ in range(int(rng.integers(1, 3))))
        if len(base) < 3 or base in seen:
            continue
        picks = rng.choice(len(_SUFFIXES), size=_FORMS_PER_BASE, replace=False)
        forms = [base + _SUFFIXES[k] for k in picks if base + _SUFFIXES[k] not in seen]
        forms = forms[:content_needed - len(content)]
        for form in forms:
            seen.add(form)
            siblings[form] = [f for f in forms if f != form]
        content.extend(forms)
    content = [content[i] for i in rng.permutation(len(content))]
    words = FUNCTION_WORDS + content
    ranks = np.arange(1, len(words) + 1, dtype=np.float64)
    weights = 1.0 / (ranks + 2.7)
    return Lexicon(words, weights / weights.sum(), siblings)


def make_synonyms(lexicon: Lexicon) -> dict[str, str]:
    """Symmetric synonym pairs among the more frequent content words."""
    rng = np.random.default_rng([LANGUAGE_SEED, 1])
    content = lexicon.words[len(FUNCTION_WORDS):1000]
    pairs = rng.choice(len(content), size=(N_SYNONYM_PAIRS, 2), replace=False)
    synonyms = {}
    for a, b in pairs:
        synonyms[content[a]] = content[b]
        synonyms[content[b]] = content[a]
    return synonyms


def make_captions(rng: np.random.Generator, lexicon: Lexicon, lengths) -> list[str]:
    """Captions of one item: words shared through an item topic, plus Zipf draws."""
    topic = [w for w in lexicon.sample(rng, 24) if w not in FUNCTION_WORDS][:6] or ["noise"]
    captions = []
    for length in lengths:
        words = lexicon.sample(rng, int(length))
        for k in range(len(words)):
            if rng.random() < 0.35:
                words[k] = topic[rng.integers(len(topic))]
        captions.append(" ".join(words))
    return captions


def caption_lengths(rng: np.random.Generator, n: int) -> list[int]:
    lo, hi = CAPTION_WORDS
    return [int(x) for x in stratified(rng, n, lo, hi + 1)]


# ---------------------------------------------------------------------------
# file writers (independent of the program's own)
# ---------------------------------------------------------------------------

def write_aace(path: Path, matrix: np.ndarray):
    """AACE v1: magic, version/T/F as u32 LE, then T*F float32 LE values."""
    t, f = matrix.shape
    with open(path, "wb") as fh:
        fh.write(b"AACE" + struct.pack("<III", 1, t, f))
        fh.write(np.ascontiguousarray(matrix, dtype="<f4").tobytes())


def read_aace(path: Path) -> np.ndarray:
    """Float32 (T, F) matrix of an AACE v1 file."""
    data = Path(path).read_bytes()
    if data[:4] != b"AACE":
        raise ValueError(f"{path}: missing AACE magic")
    version, t, f = struct.unpack("<III", data[4:16])
    if version != 1 or len(data) != 16 + 4 * t * f:
        raise ValueError(f"{path}: bad AACE header or size")
    return np.frombuffer(data, dtype="<f4", offset=16).reshape(t, f)


def write_pcm16(path: Path, samples: np.ndarray, rate: int):
    pcm = (np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(rate)
        wav.writeframes(pcm.tobytes())


def write_manifest(path: Path, records: list[dict]):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def _embedding_items(rng, out_dir: Path, prefix: str, n: int, lexicon: Lexicon,
                     split: str) -> list[dict]:
    (out_dir / "emb").mkdir(parents=True, exist_ok=True)
    durations = stratified(rng, n, *CLIP_SECONDS)
    lengths = caption_lengths(rng, n * N_CAPTIONS)
    records = []
    for i, duration in enumerate(durations):
        t = segment_count(float(duration))
        matrix = (rng.standard_normal((t, FEATURE_DIM)) * 0.5).astype(np.float32)
        rel = f"emb/{prefix}_{i:03d}.aace"
        write_aace(out_dir / rel, matrix)
        caps = make_captions(rng, lexicon, lengths[i * N_CAPTIONS:(i + 1) * N_CAPTIONS])
        records.append({"id": f"{prefix}_{i:03d}", "path": rel, "captions": caps,
                        "split": split, "segments": t})
    return records


# ---------------------------------------------------------------------------
# per-workload generators; each returns a JSON-able description of its inputs
# ---------------------------------------------------------------------------

def make_train(seed: int, out_dir: Path) -> dict:
    rng = np.random.default_rng([seed, 1])
    lexicon = make_lexicon()
    dev = _embedding_items(rng, out_dir, "dev", TRAIN_DEV_ITEMS, lexicon, "dev")
    val = _embedding_items(rng, out_dir, "val", TRAIN_VAL_ITEMS, lexicon, "val")
    records = dev + val
    write_manifest(out_dir / "manifest.jsonl",
                   [{k: r[k] for k in ("id", "path", "captions", "split")} for r in records])
    dev_words = {w for r in dev for c in r["captions"] for w in c.split()}
    return {"manifest": str(out_dir / "manifest.jsonl"),
            "segments": [r["segments"] for r in dev],
            "caption_words": [len(c.split()) for r in dev for c in r["captions"]],
            "samples": sum(len(r["captions"]) for r in dev),
            "batch_size": TRAIN_BATCH_SIZE, "feature_dim": FEATURE_DIM,
            "vocab_size": 4 + len(dev_words)}


# The generated checkpoint must end its captions the way a trained model
# does. A randomly initialised decoder never emits <END>: every beam runs to
# the 20-token cap. So the output layer gets a unigram prior, a wider logit
# spread, and an <END> row fitted (ridge regression on the decoder's own
# greedy state trajectory) to read "how far into the caption" from the
# state. <END> then overtakes the words part-way, at a step that varies
# with the item, as for the length-tracking units of trained recurrent
# decoders (Shi et al., EMNLP 2016).
CHECKPOINT_OUT_SCALE = 12.0
CHECKPOINT_PRIOR_WEIGHT = 0.15
CHECKPOINT_END_GAIN = 14.0
CHECKPOINT_END_OFFSET = -7.7
CHECKPOINT_END_JITTER = 1.5
_RIDGE = 1e-3


def _fit_end_detector(model, matrices, start: int, end: int, max_tokens: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Weights (d_h + 1) of the <END> logit: gain * progress + offset + jitter.

    progress in [0, 1] is read from the decoder state by ridge regression;
    the jitter is a random state direction whose readout has standard
    deviation CHECKPOINT_END_JITTER over the fitted states, so the step at
    which <END> wins differs between items.
    """
    states, progress = [], []
    for matrix in matrices:
        enc = model.encode(matrix)
        h, c = model.initial_state()
        token = start
        for step in range(1, max_tokens):
            logits, h, c, _ = model.decoder_step(token, h, c, enc)
            logits[end] = -np.inf
            token = int(np.argmax(logits))
            states.append(np.append(h, 1.0))
            progress.append(step / (max_tokens - 1))
    x = np.array(states)
    gram = x.T @ x + _RIDGE * np.eye(x.shape[1])
    weights = CHECKPOINT_END_GAIN * np.linalg.solve(gram, x.T @ np.array(progress))
    weights[-1] += CHECKPOINT_END_OFFSET
    jitter = np.append(rng.standard_normal(x.shape[1] - 1), 0.0)
    readout = x @ jitter
    jitter[-1] = -readout.mean()  # centred, so the mean caption length does not drift
    return weights + CHECKPOINT_END_JITTER * jitter / readout.std()


def make_eval(seed: int, out_dir: Path) -> dict:
    from aacap.model import CaptionModel, ModelConfig
    from aacap.text import END, MAX_TOKENS, RESERVED, START

    rng = np.random.default_rng([seed, 2])
    lexicon = make_lexicon()
    records = _embedding_items(rng, out_dir, "eval", EVAL_ITEMS, lexicon, "eval")
    write_manifest(out_dir / "manifest.jsonl",
                   [{k: r[k] for k in ("id", "path", "captions", "split")} for r in records])
    vocab = RESERVED + lexicon.words
    model = CaptionModel(ModelConfig(embed_dim=FEATURE_DIM, vocab_size=len(vocab)),
                         seed=seed)
    params = {group.name: group for group in model.parameters()}
    w_out, b_out = params["dec.w_out"].value, params["dec.b_out"].value
    w_out *= CHECKPOINT_OUT_SCALE
    b_out[len(RESERVED):] = CHECKPOINT_PRIOR_WEIGHT * np.log(lexicon.probs / lexicon.probs.max())
    b_out[:len(RESERVED)] = -10.0
    matrices = [read_aace(out_dir / r["path"]).astype(np.float64) for r in records]
    end_row = _fit_end_detector(model, matrices, START, END, MAX_TOKENS, rng)
    w_out[:, END], b_out[END] = end_row[:-1], end_row[-1]
    model.save(out_dir / "model.ckpt", extra_config={"vocab": vocab})
    return {"manifest": str(out_dir / "manifest.jsonl"),
            "checkpoint": str(out_dir / "model.ckpt"),
            "segments": [r["segments"] for r in records],
            "items": len(records), "vocab_size": len(vocab)}


def make_score(seed: int, out_dir: Path) -> dict:
    """Five references per item, and a candidate made from a sixth caption
    of the item by inflection (stem-stage), synonym and unrelated word edits."""
    rng = np.random.default_rng([seed, 3])
    lexicon = make_lexicon()
    synonyms = make_synonyms(lexicon)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "synonyms.tsv", "w", encoding="utf-8") as fh:
        for word, synonym in synonyms.items():
            if word < synonym:
                fh.write(f"{word}\t{synonym}\n")
    lengths = caption_lengths(rng, SCORE_ITEMS * (N_CAPTIONS + 1))
    references, candidates = [], []
    for i in range(SCORE_ITEMS):
        caps = make_captions(rng, lexicon,
                             lengths[i * (N_CAPTIONS + 1):(i + 1) * (N_CAPTIONS + 1)])
        references.append([c.split() for c in caps[:N_CAPTIONS]])
        cand = caps[N_CAPTIONS].split()
        for k, word in enumerate(cand):
            roll = rng.random()
            if roll < 0.15 and lexicon.siblings.get(word):
                options = lexicon.siblings[word]
                cand[k] = options[rng.integers(len(options))]
            elif roll < 0.25 and word in synonyms:
                cand[k] = synonyms[word]
            elif roll < 0.30:
                cand[k] = lexicon.sample(rng, 1)[0]
        candidates.append(cand)
    corpus = {"candidates": candidates, "references": references}
    with open(out_dir / "corpus.json", "w", encoding="utf-8") as fh:
        json.dump(corpus, fh)
    words = [w for c in candidates for w in c] + [w for refs in references
                                                  for r in refs for w in r]
    return {"corpus": str(out_dir / "corpus.json"),
            "synonyms": str(out_dir / "synonyms.tsv"),
            "items": SCORE_ITEMS, "words": len(words), "distinct_words": len(set(words))}


def make_ingest(seed: int, out_dir: Path) -> dict:
    """Clips of tones and noise bursts, half at 44.1 kHz (resampled) and half at 16 kHz."""
    rng = np.random.default_rng([seed, 4])
    out_dir.mkdir(parents=True, exist_ok=True)
    durations = np.sort(stratified(rng, INGEST_CLIPS, *CLIP_SECONDS))[::-1]
    # Rates alternate down the clips by length, longest first at 44.1 kHz, so
    # both rates see the same length mix and the largest clip (which sets
    # peak memory) is always a resampled one.
    rates = [SOURCE_RATES[i % len(SOURCE_RATES)] for i in range(INGEST_CLIPS)]
    order = rng.permutation(INGEST_CLIPS)
    clips = []
    for i, k in enumerate(order):
        duration, rate = durations[k], rates[k]
        rate = int(rate)
        n = int(round(float(duration) * rate))
        t = np.arange(n) / rate
        audio = 0.05 * rng.standard_normal(n)
        for _ in range(3):
            freq = float(rng.uniform(100.0, 4000.0))
            envelope = 0.5 + 0.5 * np.sin(2 * np.pi * float(rng.uniform(0.1, 2.0)) * t)
            audio += 0.2 * envelope * np.sin(2 * np.pi * freq * t)
        path = out_dir / f"clip_{i:03d}.wav"
        write_pcm16(path, audio, rate)
        clips.append({"path": str(path), "rate": rate, "duration": n / rate,
                      "extract_seed": seed * 1000 + i})
    return {"clips": clips}


GENERATORS = {"train": make_train, "eval": make_eval, "score": make_score,
              "ingest": make_ingest}
