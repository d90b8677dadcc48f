"""Vocabulary construction and caption tokenization.

Captions are lowercased, punctuation-stripped (apostrophes kept), and
whitespace-split. Encoded sequences always start with <START>, end with
<END>, and are padded with <PAD> to exactly MAX_TOKENS entries; words below
the frequency threshold map to <UNK>.
"""

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from .errors import ConfigError, DataError

PAD, START, END, UNK = 0, 1, 2, 3
RESERVED = ["<PAD>", "<START>", "<END>", "<UNK>"]

MAX_TOKENS = 20

_WORD_RE = re.compile(r"[a-z0-9']+")


def normalize(caption: str) -> list[str]:
    """Lowercase, keep word-internal apostrophes, split on everything else."""
    words = _WORD_RE.findall(caption.lower())
    return [w.strip("'") for w in words if w.strip("'")]


@dataclass
class Vocabulary:
    words: list[str]  # index -> token, reserved tokens first
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        if self.words[:4] != RESERVED:
            raise DataError(f"vocabulary must start with {RESERVED}")
        self.index = {w: i for i, w in enumerate(self.words)}
        if len(self.index) != len(self.words):
            raise DataError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.words)

    def word_to_id(self, word: str) -> int:
        return self.index.get(word, UNK)

    def id_to_word(self, idx: int) -> str:
        if not 0 <= idx < len(self.words):
            raise DataError(f"token id {idx} out of range for vocabulary of {len(self.words)}")
        return self.words[idx]


def build_vocab(captions: Iterable[str], min_count: int) -> Vocabulary:
    """Vocabulary of words seen at least min_count times across the corpus.

    Index order is deterministic: reserved tokens, then descending frequency
    with lexicographic tie-breaks.
    """
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    counts = Counter()
    saw_any = False
    for caption in captions:
        saw_any = True
        counts.update(normalize(caption))
    if not saw_any:
        raise DataError("cannot build a vocabulary from an empty corpus")
    kept = sorted((w for w, c in counts.items() if c >= min_count),
                  key=lambda w: (-counts[w], w))
    return Vocabulary(RESERVED + kept)


def encode(caption: str, vocab: Vocabulary) -> list[int]:
    """<START> + word ids + <END>, truncated to MAX_TOKENS and PAD-filled.

    Truncation drops trailing words so <END> is always the last content token.
    """
    word_ids = [vocab.word_to_id(w) for w in normalize(caption)]
    ids = [START] + word_ids[:MAX_TOKENS - 2] + [END]
    return ids + [PAD] * (MAX_TOKENS - len(ids))


def decode(ids: Iterable[int], vocab: Vocabulary) -> str:
    """Words joined by spaces; <START>/<END>/<PAD> dropped, <UNK> kept as '<unk>'."""
    out = []
    for idx in ids:
        if idx in (PAD, START, END):
            continue
        out.append("<unk>" if idx == UNK else vocab.id_to_word(idx))
    return " ".join(out)
