"""Multi-reference caption metrics: BLEU-1..4, ROUGE-L, CIDEr, METEOR.

All scorers take pre-tokenized lowercase captions. BLEU and CIDEr are
corpus-level; ROUGE-L and METEOR score each instance against its best
reference and report the corpus mean. Scores are raw (CIDEr is not scaled
by 10); callers that want the usual x100 display do that at print time.
"""

import json
import warnings
from collections import Counter
from dataclasses import asdict, dataclass
from math import exp, log, sqrt
from operator import eq
from typing import Callable, Optional, Sequence

from .errors import DataError
from .stemmer import porter_stem

Tokens = Sequence[str]

ROUGE_BETA = 1.2
METEOR_CHUNK_PENALTY = 0.5
CIDER_N_MAX = 4  # n-gram orders 1..CIDER_N_MAX


def ngram_counts(tokens: Tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


@dataclass
class EvalInstance:
    """One candidate and its references; nothing changes it once built. Each
    caption is counted once per order: cand_counts[k - 1] holds the
    candidate's k-grams (k = 1..4) and ref_counts[r][k - 1] reference r's.
    clip[k - 1] maps each k-gram to its highest count in any one reference,
    the `cook_refs` table of CIDEr (Vedantam et al. 2015): BLEU clips against
    it, and its keys are the item's document for CIDEr's idf."""

    candidate: list[str]
    references: list[list[str]]

    def __post_init__(self):
        if not self.references:
            raise DataError("an evaluation instance needs at least one reference")
        orders = range(1, CIDER_N_MAX + 1)
        self.cand_counts = [ngram_counts(self.candidate, n) for n in orders]
        self.ref_counts = [[ngram_counts(ref, n) for n in orders] for ref in self.references]
        self.clip = [Counter() for _ in orders]
        for counts in self.ref_counts:
            for table, ref_table in zip(self.clip, counts):
                table |= ref_table


@dataclass
class MetricReport:
    bleu_1: float
    bleu_2: float
    bleu_3: float
    bleu_4: float
    rouge_l: float
    cider: float
    meteor: float

    def to_dict(self) -> dict[str, float]:
        return asdict(self)

    def format_text(self) -> str:
        return "\n".join(f"{key} {value:.6f}" for key, value in self.to_dict().items())

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------

def bleu(instances: Sequence[EvalInstance], n: int = 4) -> float:
    """Corpus BLEU-n: clipped n-gram precision, geometric mean over 1..n,
    brevity penalty from closest-reference lengths (ties to the shorter)."""
    if not 1 <= n <= 4:
        raise DataError(f"BLEU order must be 1..4, got {n}")
    if not instances:
        raise DataError("BLEU of an empty candidate set")
    correct = [0] * n
    guess = [0] * n
    cand_len = 0
    ref_len = 0
    for inst in instances:
        cand = list(inst.candidate)
        cand_len += len(cand)
        ref_len += min((abs(len(r) - len(cand)), len(r)) for r in inst.references)[1]
        for k in range(1, n + 1):
            correct[k - 1] += sum((inst.cand_counts[k - 1] & inst.clip[k - 1]).values())
            guess[k - 1] += max(0, len(cand) - k + 1)
    if cand_len == 0 or any(c == 0 for c in correct) or any(g == 0 for g in guess):
        return 0.0
    log_precision = sum(log(c / g) for c, g in zip(correct, guess)) / n
    brevity = 1.0 if cand_len > ref_len else exp(1.0 - ref_len / cand_len)
    return brevity * exp(log_precision)


# ---------------------------------------------------------------------------
# ROUGE-L
# ---------------------------------------------------------------------------

def lcs_length(a: Tokens, b: Tokens) -> int:
    """Longest common subsequence length, quadratic dynamic program."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for ai in a:
        row = [0] * (len(b) + 1)
        for j, bj in enumerate(b, start=1):
            row[j] = prev[j - 1] + 1 if ai == bj else max(prev[j], row[j - 1])
        prev = row
    return prev[-1]


def rouge_l(instance: EvalInstance) -> float:
    """Best F-measure over references from LCS precision and recall, recall
    weighted by ROUGE_BETA."""
    cand = instance.candidate
    if not cand:
        return 0.0
    best = 0.0
    for ref in instance.references:
        if not ref:
            continue
        lcs = lcs_length(cand, ref)
        if lcs == 0:
            continue
        precision = lcs / len(cand)
        recall = lcs / len(ref)
        score = ((1 + ROUGE_BETA ** 2) * precision * recall
                 / (recall + ROUGE_BETA ** 2 * precision))
        best = max(best, score)
    return best


def rouge_l_corpus(instances: Sequence[EvalInstance]) -> float:
    if not instances:
        raise DataError("ROUGE-L of an empty candidate set")
    return sum(rouge_l(inst) for inst in instances) / len(instances)


# ---------------------------------------------------------------------------
# CIDEr
# ---------------------------------------------------------------------------

def _tfidf_vector(counts: Counter, idf: dict) -> tuple[dict, float]:
    vec = {gram: count * idf.get(gram, 0.0) for gram, count in counts.items()}
    norm = sqrt(sum(v * v for v in vec.values()))
    return vec, norm


def cider(instances: Sequence[EvalInstance]) -> float:
    """tf-idf weighted n-gram cosine against each reference, averaged over
    references and over n = 1..CIDER_N_MAX; idf treats one item's reference
    set as one document."""
    if not instances:
        raise DataError("CIDEr of an empty candidate set")
    if len(instances) < 2:
        warnings.warn("CIDEr idf is degenerate with a single instance", stacklevel=2)
    log_n = log(len(instances))
    idf_by_n: list[dict] = []
    for n in range(1, CIDER_N_MAX + 1):
        doc_freq = Counter(gram for inst in instances for gram in inst.clip[n - 1])
        idf_by_n.append({gram: log_n - log(df) for gram, df in doc_freq.items()})
    total = 0.0
    for inst in instances:
        per_n = []
        for n in range(1, CIDER_N_MAX + 1):
            idf = idf_by_n[n - 1]
            cand_vec, cand_norm = _tfidf_vector(inst.cand_counts[n - 1], idf)
            score = 0.0
            for ref, ref_counts in zip(inst.references, inst.ref_counts):
                ref_vec, ref_norm = _tfidf_vector(ref_counts[n - 1], idf)
                if cand_norm == 0.0 or ref_norm == 0.0:
                    continue
                dot = sum(v * ref_vec.get(g, 0.0) for g, v in cand_vec.items())
                score += dot / (cand_norm * ref_norm)
            per_n.append(score / len(inst.references))
        total += sum(per_n) / CIDER_N_MAX
    return total / len(instances)


# ---------------------------------------------------------------------------
# METEOR
# ---------------------------------------------------------------------------

def load_synonym_table(path) -> dict[str, set[str]]:
    """word<TAB>synonym per line; pairs are symmetric."""
    table: dict[str, set[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise DataError(f"{path}:{line_no}: expected 'word<TAB>synonym'")
            a, b = parts
            table.setdefault(a, set()).add(b)
            table.setdefault(b, set()).add(a)
    return table


def _align(candidate: Tokens, reference: Tokens, cand_stems: list[str],
           ref_stems: list[str],
           synonyms: Optional[dict[str, set[str]]]) -> list[tuple[int, int]]:
    """Staged greedy unigram alignment: equal words, then equal stems, then
    synonyms. Each stage takes the free candidate words in order and pairs
    each with the first free reference word it relates to."""
    stages = [(candidate, reference, eq), (cand_stems, ref_stems, eq)]
    if synonyms is not None:
        stages.append((candidate, reference,
                       lambda c, r: r in synonyms.get(c, ()) or c in synonyms.get(r, ())))
    cand_free = [True] * len(candidate)
    ref_free = [True] * len(reference)
    pairs: list[tuple[int, int]] = []
    for cand_keys, ref_keys, related in stages:
        for ci, ck in enumerate(cand_keys):
            if not cand_free[ci]:
                continue
            for ri, rk in enumerate(ref_keys):
                if ref_free[ri] and related(ck, rk):
                    pairs.append((ci, ri))
                    cand_free[ci] = False
                    ref_free[ri] = False
                    break
    return sorted(pairs)


def _chunk_count(pairs: list[tuple[int, int]]) -> int:
    chunks = 0
    prev = None
    for ci, ri in pairs:
        if prev is None or ci != prev[0] + 1 or ri != prev[1] + 1:
            chunks += 1
        prev = (ci, ri)
    return chunks


def meteor(instance: EvalInstance, stem: Callable[[str], str] = porter_stem,
           synonyms: Optional[dict[str, set[str]]] = None) -> float:
    """F-mean 10PR/(R+9P) with fragmentation penalty 0.5(chunks/matches)^3,
    best over references. The candidate's words are stemmed once, and each
    reference's once."""
    cand = instance.candidate
    if not cand:
        return 0.0
    cand_stems = [stem(word) for word in cand]
    best = 0.0
    for ref in instance.references:
        if not ref:
            continue
        pairs = _align(cand, ref, cand_stems, [stem(word) for word in ref], synonyms)
        matches = len(pairs)
        if matches == 0:
            continue
        precision = matches / len(cand)
        recall = matches / len(ref)
        f_mean = 10.0 * precision * recall / (recall + 9.0 * precision)
        penalty = METEOR_CHUNK_PENALTY * (_chunk_count(pairs) / matches) ** 3
        best = max(best, f_mean * (1.0 - penalty))
    return best


def meteor_corpus(instances: Sequence[EvalInstance],
                  synonyms: Optional[dict[str, set[str]]] = None) -> float:
    if not instances:
        raise DataError("METEOR of an empty candidate set")
    return sum(meteor(inst, synonyms=synonyms) for inst in instances) / len(instances)


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------

def evaluate_corpus(candidates: Sequence[Tokens],
                    references: Sequence[Sequence[Tokens]],
                    synonyms: Optional[dict[str, set[str]]] = None) -> MetricReport:
    """All metrics over aligned candidate/reference lists."""
    if len(candidates) != len(references):
        raise DataError(
            f"{len(candidates)} candidates vs {len(references)} reference sets")
    instances = [EvalInstance(list(c), [list(r) for r in refs])
                 for c, refs in zip(candidates, references)]
    return MetricReport(
        bleu_1=bleu(instances, 1),
        bleu_2=bleu(instances, 2),
        bleu_3=bleu(instances, 3),
        bleu_4=bleu(instances, 4),
        rouge_l=rouge_l_corpus(instances),
        cider=cider(instances),
        meteor=meteor_corpus(instances, synonyms=synonyms),
    )
