"""Greedy and beam-search caption generation from a trained model.

Both run one search loop: greedy decoding is beam search at width 1 without
length normalisation. Sequences include the leading <START> token and are
capped at text.MAX_TOKENS entries total, the training-time caption length.
A hypothesis is finished once it emits <END> or hits the cap.

The live hypotheses are the rows of one (live, d_h) decoder state. A step
is one model.decoder_step over their last tokens and one row-wise
log_softmax; with the prefix scores that gives one (live, V) array. The
next beam is read off it with np.partition; only the entries at or above
the beam-th best score are sorted, by (-score, prefix tokens, token), the
order a full sort of every candidate gives, and the kept rows' states are
gathered. Both take an EncoderOutput, so the encoding is done by the caller,
one item or a batch of items at a time; the attention keys E W_enc and the
context gates E W_ctx come with it, so a step reads neither W_enc nor the
decoder cell's context rows W_ctx, and forms no attention context. A
hypothesis keeps the attention weight row that chose each of its tokens.

A stacked (live, d_h) product rounds differently from one per hypothesis,
so log-probabilities match a per-hypothesis search within 1e-12. Greedy
decoding is one row and bit-identical to stepping a 1-D state. A step
takes the context's share of the cell input from the context gates, in
another order than teacher forcing's fused product, so its logits match a
teacher-forced step within rtol 1e-12 (model.py's tolerance policy).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .model import CaptionModel, EncoderOutput
from .numerics import log_softmax
from .text import END, MAX_TOKENS, START

DEFAULT_BEAM = 3
# The widest beam a search accepts. Memory and time grow with the live
# hypotheses: at the default dims, V = 4404 and T = 60, each holds about
# 333 kB at the peak of a step (its logits and scores rows, log_softmax's
# and selection's temporaries, and its attention weight rows; tracemalloc,
# every hypothesis run to the cap), so a search at this width peaks near
# 333 MB and takes about 6 s per item at one BLAS thread on a 2-vCPU Xeon.
MAX_BEAM = 1000


@dataclass
class Hypothesis:
    tokens: list[int]  # starts with START; ends with END when finished that way
    log_prob: float  # sum of per-step log softmax probabilities
    parent: "Hypothesis | None" = None  # the hypothesis this one extends by a token
    step: np.ndarray | None = None  # (T,) the attention weights that chose tokens[-1]

    @property
    def attention(self) -> list[np.ndarray]:
        """One (T,) attention weight row per emitted token, oldest first, read
        back through the parents, so an extension copies no trace."""
        steps, hyp = [], self
        while hyp.step is not None:
            steps.append(hyp.step)
            hyp = hyp.parent
        return steps[::-1]

    @property
    def emitted(self) -> int:
        return len(self.tokens) - 1

    def score(self, length_normalize: bool) -> float:
        if not length_normalize:
            return self.log_prob
        return self.log_prob / max(1, self.emitted)


def greedy_decode_encoded(model: CaptionModel,
                          enc: EncoderOutput) -> tuple[list[int], list[np.ndarray]]:
    """Beam search of width 1 without length normalisation, so argmax decoding
    with ties to the lowest token id; returns (ids, trace), the trace one
    attention weight row per emitted token."""
    hyp = _search(model, enc, 1, length_normalize=False)
    return hyp.tokens, hyp.attention


def beam_search(model: CaptionModel, enc: EncoderOutput, beam: int = DEFAULT_BEAM,
                length_normalize: bool = True) -> Hypothesis:
    """Best completed hypothesis under beam search over one sequence's encoding.

    Finished hypotheses leave the live set and collect in a completed pool;
    the pool winner maximizes the (optionally length-normalized) score, with
    ties broken by shorter length, then lexicographic token order.
    """
    return _search(model, enc, beam, length_normalize)


def _search(model: CaptionModel, enc: EncoderOutput, beam: int,
            length_normalize: bool) -> Hypothesis:
    if not 1 <= beam <= MAX_BEAM:
        raise ConfigError(f"beam width must be in 1..{MAX_BEAM}, got {beam}")
    h, c = (state[None] for state in model.initial_state())
    live = [Hypothesis([START], 0.0)]
    completed: list[Hypothesis] = []
    while live:
        logits, h, c, weights = model.decoder_step(
            np.array([hyp.tokens[-1] for hyp in live]), h, c, enc)
        scores = np.array([[hyp.log_prob] for hyp in live]) + log_softmax(logits)
        next_live, rows = [], []
        for row, token in top_candidates(scores, [hyp.tokens for hyp in live], beam):
            hyp = live[row]
            extended = Hypothesis(hyp.tokens + [token], scores[row, token], hyp, weights[row])
            if token == END or len(extended.tokens) >= MAX_TOKENS:
                completed.append(extended)
            else:
                next_live.append(extended)
                rows.append(row)
        live = next_live
        h, c = h[rows], c[rows]
    return min(completed,
               key=lambda hyp: (-hyp.score(length_normalize), hyp.emitted, hyp.tokens))


def top_candidates(scores: np.ndarray, prefixes: list[list[int]],
                   beam: int) -> list[tuple[int, int]]:
    """(row, token) of the `beam` best finite entries of scores (live, V), best first.

    The order is (-score, prefixes[row], token). Only the entries at or above
    the beam-th best score, ties at the cut included, are sorted. NaN and
    -inf scores never enter the beam (np.partition puts NaN last); if no
    score is finite the search cannot go on.
    """
    vocab = scores.shape[1]
    flat = scores.ravel()
    count = int(np.count_nonzero(np.isfinite(flat)))
    if count == 0:
        raise DataError("beam search: no candidate has a finite score; "
                        "the decoder's logits hold NaN or inf")
    n = min(beam, count)
    cut = -np.partition(-flat, n - 1)[n - 1]
    picks = np.flatnonzero(flat >= cut)
    rows, tokens = np.divmod(picks, vocab)
    ordered = sorted(zip((-flat[picks]).tolist(), rows.tolist(), tokens.tolist()),
                     key=lambda cand: (cand[0], prefixes[cand[1]], cand[2]))
    return [(row, token) for _, row, token in ordered[:n]]
