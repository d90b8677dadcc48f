import itertools

import numpy as np
import pytest

from refimpl import ref_decoder_logits, ref_encode, ref_log_prob_of_sequence
from test_model import padded_encode

from aacap import decoding
from aacap.decoding import (
    MAX_BEAM,
    Hypothesis,
    _search,
    beam_search,
    greedy_decode_encoded,
    top_candidates,
)
from aacap.errors import ConfigError, DataError
from aacap.model import CaptionModel, ModelConfig
from aacap.numerics import log_softmax
from aacap.text import END, START

SMALL = ModelConfig(embed_dim=4, vocab_size=5, enc_hidden=3, attn_dim=3,
                    dec_hidden=4, word_dim=3)


def enumerate_completed(max_emitted, vocab_size):
    """Every sequence the decoder can finish: ends with END (no earlier END)
    or runs to exactly max_emitted tokens without one."""
    for k in range(1, max_emitted + 1):
        for combo in itertools.product(range(vocab_size), repeat=k):
            if any(t == END for t in combo[:-1]):
                continue
            if combo[-1] == END or k == max_emitted:
                yield list(combo)


def rigged_model(seed, emb_scale=4.0, wout_scale=3.0):
    """Random model pushed away from the trivial immediate-END optimum."""
    model = CaptionModel(SMALL, seed=seed)
    rng = np.random.default_rng(900 + seed)
    model.decoder.b_out.value[:] = rng.normal(scale=1.0, size=5)
    model.decoder.b_out.value[END] -= 2.0
    model.decoder.embedding.value *= emb_scale
    model.decoder.w_out.value *= wout_scale
    return model, rng.normal(size=(3, 4)) * 2.0


def brute_force_best(model, m, max_emitted=4):
    best_tokens, best_score = None, -np.inf
    for seq in enumerate_completed(max_emitted, model.cfg.vocab_size):
        tokens = [START] + seq
        score = ref_log_prob_of_sequence(model, m, tokens, m.shape[0])
        if score > best_score + 1e-12:
            best_tokens, best_score = tokens, score
    return best_tokens, best_score


# ---------------------------------------------------------------------------
# greedy decoding
# ---------------------------------------------------------------------------

def test_greedy_stops_immediately_when_end_dominates():
    model = CaptionModel(SMALL, seed=0)
    model.decoder.b_out.value[END] = 50.0
    ids, trace = greedy_decode_encoded(model, model.encode(np.zeros((2, 4))))
    assert ids == [START, END]
    assert len(trace) == 1


def test_greedy_deterministic():
    model, m = rigged_model(seed=1)
    first = greedy_decode_encoded(model, model.encode(m))
    second = greedy_decode_encoded(model, model.encode(m))
    assert first[0] == second[0]


def test_greedy_matches_independent_argmax_trace(monkeypatch):
    monkeypatch.setattr(decoding, "MAX_TOKENS", 5)
    model, m = rigged_model(seed=13)
    ids, trace = greedy_decode_encoded(model, model.encode(m))

    enc_values = ref_encode(model, m, 3)
    h = c = np.zeros(model.cfg.dec_hidden)
    expect = [START]
    while len(expect) < 5:
        logits, h, c, _ = ref_decoder_logits(model, expect[-1], h, c, enc_values, 3)
        token = int(np.argmax(logits))
        expect.append(token)
        if token == END:
            break
    assert ids == expect
    assert len(trace) == len(ids) - 1


def test_greedy_respects_token_cap(monkeypatch):
    monkeypatch.setattr(decoding, "MAX_TOKENS", 3)
    model, m = rigged_model(seed=13)
    ids, _ = greedy_decode_encoded(model, model.encode(m))
    assert len(ids) <= 3


# ---------------------------------------------------------------------------
# beam search
# ---------------------------------------------------------------------------

def test_beam_width_one_equals_greedy(monkeypatch):
    monkeypatch.setattr(decoding, "MAX_TOKENS", 5)
    for seed in (0, 3, 13, 24):
        model, m = rigged_model(seed)
        greedy_ids, _ = greedy_decode_encoded(model, model.encode(m))
        hyp = beam_search(model, model.encode(m), beam=1,
                          length_normalize=False)
        assert hyp.tokens == greedy_ids, seed


def test_beam_five_matches_exhaustive_enumeration(monkeypatch):
    monkeypatch.setattr(decoding, "MAX_TOKENS", 5)
    # seed 13 is a case where greedy is suboptimal, so the search genuinely
    # has to keep the better prefix alive
    model, m = rigged_model(seed=13)
    best_tokens, best_score = brute_force_best(model, m)
    greedy_ids, _ = greedy_decode_encoded(model, model.encode(m))
    assert greedy_ids != best_tokens
    hyp = beam_search(model, model.encode(m), beam=5,
                      length_normalize=False)
    assert hyp.tokens == best_tokens
    assert hyp.log_prob == pytest.approx(best_score, abs=1e-9)


def test_beam_wider_than_search_space_is_exhaustive(monkeypatch):
    monkeypatch.setattr(decoding, "MAX_TOKENS", 5)
    for seed in (2, 13, 24):
        model, m = rigged_model(seed)
        best_tokens, best_score = brute_force_best(model, m)
        hyp = beam_search(model, model.encode(m), beam=625,
                          length_normalize=False)
        assert hyp.tokens == best_tokens, seed
        assert hyp.log_prob == pytest.approx(best_score, abs=1e-9)


def test_beam_score_matches_independent_recomputation(monkeypatch):
    monkeypatch.setattr(decoding, "MAX_TOKENS", 6)
    for seed in (0, 5, 13):
        model, m = rigged_model(seed)
        hyp = beam_search(model, model.encode(m), beam=3)
        recomputed = ref_log_prob_of_sequence(model, m, hyp.tokens, 3)
        assert hyp.log_prob == pytest.approx(recomputed, abs=1e-9)


def test_beam_prefix_scores_monotone_non_increasing(monkeypatch):
    monkeypatch.setattr(decoding, "MAX_TOKENS", 6)
    model, m = rigged_model(seed=24)
    hyp = beam_search(model, model.encode(m), beam=4,
                      length_normalize=False)
    prefix_scores = [ref_log_prob_of_sequence(model, m, hyp.tokens[:k], 3)
                     for k in range(2, len(hyp.tokens) + 1)]
    assert all(b <= a + 1e-12 for a, b in zip(prefix_scores, prefix_scores[1:]))


def test_beam_width_never_hurts_unnormalized_score(monkeypatch):
    monkeypatch.setattr(decoding, "MAX_TOKENS", 5)
    for seed in (0, 7, 13, 24):
        model, m = rigged_model(seed)
        scores = [beam_search(model, model.encode(m), beam=b,
                              length_normalize=False).log_prob
                  for b in (1, 2, 3, 5, 8)]
        assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:])), seed


def test_beam_uniform_model_terminates_cleanly(monkeypatch):
    monkeypatch.setattr(decoding, "MAX_TOKENS", 5)
    model = CaptionModel(SMALL, seed=0)
    for group in model.parameters():
        group.value[...] = 0.0
    m = np.zeros((2, 4))
    hyp = beam_search(model, model.encode(m), beam=3)
    assert hyp.tokens[0] == START
    assert hyp.tokens[-1] == END or len(hyp.tokens) == 5
    again = beam_search(model, model.encode(m), beam=3)
    assert again.tokens == hyp.tokens


def test_beam_length_normalization_divides_by_emitted_count(monkeypatch):
    monkeypatch.setattr(decoding, "MAX_TOKENS", 6)
    model, m = rigged_model(seed=5)
    hyp = beam_search(model, model.encode(m), beam=3)
    assert hyp.score(True) == pytest.approx(hyp.log_prob / hyp.emitted)
    assert hyp.score(False) == hyp.log_prob


def test_beam_rejects_zero_width():
    model, m = rigged_model(seed=0)
    with pytest.raises(ConfigError):
        beam_search(model, model.encode(m), beam=0)


def test_beam_rejects_a_width_above_max_beam():
    model, m = rigged_model(seed=0)
    assert beam_search(model, model.encode(m), beam=MAX_BEAM).tokens[0] == START
    with pytest.raises(ConfigError, match=f"1..{MAX_BEAM}"):
        beam_search(model, model.encode(m), beam=MAX_BEAM + 1)


def test_hypothesis_emitted_counts_tokens_after_start():
    hyp = Hypothesis([START, 4, END], -1.0)
    assert hyp.emitted == 2


@pytest.mark.parametrize("seed", [0, 3, 13, 24])
def test_greedy_is_beam_one_over_the_argmax_trace(seed, monkeypatch):
    monkeypatch.setattr(decoding, "MAX_TOKENS", 6)
    model, m = rigged_model(seed)
    ids, trace = greedy_decode_encoded(model, model.encode(m))

    enc_values = ref_encode(model, m, 3)
    h = c = np.zeros(model.cfg.dec_hidden)
    expect, expect_weights = [START], []
    while len(expect) < 6:
        logits, h, c, weights = ref_decoder_logits(model, expect[-1], h, c, enc_values, 3)
        expect.append(int(np.argmax(logits)))
        expect_weights.append(weights)
        if expect[-1] == END:
            break
    assert ids == expect
    assert len(trace) == len(expect_weights)
    for step, weights in zip(trace, expect_weights):
        assert np.allclose(step.weights, weights, atol=1e-12)


@pytest.mark.parametrize("decode", ["beam", "greedy"])
def test_search_with_nan_logits_is_a_data_error(decode):
    model, m = rigged_model(seed=0)
    model.decoder.b_out.value[:] = np.nan
    with pytest.raises(DataError, match="finite"):
        if decode == "beam":
            beam_search(model, model.encode(m), beam=3)
        else:
            greedy_decode_encoded(model, model.encode(m))


# ---------------------------------------------------------------------------
# candidate selection against a full sort of every candidate
# ---------------------------------------------------------------------------

def tuple_sort_selection(scores, prefixes, beam):
    """The selection as one tuple per candidate and a full list.sort."""
    candidates = []
    for row, prefix in enumerate(prefixes):
        for token in range(scores.shape[1]):
            candidates.append((scores[row, token], prefix, row, token))
    candidates.sort(key=lambda item: (-item[0], item[1], item[3]))
    return [(row, token) for _, _, row, token in candidates[:beam]]


def random_prefixes(rng, live):
    """Distinct START-led token lists of mixed lengths, some prefixes of others."""
    prefixes = []
    while len(prefixes) < live:
        length = int(rng.integers(1, 4))
        prefix = [START] + rng.integers(0, 3, size=length - 1).tolist()
        if prefix not in prefixes:
            prefixes.append(prefix)
    return prefixes


def test_selection_matches_full_sort_on_random_grids():
    rng = np.random.default_rng(0)
    for _ in range(300):
        live, vocab = int(rng.integers(1, 6)), int(rng.integers(1, 30))
        scores = rng.normal(size=(live, vocab)) - rng.exponential(size=(live, 1))
        prefixes = random_prefixes(rng, live)
        beam = int(rng.integers(1, 8))
        assert top_candidates(scores, prefixes, beam) == \
            tuple_sort_selection(scores, prefixes, beam)


def test_selection_matches_full_sort_with_exact_ties():
    rng = np.random.default_rng(1)
    cut_ties = 0
    for _ in range(300):
        live, vocab = int(rng.integers(1, 5)), int(rng.integers(2, 12))
        scores = -rng.integers(0, 3, size=(live, vocab)).astype(float) / 4.0
        prefixes = random_prefixes(rng, live)
        beam = int(rng.integers(1, 6))
        want = tuple_sort_selection(scores, prefixes, beam)
        assert top_candidates(scores, prefixes, beam) == want
        cut = scores[want[-1]]
        cut_ties += sum(scores[w] == cut for w in want) < np.count_nonzero(scores == cut)
    assert cut_ties > 50  # many grids really had a tie straddling the cut


def test_selection_wider_than_grid_returns_every_candidate_in_order():
    rng = np.random.default_rng(2)
    scores = -rng.integers(0, 2, size=(3, 4)).astype(float)
    prefixes = [[START, 1], [START], [START, 0, 2]]
    got = top_candidates(scores, prefixes, 50)
    assert len(got) == 12
    assert got == tuple_sort_selection(scores, prefixes, 50)


def test_selection_skips_non_finite_scores():
    scores = np.array([[-1.0, np.nan, -np.inf, -0.5],
                       [np.nan, -2.0, -0.5, -np.inf]])
    prefixes = [[START, 3], [START, 4]]
    finite_only = np.where(np.isfinite(scores), scores, -1e300)
    assert top_candidates(scores, prefixes, 3) == tuple_sort_selection(finite_only, prefixes, 3)
    assert top_candidates(scores, prefixes, 10) == \
        tuple_sort_selection(finite_only, prefixes, 10)[:4]
    with pytest.raises(DataError):
        top_candidates(np.full((2, 3), np.nan), prefixes, 2)


# ---------------------------------------------------------------------------
# the row search against a search that steps each hypothesis on its own
# ---------------------------------------------------------------------------

MID = ModelConfig(embed_dim=6, vocab_size=40, enc_hidden=8, attn_dim=12,
                  dec_hidden=24, word_dim=10)


def per_hypothesis_search(model, enc, beam, max_tokens, length_normalize):
    """Straight-line beam search: one 1-D decoder_step and one log_softmax per
    live hypothesis, each carrying its own state, and the next beam by a full
    sort. Returns (tokens, log_prob, attention steps) of the winner."""
    h0, c0 = model.initial_state()
    live = [([START], 0.0, h0, c0, [])]
    completed = []
    while live:
        steps = [model.decoder_step(tokens[-1], h, c, enc) for tokens, _, h, c, _ in live]
        scores = np.stack([log_prob + log_softmax(logits)
                           for (_, log_prob, _, _, _), (logits, _, _, _) in zip(live, steps)])
        next_live = []
        for row, token in tuple_sort_selection(scores, [hyp[0] for hyp in live], beam):
            tokens, _, _, _, attention = live[row]
            _, h, c, att = steps[row]
            extended = (tokens + [token], scores[row, token], h, c, attention + [att])
            if token == END or len(extended[0]) >= max_tokens:
                completed.append(extended)
            else:
                next_live.append(extended)
        live = next_live

    def score(hyp):
        return hyp[1] / max(1, len(hyp[0]) - 1) if length_normalize else hyp[1]
    tokens, log_prob, _, _, attention = min(
        completed, key=lambda hyp: (-score(hyp), len(hyp[0]), hyp[0]))
    return tokens, log_prob, attention


def search_cases():
    """(model, enc) pairs: the rigged 5-word model, and a wider one whose
    stacked products have more terms, on padded inputs."""
    for seed in range(6):
        model, m = rigged_model(seed)
        yield model, model.encode(m)
        rng = np.random.default_rng(seed)
        model = CaptionModel(MID, seed=seed)
        model.decoder.b_out.value[:] = rng.normal(scale=2.0, size=MID.vocab_size)
        model.decoder.w_out.value *= 4.0
        yield model, padded_encode(model, rng.normal(size=(7, 6)) * 2.0, 5)


@pytest.mark.parametrize("length_normalize", [False, True])
@pytest.mark.parametrize("beam", [1, 3, 5])
def test_row_search_matches_per_hypothesis_search(beam, length_normalize, monkeypatch):
    monkeypatch.setattr(decoding, "MAX_TOKENS", 8)
    """decoding.py's tolerance: tokens equal, log-probabilities within 1e-12."""
    for case, (model, enc) in enumerate(search_cases()):
        hyp = _search(model, enc, beam, length_normalize)
        tokens, log_prob, attention = per_hypothesis_search(model, enc, beam, 8,
                                                            length_normalize)
        assert hyp.tokens == tokens, case
        assert abs(hyp.log_prob - log_prob) <= 1e-12, case
        assert len(hyp.attention) == len(attention)
        for got, want in zip(hyp.attention, attention):
            assert got.weights.shape == want.weights.shape
            assert np.allclose(got.weights, want.weights, rtol=0.0, atol=1e-12), case


def test_greedy_row_is_bit_identical_to_stepping_one_hypothesis(monkeypatch):
    monkeypatch.setattr(decoding, "MAX_TOKENS", 8)
    for case, (model, enc) in enumerate(search_cases()):
        ids, trace = greedy_decode_encoded(model, enc)
        tokens, log_prob, attention = per_hypothesis_search(model, enc, 1, 8, False)
        assert ids == tokens, case
        assert _search(model, enc, 1, False).log_prob == log_prob, case
        assert len(trace) == len(attention)
        for got, want in zip(trace, attention):
            assert got.weights.shape == want.weights.shape
            assert np.array_equal(got.weights, want.weights), case
            assert np.array_equal(got.context, want.context), case
