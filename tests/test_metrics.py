import importlib.util
import itertools
import json
import math
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aacap.errors import DataError
from aacap.metrics import (
    EvalInstance,
    MetricReport,
    bleu,
    cider,
    evaluate_corpus,
    lcs_length,
    load_synonym_table,
    meteor,
    ngram_counts,
    rouge_l,
    rouge_l_corpus,
)
from aacap.stemmer import porter_stem

REPO = Path(__file__).resolve().parents[1]


def inst(candidate, *references):
    return EvalInstance(candidate.split(), [r.split() for r in references])


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------

def test_bleu_perfect_match():
    assert bleu([inst("a dog barks", "a dog barks", "dogs bark")], 1) == pytest.approx(1.0)


def test_bleu_clipped_unigram_hand_case():
    # "a a" vs "a b": one clipped match out of two, lengths equal so BP = 1
    assert bleu([inst("a a", "a b")], 1) == pytest.approx(0.5)


def test_bleu_zero_fourgram_matches_gives_zero():
    assert bleu([inst("a b c d e", "a x b y c z d e q")], 4) == 0.0


def test_bleu_brevity_penalty_applies_when_short():
    # candidate 2 tokens vs reference 4: both unigrams match, BP = exp(1 - 4/2)
    score = bleu([inst("a b", "a b c d")], 1)
    assert score == pytest.approx(math.exp(-1.0))


def test_bleu_corpus_pools_counts_before_ratio():
    instances = [inst("a a", "a b"), inst("c d", "c d")]
    # correct = 1 + 2, guess = 2 + 2, lengths equal -> BP 1
    assert bleu(instances, 1) == pytest.approx(0.75)


def test_bleu_empty_corpus_rejected():
    with pytest.raises(DataError):
        bleu([], 1)


def test_bleu_order_out_of_range():
    with pytest.raises(DataError):
        bleu([inst("a", "a")], 5)


def test_bleu_empty_candidate_scores_zero():
    assert bleu([inst("", "a b")], 1) == 0.0


# ---------------------------------------------------------------------------
# ROUGE-L
# ---------------------------------------------------------------------------

def test_rouge_identical_pair():
    assert rouge_l(inst("a b c", "a b c")) == pytest.approx(1.0)


def test_rouge_hand_case():
    # LCS("a b c d", "a c d") = 3; P = 0.75, R = 1.0; F(beta=1.2) = 0.879808
    assert rouge_l(inst("a b c d", "a c d")) == pytest.approx(0.8798, abs=1e-4)


def test_rouge_disjoint_vocabulary():
    assert rouge_l(inst("a b", "c d")) == 0.0


def test_rouge_empty_candidate():
    assert rouge_l(inst("", "a b")) == 0.0


def test_rouge_takes_best_reference():
    score = rouge_l(inst("a b c", "x y z", "a b c"))
    assert score == pytest.approx(1.0)


def brute_force_lcs(a, b):
    best = 0
    for r in range(len(a), 0, -1):
        for subset in itertools.combinations(range(len(a)), r):
            sub = [a[i] for i in subset]
            it = iter(b)
            if all(tok in it for tok in sub):
                best = r
                break
        if best:
            break
    return best


def test_lcs_matches_brute_force_enumeration():
    rng = np.random.default_rng(0)
    alphabet = list("wxyz")
    for _ in range(200):
        a = [alphabet[i] for i in rng.integers(0, 4, rng.integers(0, 9))]
        b = [alphabet[i] for i in rng.integers(0, 4, rng.integers(0, 9))]
        assert lcs_length(a, b) == brute_force_lcs(a, b), (a, b)


# ---------------------------------------------------------------------------
# CIDEr
# ---------------------------------------------------------------------------

def test_cider_self_match_with_unique_ngrams():
    instances = [
        inst("water gurgles down the drain", "water gurgles down the drain"),
        inst("birds chirp in a tree", "birds chirp in a tree"),
    ]
    assert cider(instances) == pytest.approx(1.0)


def test_cider_candidate_with_no_overlap_contributes_zero():
    instances = [
        inst("p q r s", "a b c d"),
        inst("e f g h", "e f g h"),
    ]
    # first instance shares nothing with its references: its score is 0
    both = cider(instances)
    second_only = cider([inst("x y z w", "a b c d"), instances[1]])
    assert both == pytest.approx(second_only)


def test_cider_idf_zero_ngrams_contribute_nothing():
    # "calm noise" tails appear in every document, so those grams carry
    # idf 0; repeating one changes no score
    base = [
        inst("alpha calm noise", "alpha calm noise", "beta calm noise"),
        inst("gamma calm noise", "gamma calm noise", "delta calm noise"),
    ]
    repeated = [
        inst("alpha calm noise noise", "alpha calm noise", "beta calm noise"),
        base[1],
    ]
    assert cider(repeated) == pytest.approx(cider(base))


def test_cider_single_instance_warns():
    with pytest.warns(UserWarning):
        cider([inst("a b", "a b")])


def test_cider_d_variant_penalizes_length_gap():
    matched = [inst("a b c d", "a b c d"), inst("e f g h", "e f g h")]
    stretched = [inst("a b c d", "a b c d x y z w q r s t"),
                 inst("e f g h", "e f g h")]
    assert cider_d_score(stretched) < cider(stretched)
    assert cider_d_score(matched) == pytest.approx(cider(matched))


def cider_d_score(instances):
    return cider(instances, cider_d=True)


def test_cider_empty_corpus_rejected():
    with pytest.raises(DataError):
        cider([])


# ---------------------------------------------------------------------------
# METEOR
# ---------------------------------------------------------------------------

def test_meteor_identical_pair_penalty_formula():
    # 4 matches in one chunk: score = 1 - 0.5 * (1/4)^3
    assert meteor(inst("a b c d", "a b c d")) == pytest.approx(1.0 - 0.5 / 64)


def test_meteor_zero_matches():
    assert meteor(inst("a b", "c d")) == 0.0


def test_meteor_stem_stage_matches_inflections():
    assert porter_stem("running") == porter_stem("runs") == "run"
    score = meteor(inst("running", "runs"))
    # single match, one chunk: F = 1, penalty = 0.5
    assert score == pytest.approx(0.5)


def test_meteor_synonym_stage_optional():
    synonyms = {"car": {"automobile"}, "automobile": {"car"}}
    assert meteor(inst("car", "automobile")) == 0.0
    assert meteor(inst("car", "automobile"), synonyms=synonyms) == pytest.approx(0.5)


def test_meteor_fragmentation_increases_penalty():
    contiguous = meteor(inst("a b c d", "a b c d x"))
    scattered = meteor(inst("a b c d", "a x b y c z d"))
    assert scattered < contiguous


def test_meteor_empty_candidate():
    assert meteor(inst("", "a b")) == 0.0


def test_synonym_table_round_trip(tmp_path):
    path = tmp_path / "syn.tsv"
    path.write_text("car\tautomobile\nrock\tstone\n")
    table = load_synonym_table(path)
    assert "car" in table["automobile"]
    assert "stone" in table["rock"]


def test_synonym_table_rejects_malformed_line(tmp_path):
    path = tmp_path / "syn.tsv"
    path.write_text("just_one_column\n")
    with pytest.raises(DataError):
        load_synonym_table(path)


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------

CORPUS_REFS = [
    [["water", "runs", "over", "rocks"], ["a", "stream", "flows", "gently"],
     ["water", "flowing", "downhill", "fast"]],
    [["a", "dog", "barks", "loudly"], ["dog", "barking", "at", "night"],
     ["the", "dog", "barks", "twice"]],
    [["rain", "falls", "on", "a", "roof"], ["heavy", "rain", "outside"],
     ["rain", "drums", "on", "metal"]],
]


def test_evaluate_corpus_first_reference_scores_high():
    candidates = [refs[0] for refs in CORPUS_REFS]
    report = evaluate_corpus(candidates, CORPUS_REFS)
    assert 0.9 <= report.bleu_1 <= 1.0
    assert 0.9 <= report.rouge_l <= 1.0
    assert 0.9 <= report.meteor <= 1.0
    assert report.cider > 0.0


def test_evaluate_corpus_empty_candidates_all_zero():
    candidates = [[] for _ in CORPUS_REFS]
    report = evaluate_corpus(candidates, CORPUS_REFS)
    assert report.to_dict() == {key: 0.0 for key in report.to_dict()}


def test_evaluate_corpus_order_invariant():
    candidates = [["water", "runs"], ["a", "dog", "barks"], ["rain", "falls"]]
    report = evaluate_corpus(candidates, CORPUS_REFS)
    permuted = evaluate_corpus(candidates[::-1], CORPUS_REFS[::-1])
    assert report.to_dict() == pytest.approx(permuted.to_dict())


def test_evaluate_corpus_reference_permutation_invariant():
    candidates = [["water", "runs"], ["a", "dog", "barks"], ["rain", "falls"]]
    shuffled_refs = [refs[::-1] for refs in CORPUS_REFS]
    a = evaluate_corpus(candidates, CORPUS_REFS)
    b = evaluate_corpus(candidates, shuffled_refs)
    assert a.to_dict() == pytest.approx(b.to_dict())


def test_evaluate_corpus_length_mismatch():
    with pytest.raises(DataError):
        evaluate_corpus([["a"]], CORPUS_REFS)


def test_bounded_metrics_stay_in_unit_interval_on_random_corpora():
    rng = np.random.default_rng(42)
    vocab = ["rain", "wind", "dog", "bird", "hum", "click", "roars", "soft"]
    for _ in range(20):
        def sentence():
            return [vocab[i] for i in rng.integers(0, len(vocab), rng.integers(1, 9))]

        instances = [EvalInstance(sentence(), [sentence() for _ in range(3)])
                     for _ in range(4)]
        for n in (1, 2, 3, 4):
            assert 0.0 <= bleu(instances, n) <= 1.0
        for instance in instances:
            assert 0.0 <= rouge_l(instance) <= 1.0
            assert 0.0 <= meteor(instance) <= 1.0
        assert cider(instances) >= 0.0


def test_metric_report_serialization(tmp_path):
    report = MetricReport(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
    text = report.format_text()
    assert "bleu_1 0.100000" in text
    assert "meteor 0.700000" in text
    path = tmp_path / "report.json"
    report.save(path)
    loaded = json.loads(path.read_text())
    assert set(loaded) == {"bleu_1", "bleu_2", "bleu_3", "bleu_4",
                           "rouge_l", "cider", "meteor"}
    assert loaded["cider"] == 0.6


# ---------------------------------------------------------------------------
# the reference n-gram table against the per-order recount it replaced
# ---------------------------------------------------------------------------

def _recount_bleu(instances, n):
    """BLEU that recounts every reference for each order: the reference for
    the `clip` table, written out straight."""
    correct, guess = [0] * n, [0] * n
    cand_len = ref_len = 0
    for instance in instances:
        cand = list(instance.candidate)
        cand_len += len(cand)
        ref_len += min((abs(len(r) - len(cand)), len(r)) for r in instance.references)[1]
        for k in range(1, n + 1):
            counts = ngram_counts(cand, k)
            max_ref = Counter()
            for ref in instance.references:
                for gram, count in ngram_counts(ref, k).items():
                    max_ref[gram] = max(max_ref[gram], count)
            correct[k - 1] += sum(min(c, max_ref[g]) for g, c in counts.items())
            guess[k - 1] += max(0, len(cand) - k + 1)
    if cand_len == 0 or any(c == 0 for c in correct) or any(g == 0 for g in guess):
        return 0.0
    log_precision = sum(math.log(c / g) for c, g in zip(correct, guess)) / n
    brevity = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return brevity * math.exp(log_precision)


def _recount_cider(instances, cider_d):
    """CIDEr with document frequencies from a per-order recount of every
    reference, and the max(1, df) clamp."""
    log_n = math.log(len(instances))
    idf_by_n = []
    for n in range(1, 5):
        doc_freq = Counter()
        for instance in instances:
            grams = set()
            for ref in instance.references:
                grams.update(ngram_counts(ref, n).keys())
            doc_freq.update(grams)
        idf_by_n.append({gram: log_n - math.log(max(1.0, df))
                         for gram, df in doc_freq.items()})

    def vector(tokens, n, idf):
        vec = {gram: count * idf.get(gram, 0.0)
               for gram, count in ngram_counts(tokens, n).items()}
        return vec, math.sqrt(sum(v * v for v in vec.values()))

    total = 0.0
    for instance in instances:
        per_n = []
        for n in range(1, 5):
            idf = idf_by_n[n - 1]
            cand_vec, cand_norm = vector(instance.candidate, n, idf)
            score = 0.0
            for ref in instance.references:
                ref_vec, ref_norm = vector(ref, n, idf)
                if cand_norm == 0.0 or ref_norm == 0.0:
                    continue
                if cider_d:
                    dot = sum(min(v, ref_vec.get(g, 0.0)) * ref_vec.get(g, 0.0)
                              for g, v in cand_vec.items())
                else:
                    dot = sum(v * ref_vec.get(g, 0.0) for g, v in cand_vec.items())
                sim = dot / (cand_norm * ref_norm)
                if cider_d:
                    delta = len(instance.candidate) - len(ref)
                    sim *= math.exp(-delta * delta / (2.0 * 6.0 ** 2))
                score += sim
            per_n.append(score / len(instance.references))
        total += sum(per_n) / 4
    return total / len(instances)


# a 3-word vocabulary makes repeated n-grams and shared references common
_words = st.lists(st.sampled_from(["a", "b", "c"]), max_size=7)
_corpora = st.lists(st.builds(EvalInstance, _words, st.lists(_words, min_size=1, max_size=5)),
                    min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(_corpora)
def test_bleu_and_cider_equal_the_per_order_recount(instances):
    for n in (1, 2, 3, 4):
        assert bleu(instances, n) == _recount_bleu(instances, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a one-instance corpus warns about its idf
        for cider_d in (False, True):
            assert cider(instances, cider_d=cider_d) == _recount_cider(instances, cider_d)


@settings(max_examples=200, deadline=None)
@given(_corpora)
def test_clip_table_holds_each_ngrams_highest_count_in_one_reference(instances):
    for instance in instances:
        assert len(instance.clip) == 4
        for n, table in enumerate(instance.clip, start=1):
            grams = {g for ref in instance.references for g in ngram_counts(ref, n)}
            assert set(table) == grams
            assert instance.cand_counts[n - 1] == ngram_counts(instance.candidate, n)
            assert [counts[n - 1] for counts in instance.ref_counts] == [
                ngram_counts(ref, n) for ref in instance.references]
            for gram in grams:
                assert table[gram] == max(ngram_counts(ref, n)[gram]
                                          for ref in instance.references)


def test_evaluate_corpus_counts_each_reference_once_per_order(monkeypatch):
    # 3 instances x (2 references + 1 candidate) x 4 orders, all while the
    # instances are built; BLEU-1..4 and CIDEr read those counts
    import aacap.metrics as metrics_module

    calls = []
    real = metrics_module.ngram_counts
    monkeypatch.setattr(metrics_module, "ngram_counts",
                        lambda tokens, n: calls.append(n) or real(tokens, n))
    candidates = [["a", "b"], ["b"], []]
    references = [[["a", "b"], ["b", "a"]]] * 3
    instances = [EvalInstance(c, r) for c, r in zip(candidates, references)]
    assert len(calls) == 3 * (2 + 1) * 4
    calls.clear()
    for n in (1, 2, 3, 4):
        bleu(instances, n)
    cider(instances)
    cider(instances, cider_d=True)
    assert calls == []
    evaluate_corpus(candidates, references)
    assert len(calls) == 3 * (2 + 1) * 4


# ---------------------------------------------------------------------------
# METEOR's stem keys against the per-pair stem comparison they replaced
# ---------------------------------------------------------------------------

def _per_pair_meteor(instance, synonyms):
    """METEOR whose stem stage stems both words of every pair it compares."""
    cand = instance.candidate
    stages = [lambda c, r: c == r, lambda c, r: porter_stem(c) == porter_stem(r)]
    if synonyms is not None:
        stages.append(lambda c, r: r in synonyms.get(c, ()) or c in synonyms.get(r, ()))
    best = 0.0
    for ref in instance.references:
        cand_free, ref_free, pairs = [True] * len(cand), [True] * len(ref), []
        for matches in stages:
            for ci, cw in enumerate(cand):
                if not cand_free[ci]:
                    continue
                for ri, rw in enumerate(ref):
                    if ref_free[ri] and matches(cw, rw):
                        pairs.append((ci, ri))
                        cand_free[ci] = ref_free[ri] = False
                        break
        pairs.sort()
        if not pairs:
            continue
        chunks = sum(1 for k, (ci, ri) in enumerate(pairs)
                     if k == 0 or (ci, ri) != (pairs[k - 1][0] + 1, pairs[k - 1][1] + 1))
        precision, recall = len(pairs) / len(cand), len(pairs) / len(ref)
        f_mean = 10.0 * precision * recall / (recall + 9.0 * precision)
        best = max(best, f_mean * (1.0 - 0.5 * (chunks / len(pairs)) ** 3))
    return best


# inflections that share a stem, and a synonym pair, so that every stage matches
_meteor_words = st.lists(st.sampled_from(["cat", "cats", "run", "running", "runs", "dog",
                                          "barks", "barking", "a"]), max_size=8)
_meteor_instances = st.builds(EvalInstance, _meteor_words,
                              st.lists(_meteor_words, min_size=1, max_size=4))


@settings(max_examples=300, deadline=None)
@given(_meteor_instances, st.booleans())
def test_meteor_stem_keys_equal_the_per_pair_stem_comparison(instance, with_synonyms):
    synonyms = {"cat": {"dog"}, "dog": {"cat"}} if with_synonyms else None
    assert meteor(instance, synonyms=synonyms) == _per_pair_meteor(instance, synonyms)


def test_meteor_stems_each_word_once_per_instance_and_reference():
    stemmed = []
    instance = inst("the cats ran", "a cat runs", "cats ran")

    def stem(word):
        stemmed.append(word)
        return porter_stem(word)
    meteor(instance, stem=stem)
    assert sorted(stemmed) == sorted("the cats ran a cat runs cats ran".split())


def test_score_workload_report_matches_the_benchmark_reference(tmp_path):
    """The 1000-item corpus of the benchmark's `score` workload, seed 0, scored
    as that workload scores it, against perfbench/expected.json at its rtol."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  REPO / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    info = inputs.make_score(0, tmp_path)
    with open(info["corpus"], encoding="utf-8") as fh:
        corpus = json.load(fh)
    report = evaluate_corpus(corpus["candidates"], corpus["references"],
                             synonyms=load_synonym_table(info["synonyms"])).to_dict()
    expected = json.loads((REPO / "perfbench" / "expected.json").read_text())
    rtol = expected["rtol"]["score"]
    want = expected["workloads"]["score"]["report"]
    assert report.keys() == want.keys()
    for key, value in want.items():
        assert report[key] == pytest.approx(value, rel=rtol, abs=1e-12), key


def test_eval_workload_report_matches_the_benchmark_reference(tmp_path, monkeypatch):
    """The benchmark's `eval` workload, seed 0: its generated checkpoint and
    12-item split through pipeline.evaluate at beam 3, against
    perfbench/expected.json at its rtol, and each item's emitted length, read
    from pipeline.beam_search in call order, exactly."""
    from aacap import pipeline

    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  REPO / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    info = inputs.make_eval(0, tmp_path)
    emitted = []
    search = pipeline.beam_search

    def capture(*args, **kwargs):
        hyp = search(*args, **kwargs)
        emitted.append(hyp.emitted)
        return hyp
    monkeypatch.setattr(pipeline, "beam_search", capture)
    report = pipeline.evaluate(info["checkpoint"], info["manifest"], split="eval",
                               beam=3).to_dict()
    expected = json.loads((REPO / "perfbench" / "expected.json").read_text())
    rtol = expected["rtol"]["eval"]
    want = expected["workloads"]["eval"]
    assert report.keys() == want["report"].keys()
    for key, value in want["report"].items():
        assert report[key] == pytest.approx(value, rel=rtol, abs=1e-12), key
    assert emitted == want["emitted"]
