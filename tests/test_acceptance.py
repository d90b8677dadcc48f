"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The whole module takes a few minutes; the heavy
criteria time themselves against their stated budgets.
"""

import json
import math
import time

import numpy as np
import pytest

from refimpl import finite_diff_check, ref_log_prob_of_sequence
from test_decoding import brute_force_best, rigged_model
from test_features import write_wav
from test_metrics import brute_force_lcs
from test_model import padded_encode

from aacap import decoding
from aacap.decoding import beam_search, greedy_decode_encoded
from aacap.features import AugmentConfig, spec_augment
from aacap.metrics import EvalInstance, bleu, lcs_length, rouge_l
from aacap.model import CaptionModel, ModelConfig
from aacap.pipeline import (
    ManifestEntry,
    TrainConfig,
    evaluate,
    export_attention,
    load_manifest,
    make_toy_dataset,
    save_manifest,
    split_entries,
    train,
)
from aacap.features import Waveform
from aacap.text import END, PAD, START


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {number}] {status} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. gradient correctness on the tiny model, 3 seeds, < 1 minute
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_correctness():
    tiny = ModelConfig(embed_dim=8, vocab_size=6, enc_hidden=4, attn_dim=4,
                       dec_hidden=8, word_dim=8)
    probe_items = [
        ([START, 4, 5, 4, END] + [PAD] * 15, 3, 3),
        ([START, 5, 5, 4, 5, END] + [PAD] * 14, 4, 3),
        ([START, 4, END] + [PAD] * 17, 2, 2),
    ]
    started = time.monotonic()
    worst = 0.0
    for seed in (0, 1, 2):
        model = CaptionModel(tiny, seed=seed)
        rng = np.random.default_rng(1000 + seed)
        # one batch of the three items, one encoder row each
        inputs = [rng.normal(size=(t, 8))[:valid] for _, t, valid in probe_items]
        targets = [target for target, _, _ in probe_items]
        model.zero_grads()
        model.backward(model.forward_teacher_forced(inputs, targets).cache)

        def loss_fn():
            return model.forward_teacher_forced(inputs, targets).loss

        for group in model.parameters():
            worst = max(worst, finite_diff_check(loss_fn, group, epsilon=1e-4))
    elapsed = time.monotonic() - started
    report(1, "gradient correctness", worst < 1e-4 and elapsed < 60.0,
           f"max rel err {worst:.2e} over 3 seeds in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. attention invariants over 1000 random decoder steps
# ---------------------------------------------------------------------------

def test_criterion_2_attention_invariants():
    tiny = ModelConfig(embed_dim=8, vocab_size=6, enc_hidden=4, attn_dim=4,
                       dec_hidden=8, word_dim=8)
    rng = np.random.default_rng(2024)
    failures = []
    model = None
    for step in range(1000):
        if step % 25 == 0:
            model = CaptionModel(tiny, seed=int(rng.integers(0, 10_000)))
        t_total = int(rng.integers(1, 8))
        valid = int(rng.integers(1, t_total + 1))
        enc = padded_encode(model, rng.normal(size=(t_total, 8)) * 2.0, valid)
        h = rng.normal(size=8)
        c = rng.normal(size=8)
        token = int(rng.integers(0, 6))
        _, _, _, att = model.decoder_step(token, h, c, enc)
        weights = att.weights
        if np.any(weights < 0):
            failures.append(f"step {step}: negative weight")
        if abs(weights.sum() - 1.0) > 1e-9:
            failures.append(f"step {step}: sum {weights.sum()!r}")
        if valid < t_total and np.any(weights[valid:] != 0.0):
            failures.append(f"step {step}: padded frame got weight")
        lo = enc.values[:valid].min(axis=0) - 1e-12
        hi = enc.values[:valid].max(axis=0) + 1e-12
        if np.any(att.context < lo) or np.any(att.context > hi):
            failures.append(f"step {step}: context outside hull")
        if failures:
            break
    report(2, "attention invariants (1000 steps)", not failures,
           failures[0] if failures else "all steps clean")


# ---------------------------------------------------------------------------
# 3. beam search equals exhaustive enumeration, beam=1 equals greedy, < 10 s
# ---------------------------------------------------------------------------

def test_criterion_3_beam_search_oracle(monkeypatch):
    monkeypatch.setattr(decoding, "MAX_TOKENS", 5)  # <START> + the 4 enumerated tokens
    started = time.monotonic()
    model, matrix = rigged_model(seed=13)  # greedy provably suboptimal here
    best_tokens, best_score = brute_force_best(model, matrix, max_emitted=4)
    enc = model.encode(matrix)
    hyp = beam_search(model, enc, beam=5, length_normalize=False)
    greedy_ids, _ = greedy_decode_encoded(model, enc)
    beam_one = beam_search(model, enc, beam=1, length_normalize=False)
    elapsed = time.monotonic() - started
    ok = (hyp.tokens == best_tokens
          and abs(hyp.log_prob - best_score) <= 1e-9
          and greedy_ids != best_tokens
          and beam_one.tokens == greedy_ids
          and elapsed < 10.0)
    report(3, "beam-search enumeration oracle", ok,
           f"beam5={hyp.tokens} enum={best_tokens} "
           f"score gap {abs(hyp.log_prob - best_score):.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. metric oracles
# ---------------------------------------------------------------------------

def test_criterion_4_metric_oracles():
    checks = []
    checks.append(abs(bleu([EvalInstance(["a", "a"], [["a", "b"]])], 1) - 0.5) < 1e-12)
    checks.append(abs(rouge_l(EvalInstance("a b c d".split(), ["a c d".split()]))
                      - 0.8798) <= 1e-4)
    identical = [EvalInstance("water runs over rocks".split(),
                              ["water runs over rocks".split()])]
    checks.append(all(bleu(identical, n) == pytest.approx(1.0) for n in (1, 2, 3, 4)))
    checks.append(rouge_l(identical[0]) == pytest.approx(1.0))
    rng = np.random.default_rng(0)
    alphabet = list("wxyz")
    lcs_ok = True
    for _ in range(200):
        a = [alphabet[i] for i in rng.integers(0, 4, rng.integers(0, 9))]
        b = [alphabet[i] for i in rng.integers(0, 4, rng.integers(0, 9))]
        if lcs_length(a, b) != brute_force_lcs(a, b):
            lcs_ok = False
            break
    checks.append(lcs_ok)
    report(4, "metric oracles", all(checks),
           "bleu/rouge hand cases, identical-pair bounds, 200 LCS pairs")


# ---------------------------------------------------------------------------
# 5. toy-set overfitting within 200 epochs and 5 minutes
# ---------------------------------------------------------------------------

def test_criterion_5_overfit_reproduction(tmp_path):
    manifest = make_toy_dataset(tmp_path / "toy", seed=0, n_items=8)
    config = TrainConfig(batch_size=4, initial_lr=1e-2, max_epochs=200, seed=0,
                         vocab_min_count=1, enc_hidden=32, attn_dim=32,
                         dec_hidden=32, word_dim=16, plateau_patience=1000)
    started = time.monotonic()
    result = train(config, manifest, tmp_path / "run")
    train_report = evaluate(result.checkpoint_path, manifest, split="dev", beam=3)
    elapsed = time.monotonic() - started
    ok = (result.losses[-1] < 0.05 and train_report.bleu_1 >= 0.95
          and elapsed < 300.0)
    report(5, "toy overfit", ok,
           f"loss {result.losses[-1]:.5f}, BLEU-1 {train_report.bleu_1:.4f}, "
           f"{elapsed:.0f}s / 200 epochs")


# ---------------------------------------------------------------------------
# 6. plateau schedule: stagnant validation halves the lr at the exact epoch
# ---------------------------------------------------------------------------

def test_criterion_6_lr_schedule(tmp_path):
    manifest = make_toy_dataset(tmp_path / "toy", seed=0, n_items=4)
    entries = load_manifest(manifest)
    for entry in entries:
        if entry.split == "val":
            # three-word captions cannot match any 4-gram: BLEU-4 stays 0.0
            entry.captions = ["drum beep chime"] * 5
    scripted = tmp_path / "scripted.jsonl"
    save_manifest(scripted, entries)
    config = TrainConfig(batch_size=4, initial_lr=1e-4, plateau_patience=3,
                         lr_factor=0.5, max_epochs=6, seed=0, vocab_min_count=1,
                         enc_hidden=8, attn_dim=8, dec_hidden=8, word_dim=8)
    result = train(config, scripted, tmp_path / "run")
    expected = [1e-4, 1e-4, 1e-4, 1e-4, 5e-5, 5e-5]
    ok = result.val_bleu4 == [0.0] * 6 and result.lrs == expected
    report(6, "plateau lr schedule", ok,
           f"lr sequence {['%.1e' % lr for lr in result.lrs]}")


# ---------------------------------------------------------------------------
# 7. SpecAugment statistics over 10000 seeded applications
# ---------------------------------------------------------------------------

def test_criterion_7_specaugment_statistics():
    grid = np.random.default_rng(5).normal(size=(250, 64))
    time_hits = 0
    span_violation = None
    for seed in range(10_000):
        _, masks = spec_augment(grid, AugmentConfig(), seed)
        if masks.time_span is not None:
            time_hits += 1
            if masks.time_span[1] > 192:
                span_violation = f"time mask {masks.time_span[1]} frames"
        if masks.freq_span is not None and masks.freq_span[1] > 48:
            span_violation = f"freq mask {masks.freq_span[1]} bins"
    rate = time_hits / 10_000
    identity, _ = spec_augment(grid, AugmentConfig(apply_probability=0.0), seed=1)
    identity_ok = np.array_equal(identity, grid)
    ok = abs(rate - 0.40) <= 0.02 and span_violation is None and identity_ok
    report(7, "specaugment statistics", ok,
           f"time-mask rate {rate:.4f}, spans bounded, prob-0 identity "
           f"{'ok' if identity_ok else 'BROKEN'}")


# ---------------------------------------------------------------------------
# 8. attention alignment probe: event k in segment k, argmax row k == k
# ---------------------------------------------------------------------------

def test_criterion_8_attention_alignment_probe(tmp_path):
    manifest = make_toy_dataset(tmp_path / "probe", seed=7, n_items=24,
                                segments_per_item=(3, 6), n_events=6)
    config = TrainConfig(batch_size=8, initial_lr=1e-2, max_epochs=300, seed=0,
                         vocab_min_count=1, enc_hidden=16, attn_dim=32,
                         dec_hidden=12, word_dim=8, plateau_patience=10 ** 6)
    result = train(config, manifest, tmp_path / "run")
    hits = total = 0
    for entry in split_entries(load_manifest(manifest), "dev"):
        record = export_attention(result.checkpoint_path, entry.path,
                                  tmp_path / "trace.json", item_id=entry.id)
        for k, row in enumerate(record["weights"]):
            if k < record["frames"]:
                total += 1
                hits += int(np.argmax(row) == k)
    rate = hits / max(1, total)
    report(8, "attention alignment probe", rate >= 0.80,
           f"{hits}/{total} tokens attend their own segment ({rate:.1%})")


# ---------------------------------------------------------------------------
# 9. full-corpus scores are out of scope, but a real-shaped manifest ingests
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore:CIDEr idf is degenerate")
def test_criterion_9_full_manifest_ingestion(tmp_path):
    # a full-scale corpus layout: wav audio, 5 distinct crowd-style captions
    # per item, dev/val/eval splits. Published-benchmark numbers additionally
    # need pretrained event-tagger embeddings over thousands of clips, so
    # they are explicitly not asserted here; ingestion and scoring must work
    # unchanged.
    rng = np.random.default_rng(11)
    caption_bank = [
        ["water trickles over mossy rocks", "a small stream flows steadily",
         "water runs down a hillside", "a brook gurgles past",
         "flowing water splashes lightly"],
        ["a crowd murmurs in a hall", "people talk over each other",
         "many voices blend together", "a busy room hums with chatter",
         "indistinct conversation fills the space"],
        ["rain patters against a window", "steady rain falls outside",
         "drops tap on the glass", "a shower passes over the house",
         "rain keeps falling softly"],
        ["a machine whirs in a workshop", "a motor runs at constant speed",
         "machinery hums along", "an engine idles nearby",
         "a device buzzes continuously"],
    ]
    entries = []
    for i, captions in enumerate(caption_bank):
        wav = tmp_path / f"clip_{i}.wav"
        write_wav(wav, Waveform(rng.uniform(-0.4, 0.4, int(16000 * 1.2)), 16000))
        split = ["dev", "dev", "val", "eval"][i]
        entries.append(ManifestEntry(f"clip_{i}", str(wav), captions, split))
    manifest = tmp_path / "manifest.jsonl"
    save_manifest(manifest, entries)
    config = TrainConfig(batch_size=4, initial_lr=1e-3, max_epochs=2, seed=0,
                         vocab_min_count=1, enc_hidden=8, attn_dim=8,
                         dec_hidden=8, word_dim=8,
                         augment=AugmentConfig())
    result = train(config, manifest, tmp_path / "run")
    eval_report = evaluate(result.checkpoint_path, manifest, split="eval", beam=3)
    fields = eval_report.to_dict()
    ok = (set(fields) == {"bleu_1", "bleu_2", "bleu_3", "bleu_4", "rouge_l",
                          "cider", "meteor"}
          and all(math.isfinite(v) for v in fields.values()))
    report(9, "full-shaped manifest ingestion (benchmark scores not a target)",
           ok, f"eval split scored: bleu_1={fields['bleu_1']:.3f}")
