import inspect
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from test_features import wav_bytes, write_wav

from aacap import cli, decoding, numerics, pipeline
from aacap.embeddings import save_embedding_file
from aacap.decoding import beam_search, greedy_decode_encoded
from aacap.errors import ConfigError, DataError
from aacap.features import AugmentConfig, Waveform
from aacap.model import CaptionModel, ModelConfig
from aacap.pipeline import (
    EXPECTED_CAPTIONS,
    TOY_EVENTS,
    ManifestEntry,
    PlateauScheduler,
    TrainConfig,
    caption_file,
    evaluate,
    export_attention,
    load_features,
    load_manifest,
    make_toy_dataset,
    parse_train_log,
    save_manifest,
    split_entries,
    train,
)
from aacap.text import END, PAD, START, decode

TINY_TRAIN = dict(batch_size=4, initial_lr=1e-2, max_epochs=3, seed=0,
                  vocab_min_count=1, enc_hidden=8, attn_dim=8, dec_hidden=8,
                  word_dim=8)


# ---------------------------------------------------------------------------
# plateau scheduler
# ---------------------------------------------------------------------------

def run_schedule(values, patience=3, factor=0.5, lr=1e-4):
    sched = PlateauScheduler(lr, factor, patience)
    used = []
    for value in values:
        used.append(sched.lr)
        sched.observe(value)
    return used


def test_plateau_halves_after_three_stagnant_epochs():
    assert run_schedule([0.3, 0.3, 0.3, 0.3, 0.3]) == \
        [1e-4, 1e-4, 1e-4, 1e-4, 5e-5]


def test_plateau_counter_resets_after_halving():
    used = run_schedule([0.3] * 8)
    assert used == [1e-4, 1e-4, 1e-4, 1e-4, 5e-5, 5e-5, 5e-5, 2.5e-5]


def test_plateau_improvement_resets_counter():
    used = run_schedule([0.3, 0.3, 0.3, 0.4, 0.4, 0.4, 0.4])
    # improvement at epoch 4 restarts the window; halving waits until epoch 7
    assert used == [1e-4] * 7
    assert run_schedule([0.3, 0.3, 0.3, 0.4, 0.4, 0.4, 0.4, 0.4])[-1] == 5e-5


def test_plateau_tiny_improvement_does_not_reset():
    used = run_schedule([0.3, 0.3 + 1e-9, 0.3, 0.3, 0.3])
    assert used[-1] == 5e-5


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def test_manifest_round_trip(tmp_path):
    payload = tmp_path / "clip.aace"
    from aacap.embeddings import save_embedding_file

    save_embedding_file(payload, np.ones((2, 3)))
    entries = [ManifestEntry("x1", str(payload), ["a"] * 5, "dev"),
               ManifestEntry("x2", str(payload), ["b"] * 5, "val")]
    path = tmp_path / "manifest.jsonl"
    save_manifest(path, entries)
    loaded = load_manifest(path)
    assert [e.id for e in loaded] == ["x1", "x2"]
    assert split_entries(loaded, "val")[0].captions == ["b"] * 5


def test_save_manifest_bytes_equal_the_field_by_field_writer(tmp_path):
    entries = [ManifestEntry("x1", "/data/a b.aace", ["a dog barks", "caf\u00e9 \"noise\""],
                             "dev"),
               ManifestEntry("x2", "clip.wav", [], "eval")]
    path = tmp_path / "manifest.jsonl"
    save_manifest(path, entries)
    want = "".join(json.dumps({"id": e.id, "path": e.path, "captions": e.captions,
                               "split": e.split}) + "\n" for e in entries)
    assert path.read_bytes() == want.encode("utf-8")


def test_manifest_rejects_unknown_split(tmp_path):
    path = tmp_path / "manifest.jsonl"
    path.write_text(json.dumps({"id": "a", "path": "f", "captions": [],
                                "split": "test"}) + "\n")
    with pytest.raises(DataError):
        load_manifest(path)


def test_manifest_rejects_missing_file(tmp_path):
    path = tmp_path / "manifest.jsonl"
    path.write_text(json.dumps({"id": "a", "path": "absent.aace",
                                "captions": ["x"] * 5, "split": "dev"}) + "\n")
    with pytest.raises(DataError):
        load_manifest(path)


def test_manifest_warns_on_fewer_captions(tmp_path):
    payload = tmp_path / "clip.aace"
    from aacap.embeddings import save_embedding_file

    save_embedding_file(payload, np.ones((2, 3)))
    path = tmp_path / "manifest.jsonl"
    path.write_text(json.dumps({"id": "a", "path": str(payload),
                                "captions": ["one", "two"], "split": "dev"}) + "\n")
    with pytest.warns(UserWarning):
        load_manifest(path)


def test_manifest_rejects_garbage_line(tmp_path):
    path = tmp_path / "manifest.jsonl"
    path.write_text("{not json\n")
    with pytest.raises(DataError):
        load_manifest(path)


def test_manifest_may_open_with_a_byte_order_mark_but_no_later_line_may(tmp_path):
    manifest = make_toy_dataset(tmp_path, seed=0, n_items=3)
    lines = manifest.read_bytes().splitlines(keepends=True)
    bom = "\ufeff".encode("utf-8")
    marked = tmp_path / "marked.jsonl"
    marked.write_bytes(bom + b"".join(lines))
    assert load_manifest(marked) == load_manifest(manifest)
    marked.write_bytes(bom + lines[0] + bom + b"".join(lines[1:]))
    with pytest.raises(DataError, match=f"{marked}:2: bad manifest record"):
        load_manifest(marked)


# ---------------------------------------------------------------------------
# toy dataset
# ---------------------------------------------------------------------------

def test_toy_dataset_deterministic(tmp_path):
    m1 = make_toy_dataset(tmp_path / "a", seed=3, n_items=4)
    m2 = make_toy_dataset(tmp_path / "b", seed=3, n_items=4)
    assert m1.read_text() != ""
    e1, e2 = load_manifest(m1), load_manifest(m2)
    assert [e.captions for e in e1] == [e.captions for e in e2]
    for a, b in zip(e1, e2):
        if a.split == "dev":
            assert np.array_equal(load_features(a.path), load_features(b.path))


def test_toy_dataset_structure(tmp_path):
    manifest = make_toy_dataset(tmp_path, seed=0, n_items=8)
    entries = load_manifest(manifest)
    dev = split_entries(entries, "dev")
    assert len(dev) == 8
    assert all(len(e.captions) == EXPECTED_CAPTIONS for e in dev)
    assert split_entries(entries, "val") and split_entries(entries, "eval")
    words = {w for e in dev for w in e.captions[0].split()}
    assert len(words) >= 6
    assert words <= set(TOY_EVENTS)


def test_toy_dataset_variable_lengths(tmp_path):
    manifest = make_toy_dataset(tmp_path, seed=1, n_items=10,
                                segments_per_item=(3, 6))
    lengths = {load_features(e.path).shape[0] for e in
               split_entries(load_manifest(manifest), "dev")}
    assert lengths <= {3, 4, 5, 6}
    assert len(lengths) > 1


def test_toy_dataset_rejects_tiny_config(tmp_path):
    with pytest.raises(ConfigError):
        make_toy_dataset(tmp_path, n_items=1)


# ---------------------------------------------------------------------------
# padding correctness
# ---------------------------------------------------------------------------

def test_padded_forward_matches_unpadded():
    cfg = ModelConfig(embed_dim=6, vocab_size=6, enc_hidden=4, attn_dim=4,
                      dec_hidden=6, word_dim=4)
    model = CaptionModel(cfg, seed=0)
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(3, 6))
    longer = rng.normal(size=(5, 6))
    target = [START, 4, 5, END] + [PAD] * 16
    plain = model.forward_teacher_forced([matrix], [target])
    # in a batch with a 5-frame row, matrix's E and attention are padded to 5
    # frames; the longer row has no target step and adds no loss
    masked = model.forward_teacher_forced([matrix, longer], [target, [START]])
    assert masked.loss == pytest.approx(plain.loss, abs=1e-12)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_train_writes_checkpoint_and_parseable_log(tmp_path):
    manifest = make_toy_dataset(tmp_path / "toy", seed=0, n_items=4)
    result = train(TrainConfig(**TINY_TRAIN), manifest, tmp_path / "run")
    assert result.checkpoint_path.exists()
    rows = parse_train_log(result.log_path)
    assert [r["epoch"] for r in rows] == [1, 2, 3]
    assert rows[0]["lr"] == pytest.approx(1e-2)
    assert all(math.isfinite(r["loss"]) for r in rows)
    assert result.losses == pytest.approx([r["loss"] for r in rows], abs=1e-6)


def test_train_deterministic_given_seed(tmp_path):
    manifest = make_toy_dataset(tmp_path / "toy", seed=0, n_items=4)
    a = train(TrainConfig(**TINY_TRAIN), manifest, tmp_path / "run_a")
    b = train(TrainConfig(**TINY_TRAIN), manifest, tmp_path / "run_b")
    assert a.losses == b.losses
    assert a.val_bleu4 == b.val_bleu4
    other = train(TrainConfig(**{**TINY_TRAIN, "seed": 1}), manifest, tmp_path / "run_c")
    assert other.losses != a.losses


def test_train_requires_dev_and_val(tmp_path):
    manifest = make_toy_dataset(tmp_path / "toy", seed=0, n_items=4)
    entries = [e for e in load_manifest(manifest) if e.split == "dev"]
    stripped = tmp_path / "dev_only.jsonl"
    save_manifest(stripped, entries)
    with pytest.raises(DataError):
        train(TrainConfig(**TINY_TRAIN), stripped, tmp_path / "run")


def test_train_lr_halves_on_stagnant_validation(tmp_path):
    # val captions have three words, so BLEU-4 has no 4-grams to match and
    # stays at 0.0; the schedule must follow exactly
    manifest = make_toy_dataset(tmp_path / "toy", seed=0, n_items=4)
    entries = load_manifest(manifest)
    for entry in entries:
        if entry.split == "val":
            entry.captions = ["drum beep chime"] * 5
    scripted = tmp_path / "scripted.jsonl"
    save_manifest(scripted, entries)
    config = TrainConfig(**{**TINY_TRAIN, "max_epochs": 5, "initial_lr": 1e-4})
    result = train(config, scripted, tmp_path / "run")
    assert result.val_bleu4 == [0.0] * 5
    assert [row["lr"] for row in parse_train_log(result.log_path)] == [
        1e-4, 1e-4, 1e-4, 1e-4, 5e-5]


def test_train_aborts_on_non_finite_loss(tmp_path, monkeypatch):
    from aacap.model import ForwardResult

    manifest = make_toy_dataset(tmp_path / "toy", seed=0, n_items=2)

    def poisoned(self, matrices, targets):
        return ForwardResult(float("nan"), None)

    monkeypatch.setattr(CaptionModel, "forward_teacher_forced", poisoned)
    with pytest.raises(FloatingPointError) as exc:
        train(TrainConfig(**TINY_TRAIN), manifest, tmp_path / "run")
    assert "batch" in str(exc.value)


def _spy_on_batches(monkeypatch) -> list:
    """Records the frame counts of the matrices of every teacher-forced call."""
    calls = []
    original = CaptionModel.forward_teacher_forced

    def spy(self, matrices, targets):
        calls.append([len(m) for m in matrices])
        return original(self, matrices, targets)

    monkeypatch.setattr(CaptionModel, "forward_teacher_forced", spy)
    return calls


def test_train_runs_a_batch_as_one_call_with_one_row_per_sample(tmp_path, monkeypatch):
    manifest = make_toy_dataset(tmp_path / "toy", seed=3, n_items=2, segments_per_item=(2, 4))
    calls = _spy_on_batches(monkeypatch)
    train(TrainConfig(**{**TINY_TRAIN, "batch_size": 10, "max_epochs": 2}), manifest,
          tmp_path / "run")
    frames = sorted(load_features(e.path).shape[0]
                    for e in split_entries(load_manifest(manifest), "dev"))
    assert len(calls) == 2  # one call per batch: two epochs of one batch
    for lengths in calls:
        assert len(lengths) == 10 and max(lengths) == max(frames)
        assert sorted(lengths) == sorted(frames * 5)


def test_train_splits_a_batch_over_the_frame_budget(tmp_path, monkeypatch):
    manifest = make_toy_dataset(tmp_path / "toy", seed=3, n_items=2, segments_per_item=(2, 4))
    config = TrainConfig(**{**TINY_TRAIN, "batch_size": 10, "max_epochs": 2})
    whole = train(config, manifest, tmp_path / "whole")
    longest = max(load_features(e.path).shape[0]
                  for e in split_entries(load_manifest(manifest), "dev"))
    monkeypatch.setattr(pipeline, "TRAIN_FRAME_BUDGET", 3 * longest + 1)
    calls = _spy_on_batches(monkeypatch)
    split = train(config, manifest, tmp_path / "split")
    # two epochs of one batch of 10, each as calls of 3, 3, 2 and 2 rows
    assert [len(lengths) for lengths in calls] == [3, 3, 2, 2] * 2
    assert all(len(lengths) * max(lengths) <= 3 * longest for lengths in calls)
    assert split.losses == pytest.approx(whole.losses, rel=1e-9, abs=0.0)
    assert split.val_bleu4 == whole.val_bleu4
    split_model, _ = CaptionModel.load(split.checkpoint_path)
    whole_model, _ = CaptionModel.load(whole.checkpoint_path)
    for a, b in zip(split_model.parameters(), whole_model.parameters(), strict=True):
        assert np.allclose(a.value, b.value, rtol=1e-9, atol=1e-12), a.name


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lr_factor=1.5)
    with pytest.raises(ConfigError):
        TrainConfig(plateau_patience=0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    for lr in (-1.0, 0.0, math.nan, math.inf, math.nextafter(pipeline.MAX_LR, math.inf),
               1.5, 2.0**63):
        with pytest.raises(ConfigError, match="initial_lr"):
            TrainConfig(initial_lr=lr)
    assert TrainConfig(initial_lr=pipeline.MAX_LR).initial_lr == pipeline.MAX_LR


# ---------------------------------------------------------------------------
# evaluation, captioning, attention export
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trained")
    manifest = make_toy_dataset(tmp / "toy", seed=0, n_items=4)
    result = train(TrainConfig(**{**TINY_TRAIN, "max_epochs": 10}),
                   manifest, tmp / "run")
    return manifest, result


@pytest.mark.filterwarnings("ignore:CIDEr idf is degenerate")
def test_evaluate_checkpoint_round_trip(trained):
    manifest, result = trained
    first = evaluate(result.checkpoint_path, manifest, split="eval", beam=2)
    second = evaluate(result.checkpoint_path, manifest, split="eval", beam=2)
    assert first.to_dict() == second.to_dict()


@pytest.mark.parametrize("budget,n_calls", [(6, 11), (20, None), (1024, 1)])
def test_evaluate_in_budgeted_encode_calls_equals_per_item_decoding(tmp_path, monkeypatch,
                                                                    budget, n_calls):
    # items of 1-8 frames: at budget 6 each is a call of its own, some of
    # them over the budget; at 20 a call holds two or three; at 1024 one
    # call holds the split
    manifest = make_toy_dataset(tmp_path / "toy", seed=5, n_items=11,
                                segments_per_item=(1, 8))
    entries = split_entries(load_manifest(manifest), "dev")
    words = ["<PAD>", "<START>", "<END>", "<UNK>"] + TOY_EVENTS
    model = CaptionModel(ModelConfig(embed_dim=16, vocab_size=len(words), enc_hidden=8,
                                     attn_dim=8, dec_hidden=8, word_dim=8), seed=2)
    model.save(tmp_path / "model.ckpt", extra_config={"vocab": words})
    want = [beam_search(model, model.encode(load_features(entry.path)), beam=3).tokens
            for entry in entries]
    got, calls = [], []
    search, encode = pipeline.beam_search, CaptionModel.encode

    def capture(*args, **kwargs):
        hyp = search(*args, **kwargs)
        got.append(hyp.tokens)
        return hyp

    def count(self, inputs):
        # the frame counts of a batch call, a list of matrices; None for one matrix
        calls.append([len(m) for m in inputs] if isinstance(inputs, list) else None)
        return encode(self, inputs)
    monkeypatch.setattr(pipeline, "ENCODE_FRAME_BUDGET", budget)
    monkeypatch.setattr(pipeline, "beam_search", capture)
    monkeypatch.setattr(CaptionModel, "encode", count)
    evaluate(tmp_path / "model.ckpt", manifest, split="dev", beam=3)
    assert got == want
    assert None not in calls
    assert sum(len(lengths) for lengths in calls) == len(entries)
    assert all(len(lengths) == 1 or len(lengths) * max(lengths) <= budget for lengths in calls)
    if n_calls is None:
        assert 1 < len(calls) < len(entries)
    else:
        assert len(calls) == n_calls


def test_untrained_model_scores_near_zero(tmp_path):
    # random decoder output should not accidentally match 4-grams
    manifest = make_toy_dataset(tmp_path / "toy", seed=3, n_items=6)
    config = TrainConfig(**{**TINY_TRAIN, "max_epochs": 1, "initial_lr": 1e-12})
    result = train(config, manifest, tmp_path / "run")
    assert result.checkpoint_path == tmp_path / "run" / "model.ckpt"
    assert result.checkpoint_path.exists()  # a one-epoch run saves its checkpoint
    report = evaluate(result.checkpoint_path, manifest, split="dev", beam=3)
    assert report.bleu_4 < 0.05


def test_evaluate_unknown_split_empty(trained, tmp_path):
    manifest, result = trained
    with pytest.raises(ConfigError):
        evaluate(result.checkpoint_path, manifest, split="nope")


def test_caption_beam_one_equals_greedy(trained):
    manifest, result = trained
    model, vocab = pipeline.load_checkpoint(result.checkpoint_path)
    for entry in split_entries(load_manifest(manifest), "dev"):
        ids, _ = greedy_decode_encoded(model, model.encode(load_features(entry.path)))
        beam_one = caption_file(result.checkpoint_path, entry.path,
                                beam=1, length_normalize=False)
        assert beam_one == decode(ids, vocab)


def test_caption_rejects_wrong_feature_dim(trained, tmp_path):
    from aacap.embeddings import save_embedding_file
    from aacap.errors import DataError

    manifest, result = trained
    bad = tmp_path / "wrong.aace"
    save_embedding_file(bad, np.zeros((3, 7)))
    with pytest.raises(DataError, match="feature dim 7"):
        caption_file(result.checkpoint_path, bad)


def test_export_attention_structure(trained, tmp_path):
    manifest, result = trained
    entry = split_entries(load_manifest(manifest), "dev")[0]
    out = tmp_path / "trace.json"
    record = export_attention(result.checkpoint_path, entry.path, out,
                              item_id=entry.id)
    on_disk = json.loads(out.read_text())
    assert on_disk == record
    assert record["id"] == entry.id
    assert record["frames"] == load_features(entry.path).shape[0]
    caption = caption_file(result.checkpoint_path, entry.path, beam=1, length_normalize=False)
    assert len(record["tokens"]) == len(caption.split())
    assert len(record["weights"]) == len(record["tokens"])
    for row in record["weights"]:
        assert len(row) == record["frames"]
        assert sum(row) == pytest.approx(1.0, abs=1e-6)
        assert all(w >= 0.0 for w in row)


# ---------------------------------------------------------------------------
# wav (spectrogram baseline) path
# ---------------------------------------------------------------------------

def _write_noise_wav(path, seconds=1.0, seed=0):
    rng = np.random.default_rng(seed)
    samples = rng.uniform(-0.3, 0.3, int(16000 * seconds))
    write_wav(path, Waveform(samples, 16000))


def test_load_features_from_wav(tmp_path):
    wav = tmp_path / "noise.wav"
    _write_noise_wav(wav)
    matrix = load_features(wav)
    assert matrix.shape[1] == 64
    assert matrix.shape[0] > 50


def test_train_on_wav_manifest_with_augment(tmp_path):
    entries = []
    for i in range(2):
        wav = tmp_path / f"clip_{i}.wav"
        _write_noise_wav(wav, seconds=0.8 + 0.3 * i, seed=i)
        caption = ["soft noise hiss"] * 5
        entries.append(ManifestEntry(f"w{i}", str(wav), caption, "dev"))
    entries.append(ManifestEntry("wv", entries[0].path, entries[0].captions, "val"))
    manifest = tmp_path / "wav_manifest.jsonl"
    save_manifest(manifest, entries)
    config = TrainConfig(**{**TINY_TRAIN, "max_epochs": 2},
                         augment=AugmentConfig(apply_probability=1.0))
    result = train(config, manifest, tmp_path / "run")
    assert result.checkpoint_path.exists()
    assert all(math.isfinite(loss) for loss in result.losses)


def _paper_dims_manifest(root: Path) -> Path:
    """Eight dev items of T = 30-61 segments of 128 features and five
    captions of 8-20 words each, and one val item."""
    rng = np.random.default_rng(5)
    words = [f"w{k}" for k in range(40)]
    entries = []
    for i in range(8):
        save_embedding_file(root / f"e{i}.aace",
                            rng.normal(size=(int(rng.integers(30, 62)), 128)))
        captions = [" ".join(rng.choice(words, size=int(rng.integers(8, 21))))
                    for _ in range(EXPECTED_CAPTIONS)]
        entries.append(ManifestEntry(f"p{i}", f"e{i}.aace", captions, "dev"))
    entries.append(replace(entries[0], id="pv", split="val"))
    save_manifest(root / "manifest.jsonl", entries)
    return root / "manifest.jsonl"


def test_train_at_paper_dims_writes_the_same_bytes_in_two_fresh_processes(tmp_path):
    # five Adam steps: the first step from zero moments is about -lr * sign(g),
    # which a last-bit gradient difference does not move
    manifest = _paper_dims_manifest(tmp_path)
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(pipeline.__file__).parents[1])
    outputs = []
    for run in ("a", "b"):
        subprocess.run([sys.executable, "-m", "aacap.cli", "train", "--manifest",
                        str(manifest), "--out-dir", str(tmp_path / run), "--epochs", "1",
                        "--batch-size", "8", "--min-count", "1"],
                       env=env, check=True, capture_output=True, timeout=120)
        outputs.append([(tmp_path / run / name).read_bytes()
                        for name in ("model.ckpt", "train.log")])
    assert outputs[0] == outputs[1]


def test_train_runs_at_one_blas_thread_and_puts_the_callers_count_back(tmp_path,
                                                                       monkeypatch):
    calls = numerics._openblas_thread_calls()
    if calls is None:
        pytest.skip("no OpenBLAS loaded")
    get, _ = calls
    seen = []

    def counted(group, lr):
        seen.append(get())
        return numerics.adam_step(group, lr)
    monkeypatch.setattr(pipeline, "adam_step", counted)
    monkeypatch.setattr(pipeline, "MAX_LR", math.inf)  # let a divergent rate through
    manifest = make_toy_dataset(tmp_path / "toy", seed=0, n_items=4)
    with numerics.blas_threads(2):
        before = get()
        train(TrainConfig(**{**TINY_TRAIN, "max_epochs": 1}), manifest, tmp_path / "run")
        assert get() == before
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
            train(TrainConfig(**{**TINY_TRAIN, "initial_lr": 1e305}), manifest,
                  tmp_path / "diverged")
        assert get() == before
    assert seen and set(seen) == {1}


@pytest.mark.filterwarnings("ignore:CIDEr idf is degenerate")
def test_decodes_run_at_decode_blas_threads_and_put_the_callers_count_back(tmp_path,
                                                                           monkeypatch):
    calls = numerics._openblas_thread_calls()
    if calls is None:
        pytest.skip("no OpenBLAS loaded")
    get, _ = calls
    seen, failing = [], []
    search = decoding._search

    def counted(*args, **kwargs):
        seen.append(get())
        if failing:
            raise DataError("search failed")
        return search(*args, **kwargs)
    monkeypatch.setattr(decoding, "_search", counted)
    checkpoint, input_path = _cli_checkpoint(tmp_path)
    manifest = tmp_path / "toy" / "manifest.jsonl"
    wide_manifest = make_toy_dataset(tmp_path / "wide", seed=0, n_items=2, dim=12)
    wide_input = load_manifest(wide_manifest)[0].path
    runs = {  # each entry point, on a manifest and an input file of one dim
        "evaluate": lambda manifest, _: evaluate(checkpoint, manifest),
        "caption": lambda _, path: caption_file(checkpoint, path),
        "attn-export": lambda _, path: export_attention(checkpoint, path,
                                                        tmp_path / "attn.json"),
    }
    caller = 3 - numerics.DECODE_BLAS_THREADS  # a count the decodes do not run at
    with numerics.blas_threads(caller):
        assert get() == caller
        for name, run in runs.items():
            seen.clear()
            run(manifest, input_path)
            assert seen and set(seen) == {numerics.DECODE_BLAS_THREADS}, name
            assert get() == caller, name
            with pytest.raises(DataError, match="feature dim 12"):
                run(wide_manifest, wide_input)
            assert get() == caller, name
            failing.append(True)
            with pytest.raises(DataError, match="search failed"):
                run(manifest, input_path)
            failing.clear()
            assert get() == caller, name


def test_decode_blas_threads_is_one_on_one_cpu(tmp_path):
    if numerics._openblas_thread_calls() is None:
        pytest.skip("no OpenBLAS loaded")
    checkpoint, input_path = _cli_checkpoint(tmp_path)
    script = """
import json, os, sys
os.sched_getaffinity = lambda pid: {0}
from aacap import decoding, numerics, pipeline
get, _ = numerics._openblas_thread_calls()
seen = []
search = decoding._search
def counted(*args, **kwargs):
    seen.append(get())
    return search(*args, **kwargs)
decoding._search = counted
checkpoint, manifest, path, out = sys.argv[1:]
with numerics.blas_threads(2):
    pipeline.evaluate(checkpoint, manifest)
    pipeline.caption_file(checkpoint, path)
    pipeline.export_attention(checkpoint, path, out)
    after = get()
print(json.dumps([numerics.DECODE_BLAS_THREADS, sorted(set(seen)), len(seen), after]))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-W", "ignore", "-c", script, str(checkpoint),
                           str(tmp_path / "toy" / "manifest.jsonl"), str(input_path),
                           str(tmp_path / "attn.json")],
                          env=env, check=True, capture_output=True, text=True, timeout=120)
    assert json.loads(done.stdout) == [1, [1], 3, 2]


def test_a_decode_is_bit_identical_at_one_and_two_blas_threads():
    calls = numerics._openblas_thread_calls()
    if calls is None:
        pytest.skip("no OpenBLAS found, so the BLAS thread count cannot be set")
    get, _ = calls
    # paper hidden dims; V = 1000 makes each step's (rows, d_h) x (d_h, V)
    # product large enough for OpenBLAS to split it across threads
    model = CaptionModel(ModelConfig(embed_dim=128, vocab_size=1000), seed=0)
    rng = np.random.default_rng(3)
    matrices = [rng.normal(size=(int(rng.integers(30, 62)), 128)) for _ in range(12)]
    runs = []
    for threads in (1, 2):
        with numerics.blas_threads(threads):
            if get() != threads:
                pytest.skip(f"this OpenBLAS runs at most {get()} thread(s)")
            encodings = list(pipeline.encode_in_calls(model, matrices))
            hyps = [beam_search(model, enc, beam=3) for enc in encodings]
        runs.append((encodings, hyps))
    (encodings_1, hyps_1), (encodings_2, hyps_2) = runs
    for one, two in zip(encodings_1, encodings_2, strict=True):
        for name in ("values", "keys", "context_gates"):
            assert np.array_equal(getattr(one, name), getattr(two, name)), name
    for one, two in zip(hyps_1, hyps_2, strict=True):
        assert one.tokens == two.tokens
        assert one.log_prob == two.log_prob
        assert len(one.attention) == len(two.attention) == one.emitted
        for row_1, row_2 in zip(one.attention, two.attention):
            assert np.array_equal(row_1, row_2)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore:CIDEr idf is degenerate")
def test_cli_end_to_end(tmp_path, capsys):
    toy_dir = tmp_path / "toy"
    assert cli.main(["make-toy", "--out-dir", str(toy_dir), "--seed", "0",
                     "--n-items", "4"]) == 0
    manifest = capsys.readouterr().out.strip()

    run_dir = tmp_path / "run"
    assert cli.main(["train", "--manifest", manifest, "--out-dir", str(run_dir),
                     "--epochs", "2", "--batch-size", "4", "--lr", "0.01",
                     "--min-count", "1", "--enc-hidden", "8", "--attn-dim", "8",
                     "--dec-hidden", "8", "--word-dim", "8"]) == 0
    checkpoint = run_dir / "model.ckpt"
    assert checkpoint.exists()
    capsys.readouterr()

    report_path = tmp_path / "report.json"
    assert cli.main(["evaluate", "--checkpoint", str(checkpoint), "--manifest",
                     manifest, "--split", "eval", "--beam", "2", "--out",
                     str(report_path)]) == 0
    printed = capsys.readouterr().out
    assert "bleu_1" in printed
    assert set(json.loads(report_path.read_text())) == {
        "bleu_1", "bleu_2", "bleu_3", "bleu_4", "rouge_l", "cider", "meteor"}

    entry = split_entries(load_manifest(manifest), "dev")[0]
    assert cli.main(["caption", "--checkpoint", str(checkpoint), "--input",
                     entry.path, "--beam", "1", "--no-length-norm"]) == 0
    assert capsys.readouterr().out == caption_file(checkpoint, entry.path, beam=1,
                                                   length_normalize=False) + "\n"

    trace_path = tmp_path / "trace.json"
    assert cli.main(["attn-export", "--checkpoint", str(checkpoint), "--input",
                     entry.path, "--out", str(trace_path)]) == 0
    assert trace_path.exists()


def test_cli_caption_has_no_mode_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["caption", "--checkpoint", "c", "--input", "i", "--mode", "greedy"])
    assert exc.value.code == 2
    assert "--mode" in capsys.readouterr().err


def test_cli_config_error_exit_code(tmp_path):
    toy_dir = tmp_path / "toy"
    cli.main(["make-toy", "--out-dir", str(toy_dir), "--n-items", "4"])
    manifest = str(toy_dir / "manifest.jsonl")
    code = cli.main(["train", "--manifest", manifest, "--out-dir",
                     str(tmp_path / "run"), "--lr-factor", "1.5"])
    assert code == 2


def test_cli_data_error_exit_code(tmp_path):
    code = cli.main(["train", "--manifest", str(tmp_path / "absent.jsonl"),
                     "--out-dir", str(tmp_path / "run")])
    assert code == 3


@pytest.mark.parametrize("lr", ["-1", "nan", "1.5", str(2**63)])
def test_cli_train_bad_learning_rate_exits_2(tmp_path, capsys, lr):
    manifest = make_toy_dataset(tmp_path / "toy", seed=0, n_items=4)
    code = cli.main(["train", "--manifest", str(manifest), "--out-dir",
                     str(tmp_path / "run"), "--lr", lr])
    assert code == 2
    assert "initial_lr" in capsys.readouterr().err


def test_cli_negative_seed_exits_2(tmp_path, capsys):
    toy_dir = tmp_path / "toy"
    assert cli.main(["make-toy", "--out-dir", str(toy_dir), "--seed", "-1"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not toy_dir.exists()
    manifest = make_toy_dataset(toy_dir, seed=0, n_items=4)
    assert cli.main(["train", "--manifest", str(manifest), "--out-dir",
                     str(tmp_path / "run"), "--seed", "-1"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["evaluate", "caption", "attn-export"])
def test_cli_seed_flag_removed_where_nothing_reads_it(command):
    required = {"evaluate": ["--checkpoint", "c", "--manifest", "m"],
                "caption": ["--checkpoint", "c", "--input", "i"],
                "attn-export": ["--checkpoint", "c", "--input", "i", "--out", "o"]}
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *required[command], "--seed", "0"])
    assert exc.value.code == 2


class _Called(Exception):
    """Raised in place of the library call a CLI command makes, with its arguments."""


def _called(monkeypatch, argv, target):
    """(args, kwargs) that `aacap <argv>` passes to cli.<target>."""
    def stop(*args, **kwargs):
        raise _Called(args, kwargs)
    monkeypatch.setattr(cli, target, stop)
    with pytest.raises(_Called) as exc:
        cli.main(argv)
    return exc.value.args


@pytest.mark.parametrize("flags, augment", [([], None), (["--augment"], AugmentConfig())],
                         ids=["plain", "augment"])
def test_cli_train_defaults_build_the_default_configs(monkeypatch, flags, augment):
    (config, *_), _ = _called(monkeypatch, ["train", "--manifest", "m", "--out-dir", "o",
                                            *flags], "train")
    assert config == TrainConfig(augment=augment)


@pytest.mark.parametrize("argv, target", [
    (["make-toy", "--out-dir", "o"], "make_toy_dataset"),
    (["evaluate", "--checkpoint", "c", "--manifest", "m"], "evaluate"),
    (["caption", "--checkpoint", "c", "--input", "i"], "caption_file"),
], ids=["make-toy", "evaluate", "caption"])
def test_cli_defaults_are_the_library_defaults(monkeypatch, argv, target):
    signature = inspect.signature(getattr(cli, target))
    args, kwargs = _called(monkeypatch, argv, target)
    passed = signature.bind(*args, **kwargs).arguments
    defaulted = [name for name, p in signature.parameters.items()
                 if name in passed and p.default is not inspect.Parameter.empty]
    assert len(defaulted) >= 2
    for name in defaulted:
        assert passed[name] == signature.parameters[name].default, name


def _manifest_line(tmp_path, captions, encoding="utf-8") -> bytes:
    from aacap.embeddings import save_embedding_file

    save_embedding_file(tmp_path / "clip.aace", np.ones((2, 3)))
    return json.dumps({"id": "a", "path": "clip.aace", "captions": captions,
                       "split": "dev"}, ensure_ascii=False).encode(encoding) + b"\n"


@pytest.mark.parametrize("captions", ["a dog barks", [5, "a dog barks", "b", "c", "d"]],
                         ids=["string", "non-string-caption"])
def test_cli_manifest_with_bad_captions_exits_3(tmp_path, capsys, captions):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_bytes(_manifest_line(tmp_path, ["fine"] * 5)
                         + _manifest_line(tmp_path, captions))
    code = cli.main(["train", "--manifest", str(manifest), "--out-dir",
                     str(tmp_path / "run"), "--min-count", "1"])
    assert code == 3
    assert f"{manifest}:2: captions must be a list of strings" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_manifest_not_utf8_exits_3(tmp_path, capsys):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_bytes(_manifest_line(tmp_path, ["fine"] * 5)
                         + _manifest_line(tmp_path, ["caf\u00e9"] * 5, encoding="latin-1"))
    code = cli.main(["train", "--manifest", str(manifest), "--out-dir",
                     str(tmp_path / "run")])
    assert code == 3
    assert f"{manifest}:2: not UTF-8" in capsys.readouterr().err


def test_cli_checkpoint_that_is_a_directory_exits_3(tmp_path, capsys):
    _, input_path = _cli_checkpoint(tmp_path)
    code = cli.main(["caption", "--checkpoint", str(tmp_path), "--input", input_path])
    assert code == 3
    assert capsys.readouterr().err.startswith("data error: ")


def _blank_captions(manifest, split):
    """Empties the captions of the first item of a split; returns that item."""
    entries = load_manifest(manifest)
    target = next(e for e in entries if e.split == split)
    target.captions = []
    save_manifest(manifest, entries)
    return target


@pytest.mark.filterwarnings("ignore:.*0 captions")
def test_cli_train_rejects_an_uncaptioned_val_item_before_training(tmp_path, capsys):
    manifest = make_toy_dataset(tmp_path / "toy", seed=0, n_items=2)
    target = _blank_captions(manifest, "val")
    run_dir = tmp_path / "run"
    code = cli.main(["train", "--manifest", str(manifest), "--out-dir", str(run_dir),
                     "--min-count", "1", "--enc-hidden", "4", "--attn-dim", "4",
                     "--dec-hidden", "4", "--word-dim", "4"])
    assert code == 3
    assert f"val item {target.id!r} has no captions" in capsys.readouterr().err
    assert not (run_dir / "train.log").exists()


@pytest.mark.filterwarnings("ignore:.*0 captions")
def test_cli_evaluate_rejects_an_uncaptioned_item_of_its_split_only(trained, tmp_path,
                                                                   capsys):
    manifest, result = trained
    held_out = tmp_path / "held_out.jsonl"
    save_manifest(held_out, load_manifest(manifest))
    target = _blank_captions(held_out, "eval")
    code = cli.main(["evaluate", "--checkpoint", str(result.checkpoint_path),
                     "--manifest", str(held_out), "--split", "eval"])
    assert code == 3
    assert f"eval item {target.id!r} has no captions" in capsys.readouterr().err
    # a split that is not scored may hold items without references
    assert cli.main(["evaluate", "--checkpoint", str(result.checkpoint_path),
                     "--manifest", str(held_out), "--split", "val", "--beam", "1"]) == 0


def test_cli_train_non_finite_loss_exits_3(tmp_path, capsys, monkeypatch):
    manifest = make_toy_dataset(tmp_path / "toy", seed=0, n_items=4)
    monkeypatch.setattr(pipeline, "MAX_LR", math.inf)  # let a divergent rate through
    with np.errstate(all="ignore"):
        code = cli.main(["train", "--manifest", str(manifest), "--out-dir",
                         str(tmp_path / "run"), "--lr", "1e305", "--batch-size", "4",
                         "--min-count", "1", "--enc-hidden", "8", "--attn-dim", "8",
                         "--dec-hidden", "8", "--word-dim", "8"])
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical error: ")


def test_cli_shape_error_exits_3(tmp_path, capsys, monkeypatch):
    from aacap.errors import ShapeError

    def mismatched(*args, **kwargs):
        raise ShapeError("mixed feature dims in batch: [3, 4]")

    monkeypatch.setattr(cli, "evaluate", mismatched)
    code = cli.main(["evaluate", "--checkpoint", "c", "--manifest", "m"])
    assert code == 3
    assert capsys.readouterr().err == "data error: mixed feature dims in batch: [3, 4]\n"


def test_cli_make_toy_config_error(tmp_path):
    code = cli.main(["make-toy", "--out-dir", str(tmp_path), "--n-items", "1"])
    assert code == 2


def _cli_checkpoint(tmp_path):
    model = CaptionModel(ModelConfig(embed_dim=16, vocab_size=6, enc_hidden=4, attn_dim=4,
                                     dec_hidden=4, word_dim=4), seed=0)
    checkpoint = tmp_path / "model.ckpt"
    model.save(checkpoint, extra_config={"vocab": ["<PAD>", "<START>", "<END>", "<UNK>",
                                                   "a", "b"]})
    manifest = make_toy_dataset(tmp_path / "toy", seed=0, n_items=2)
    return checkpoint, load_manifest(manifest)[0].path


@pytest.mark.parametrize("vocab", [
    {"<PAD>": 0, "<START>": 1, "<END>": 2, "<UNK>": 3, "a": 4, "b": 5},
    6,
    ["<PAD>", "<START>", "<END>", "<UNK>", "a", 7],
    ["<PAD>", "<START>", "<END>", "<UNK>", "a", "b", "c"],
    ["<PAD>", "<START>", "<END>", "<UNK>", "a"],
], ids=["dict", "int", "non-string", "longer", "shorter"])
def test_cli_checkpoint_with_a_bad_vocabulary_block_exits_3(tmp_path, capsys, vocab):
    checkpoint, input_path = _cli_checkpoint(tmp_path)
    model, _ = CaptionModel.load(checkpoint)
    model.save(checkpoint, extra_config={"vocab": vocab})
    code = cli.main(["caption", "--checkpoint", str(checkpoint), "--input", input_path])
    assert code == 3
    captured = capsys.readouterr()
    assert "vocabulary block is not a list of 6 strings" in captured.err
    assert captured.out == ""


def test_cli_corrupt_checkpoint_config_exits_3(tmp_path, capsys):
    checkpoint, input_path = _cli_checkpoint(tmp_path)
    data = bytearray(checkpoint.read_bytes())
    data[10] ^= 0xFF  # inside the JSON config block: no longer valid UTF-8
    checkpoint.write_bytes(bytes(data))
    code = cli.main(["caption", "--checkpoint", str(checkpoint), "--input", input_path])
    assert code == 3
    assert "bad config block" in capsys.readouterr().err


def test_cli_non_finite_checkpoint_exits_3(tmp_path, capsys):
    checkpoint, input_path = _cli_checkpoint(tmp_path)
    data = checkpoint.read_bytes()
    checkpoint.write_bytes(data[:-8] + np.array([np.nan], dtype="<f8").tobytes())
    code = cli.main(["caption", "--checkpoint", str(checkpoint), "--input", input_path])
    assert code == 3
    assert "non-finite" in capsys.readouterr().err


def test_cli_all_nan_input_exits_3(tmp_path, capsys):
    from test_embeddings import write_raw_aace

    checkpoint, _ = _cli_checkpoint(tmp_path)
    bad = tmp_path / "nan.aace"
    write_raw_aace(bad, np.full((3, 16), np.nan))
    code = cli.main(["caption", "--checkpoint", str(checkpoint), "--input", str(bad)])
    assert code == 3
    captured = capsys.readouterr()
    assert "non-finite" in captured.err
    assert captured.out == ""


def _write_empty_aace(path, t, f):
    import struct

    path.write_bytes(b"AACE" + struct.pack("<III", 1, t, f))


@pytest.mark.parametrize("t, f", [(0, 16), (3, 0)])
def test_cli_caption_empty_embedding_file_exits_3(tmp_path, capsys, t, f):
    checkpoint, _ = _cli_checkpoint(tmp_path)
    bad = tmp_path / "clip.aace"
    _write_empty_aace(bad, t, f)
    code = cli.main(["caption", "--checkpoint", str(checkpoint), "--input", str(bad)])
    assert code == 3
    assert f"empty {t}x{f} matrix" in capsys.readouterr().err


@pytest.mark.parametrize("t, f", [(0, 16), (3, 0)])
def test_cli_train_empty_embedding_file_exits_3(tmp_path, capsys, t, f):
    manifest = make_toy_dataset(tmp_path / "toy", seed=0, n_items=2)
    _write_empty_aace(Path(load_manifest(manifest)[0].path), t, f)
    code = cli.main(["train", "--manifest", str(manifest), "--out-dir", str(tmp_path / "run")])
    assert code == 3
    assert f"empty {t}x{f} matrix" in capsys.readouterr().err


def test_cli_train_augment_on_an_embedding_manifest_exits_2(tmp_path, capsys):
    manifest = make_toy_dataset(tmp_path / "toy", seed=0, n_items=2)
    run_dir = tmp_path / "run"
    code = cli.main(["train", "--manifest", str(manifest), "--out-dir", str(run_dir),
                     "--augment"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --augment")
    assert ".wav" in err
    assert not (run_dir / "model.ckpt").exists()


def test_cli_caption_wav_with_zero_sample_rate_exits_3(tmp_path, capsys):
    checkpoint, _ = _cli_checkpoint(tmp_path)
    bad = tmp_path / "rate0.wav"
    bad.write_bytes(wav_bytes(0))
    code = cli.main(["caption", "--checkpoint", str(checkpoint), "--input", str(bad)])
    assert code == 3
    assert "sample rate 0" in capsys.readouterr().err


def test_cli_wrong_feature_dim_input_exits_3(tmp_path, capsys):
    from aacap.embeddings import save_embedding_file

    checkpoint, _ = _cli_checkpoint(tmp_path)
    bad = tmp_path / "wrong.aace"
    save_embedding_file(bad, np.zeros((3, 7)))
    code = cli.main(["caption", "--checkpoint", str(checkpoint), "--input", str(bad)])
    assert code == 3
    assert "feature dim 7" in capsys.readouterr().err


def test_cli_huge_config_dim_checkpoint_exits_3(tmp_path, capsys):
    from test_model import _config_block, _rewrite_config

    checkpoint, input_path = _cli_checkpoint(tmp_path)
    config = _config_block(checkpoint)
    config["model"]["vocab_size"] = 10 ** 12
    _rewrite_config(checkpoint, json.dumps(config).encode("utf-8"))
    code = cli.main(["caption", "--checkpoint", str(checkpoint), "--input", input_path])
    assert code == 3
    assert "bytes of weights" in capsys.readouterr().err


def test_loading_a_checkpoint_imports_no_numpy_random(tmp_path):
    # a loaded model draws nothing, so its import and load need not pay for numpy.random
    import os
    import subprocess
    import sys

    checkpoint, _ = _cli_checkpoint(tmp_path)
    script = ("import sys\n"
              "from aacap.pipeline import load_checkpoint\n"
              f"load_checkpoint({str(checkpoint)!r})\n"
              "print('numpy.random' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parents[1])},
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_train_workload_matches_the_benchmark_reference(tmp_path):
    """The benchmark's `train` workload, seed 0: one epoch of pipeline.train on
    its generated paper-dims split, as that workload runs it, against
    perfbench/expected.json at its rtol."""
    import importlib.util

    repo = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  repo / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    info = inputs.make_train(0, tmp_path / "inputs")
    result = pipeline.train(TrainConfig(max_epochs=1, vocab_min_count=1, seed=0),
                            info["manifest"], tmp_path / "run")
    expected = json.loads((repo / "perfbench" / "expected.json").read_text())
    rtol = expected["rtol"]["train"]
    want = expected["workloads"]["train"]
    assert want.keys() == {"loss", "val_bleu4", "vocab_size"}
    assert result.losses[0] == pytest.approx(want["loss"], rel=rtol, abs=1e-12)
    assert result.val_bleu4[0] == pytest.approx(want["val_bleu4"], rel=rtol, abs=1e-12)
    assert len(result.vocab) == want["vocab_size"]
