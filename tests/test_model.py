import dataclasses
import json
import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aacap.errors import CorruptionError, FormatError, ShapeError
from aacap.features import bucket_pad
from aacap.model import AttentionStep, CaptionModel, EncoderOutput, ModelConfig
from aacap.numerics import softmax
from aacap.text import END, PAD, START

TINY = ModelConfig(embed_dim=8, vocab_size=6, enc_hidden=4, attn_dim=4,
                   dec_hidden=8, word_dim=8)


from refimpl import finite_diff_check, ref_attention, ref_encode, ref_teacher_forced_loss

# ---------------------------------------------------------------------------
# LSTM cell
# ---------------------------------------------------------------------------

def _zeroed_cell(input_dim=3, hidden_dim=2):
    from aacap.model import LstmCell

    cell = LstmCell("t", input_dim, hidden_dim, np.random.default_rng(0))
    for group in cell.params():
        group.value[...] = 0.0
    return cell


def test_lstm_cell_all_zero_parameters():
    # gates sit at 0.5, the candidate at 0, so the state never moves
    cell = _zeroed_cell()
    h, c, _ = cell.step(np.zeros(3), np.zeros(2), np.zeros(2), np.zeros(8))
    assert np.array_equal(h, np.zeros(2))
    assert np.array_equal(c, np.zeros(2))


def test_lstm_cell_scalar_oracle():
    # 1-unit cell with hand-set weights, reproduced with plain scalar algebra
    cell = _zeroed_cell(input_dim=1, hidden_dim=1)
    # gate columns in GATES order: forget, input, output, cell
    cell.w.value[...] = [[0.0, 0.3, -0.2, 0.5], [0.0, 0.0, 0.0, 0.0]]
    cell.b.value[...] = [0.4, 0.0, 0.0, 0.1]
    x = 0.8
    f = 1 / (1 + math.exp(-0.4))
    i = 1 / (1 + math.exp(-0.3 * x))
    o = 1 / (1 + math.exp(0.2 * x))
    g = math.tanh(0.5 * x + 0.1)
    c_expect = i * g  # c_prev = 0
    h_expect = o * math.tanh(c_expect)
    h, c, _ = cell.step(np.array([x]), np.zeros(1), np.zeros(1), np.zeros(4))
    assert c[0] == pytest.approx(c_expect, abs=1e-12)
    assert h[0] == pytest.approx(h_expect, abs=1e-12)


def test_lstm_cell_outputs_bounded():
    from aacap.model import LstmCell

    rng = np.random.default_rng(2)
    cell = LstmCell("t", 5, 7, rng)
    h = c = np.zeros(7)
    for _ in range(50):
        h, c, _ = cell.step(rng.uniform(-3, 3, 5), h, c, np.zeros(28))
        assert np.all(np.abs(h) < 1.0)


def test_lstm_cell_shape_error():
    cell = _zeroed_cell(input_dim=3, hidden_dim=2)
    with pytest.raises(ShapeError):
        cell.step(np.zeros(4), np.zeros(2), np.zeros(2), np.zeros(8))


def test_lstm_cell_fused_init_matches_per_gate_glorot_draws():
    from aacap.model import LstmCell

    cell = LstmCell("t", 5, 3, np.random.default_rng(42))
    rng = np.random.default_rng(42)
    limit = math.sqrt(6.0 / (8 + 3))
    blocks = [rng.uniform(-limit, limit, size=(8, 3)) for _ in LstmCell.GATES]
    assert [group.name for group in cell.params()] == ["t.w", "t.b"]
    assert np.array_equal(cell.w.value, np.concatenate(blocks, axis=1))
    assert np.array_equal(cell.b.value, [1.0, 1.0, 1.0] + [0.0] * 9)


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------

def test_encoder_single_step_shape_default_dims():
    model = CaptionModel(ModelConfig(embed_dim=16, vocab_size=6), seed=0)
    enc = model.encode(np.random.default_rng(0).normal(size=(1, 16)))
    assert enc.values.shape == (1, 512)
    assert enc.valid_length == 1


def test_encoder_matches_reference():
    model = CaptionModel(TINY, seed=1)
    m = np.random.default_rng(5).normal(size=(4, 8))
    enc = model.encode(m)
    assert np.allclose(enc.values, ref_encode(model, m, 4), atol=1e-12)


@pytest.mark.parametrize("valid", [3, 1])
def test_encoder_matches_reference_with_padded_frames(valid):
    model = CaptionModel(TINY, seed=1)
    m = np.random.default_rng(5).normal(size=(4, 8))
    enc = model.encode(m, valid_length=valid)
    assert np.allclose(enc.values, ref_encode(model, m, valid), atol=1e-12)


def test_encoder_padded_rows_zero():
    model = CaptionModel(TINY, seed=1)
    m = np.random.default_rng(6).normal(size=(5, 8))
    enc = model.encode(m, valid_length=3)
    assert np.array_equal(enc.values[3:], np.zeros((2, 8)))
    assert not np.allclose(enc.values[:3], 0.0)


def test_encoder_valid_length_beyond_t_rejected():
    model = CaptionModel(TINY, seed=1)
    with pytest.raises(ValueError):
        model.encode(np.zeros((3, 8)), valid_length=4)


def test_encoder_input_dim_mismatch():
    model = CaptionModel(TINY, seed=1)
    with pytest.raises(ShapeError):
        model.encode(np.zeros((3, 9)))


def _mirror_encoder(model):
    """Tie backward cells to forward ones and make second-layer input weights
    symmetric under swapping the two concatenated halves. Under that
    construction, reversing the input sequence must reverse E and swap its
    direction halves."""
    for layer in (model.encoder.layer1, model.encoder.layer2):
        layer.bwd.w.value[...] = layer.fwd.w.value
        layer.bwd.b.value[...] = layer.fwd.b.value
    hidden = model.encoder.layer2.hidden_dim
    for cell in (model.encoder.layer2.fwd, model.encoder.layer2.bwd):
        w = cell.w.value
        w[hidden:2 * hidden] = w[:hidden]


def test_encoder_reversal_swaps_direction_roles():
    model = CaptionModel(TINY, seed=3)
    _mirror_encoder(model)
    m = np.random.default_rng(7).normal(size=(5, 8))
    enc = model.encode(m).values
    enc_rev = model.encode(m[::-1].copy()).values
    swapped = np.concatenate([enc[::-1, 4:], enc[::-1, :4]], axis=1)
    assert np.allclose(enc_rev, swapped, atol=1e-12)


def _unpacked_encode(model, m, valid):
    """E of one matrix as the encoder computed it before rows were packed:
    padded frames zeroed, each direction's input projection one product over
    every frame, then one step per frame, padded ones included."""
    frames = len(m)
    t = np.arange(frames)
    order = np.where(t < valid, valid - 1 - t, t)
    x = np.where((t < valid)[:, None], m, 0.0)
    for layer in (model.encoder.layer1, model.encoder.layer2):
        halves = []
        for cell, seq in ((layer.fwd, x), (layer.bwd, x[order])):
            w_h = cell.w.value[cell.input_dim:]
            gates = seq @ cell.w.value[:cell.input_dim] + cell.b.value
            h = c = np.zeros((1, cell.hidden_dim))
            rows = []
            for step in range(frames):
                _, c, h = cell.activate(gates[step:step + 1] + h @ w_h, c)
                rows.append(h[0])
            halves.append(np.array(rows))
        x = np.concatenate([halves[0], halves[1][order]], axis=1)
        x[valid:] = 0.0
    return x


PAPER = ModelConfig(embed_dim=128, vocab_size=40)


@pytest.mark.parametrize("cfg", [TINY, PAPER], ids=["tiny", "paper"])
def test_one_matrix_encode_is_bit_identical_to_the_unpacked_encoder(cfg):
    # A single valid frame of a longer matrix is left out: the
    # unpacked projection then multiplied several rows where the packed one
    # multiplies one, and a one-row product rounds differently (1e-16).
    model = CaptionModel(cfg, seed=3)
    rng = np.random.default_rng(0)
    for frames, valid in [(1, 1), (2, 2), (8, 8), (9, 9), (17, 17), (20, 12), (61, 61),
                          (64, 33)]:
        m = rng.normal(size=(frames, cfg.embed_dim))
        enc = model.encode(m, valid)
        assert np.array_equal(enc.values, _unpacked_encode(model, m, valid)), (frames, valid)
        assert np.array_equal(enc.keys, enc.values @ model.decoder.attention.w_enc.value)


@pytest.mark.parametrize("cfg", [TINY, PAPER], ids=["tiny", "paper"])
def test_batch_encode_matches_per_item_encodes_within_policy(cfg):
    # model.py's policy: a batch's E within 1e-12 of each row's own encode
    model = CaptionModel(cfg, seed=4)
    rng = np.random.default_rng(1)
    lengths = [9, 1, 23, 17, 8, 23, 2]
    matrices = [rng.normal(size=(n, cfg.embed_dim)) for n in lengths]
    padded, valid = bucket_pad(matrices)
    padded[0, 9:] = np.nan  # padded frames are never read
    enc = model.encode(padded, valid)
    assert enc.values.shape == (len(lengths), 23, cfg.enc_out_dim)
    assert np.array_equal(enc.valid_length, lengths)
    for b, matrix in enumerate(matrices):
        one, row = model.encode(matrix), enc.item(b)
        assert row.valid_length == lengths[b] and row.values.shape == one.values.shape
        assert np.max(np.abs(row.values - one.values)) <= 1e-12
        assert np.max(np.abs(row.keys - one.keys)) <= 1e-12 * np.max(np.abs(one.keys))
        assert not enc.values[b, lengths[b]:].any()


def test_batch_encode_keeps_no_backward_cache(monkeypatch):
    from aacap.model import BiLstmLayer

    seen = []
    forward = BiLstmLayer.forward

    def spy(self, *args, **kwargs):
        out, cache = forward(self, *args, **kwargs)
        seen.append(cache)
        return out, cache
    monkeypatch.setattr(BiLstmLayer, "forward", spy)
    model = CaptionModel(TINY, seed=1)
    model.encode(np.zeros((2, 5, 8)), [5, 3])
    model.encode(np.zeros((4, 8)))
    assert seen == [None] * 4


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=8))
def test_packing_mirror_reverses_each_row_within_its_length(lengths):
    # ties and one-frame rows included: lengths repeat and may be 1
    from aacap.model import _Packing

    lengths = np.array(lengths)
    pack = _Packing.of(lengths)
    valid = [(b, t) for b in range(len(lengths)) for t in range(lengths[b])]
    assert sorted(zip(pack.rows.tolist(), pack.steps.tolist())) == valid
    assert np.array_equal(np.diff(pack.offsets), np.bincount(pack.steps))
    assert np.array_equal(pack.mirror[pack.mirror], np.arange(len(valid)))
    assert np.array_equal(pack.rows[pack.mirror], pack.rows)
    assert np.array_equal(pack.steps[pack.mirror], lengths[pack.rows] - 1 - pack.steps)


def test_the_encoder_packs_its_batch_once_per_call(monkeypatch):
    from aacap.model import _Packing

    of, calls = _Packing.of, []

    def counting(cls, lengths):
        calls.append(len(lengths))
        return of(lengths)
    monkeypatch.setattr(_Packing, "of", classmethod(counting))
    model = CaptionModel(TINY, seed=1)
    inputs = np.random.default_rng(2).normal(size=(3, 5, 8))
    model.encoder.forward(inputs, [5, 2, 4])
    assert calls == [3]
    model.encode(inputs, [5, 2, 4])
    assert calls == [3, 3]


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def test_attention_singleton_weight_is_one():
    model = CaptionModel(TINY, seed=4)
    enc = model.encode(np.random.default_rng(1).normal(size=(1, 8)))
    step = model.decoder.attention.forward(enc.values, 1, np.zeros(8), enc.keys)
    assert step.weights == pytest.approx([1.0])


def test_attention_zero_score_weights_uniform():
    model = CaptionModel(TINY, seed=4)
    model.decoder.attention.w_score.value[...] = 0.0
    enc = model.encode(np.random.default_rng(2).normal(size=(5, 8)), valid_length=3)
    step = model.decoder.attention.forward(enc.values, 3, np.zeros(8), enc.keys)
    assert step.weights[:3] == pytest.approx([1 / 3] * 3)
    assert np.array_equal(step.weights[3:], [0.0, 0.0])


def test_attention_hand_oracle_two_by_two():
    # T=2, d_e = d_a = d_h = 2, every number worked out with scalar math
    cfg = ModelConfig(embed_dim=2, vocab_size=6, enc_hidden=1, attn_dim=2,
                      dec_hidden=2, word_dim=2)
    model = CaptionModel(cfg, seed=0)
    att = model.decoder.attention
    att.w_enc.value[...] = np.eye(2)
    att.w_hidden.value[...] = [[0.5, -0.25], [0.25, 0.5]]
    att.w_score.value[...] = [[1.0], [-1.0]]
    enc_values = np.array([[0.2, -0.4], [0.6, 0.1]])
    h_prev = np.array([0.3, -0.2])
    step = att.forward(enc_values, 2, h_prev, att.keys(enc_values))
    alpha = np.maximum(att._pre(att.keys(enc_values), h_prev), 0.0)

    # scalar evaluation: h_prev @ W_h = [0.1, -0.175]
    assert np.allclose(alpha, [[0.3, 0.0], [0.7, 0.0]], atol=1e-12)
    w1 = math.exp(0.7 - 0.7) / (math.exp(0.3 - 0.7) + math.exp(0.7 - 0.7))
    w0 = 1.0 - w1
    assert step.weights == pytest.approx([w0, w1], abs=1e-12)
    expect_ctx = [w0 * 0.2 + w1 * 0.6, w0 * -0.4 + w1 * 0.1]
    assert step.context == pytest.approx(expect_ctx, abs=1e-12)


def test_attention_matches_reference_with_padding():
    model = CaptionModel(TINY, seed=9)
    rng = np.random.default_rng(3)
    enc = model.encode(rng.normal(size=(6, 8)), valid_length=4)
    h_prev = rng.normal(size=8)
    step = model.decoder.attention.forward(enc.values, 4, h_prev, enc.keys)
    ref_w, ref_ctx = ref_attention(model.decoder.attention, enc.values, 4, h_prev)
    assert np.allclose(step.weights, ref_w, atol=1e-12)
    assert np.allclose(step.context, ref_ctx, atol=1e-12)


def test_attention_argmax_shift_invariant():
    model = CaptionModel(TINY, seed=10)
    rng = np.random.default_rng(6)
    enc = model.encode(rng.normal(size=(5, 8)), valid_length=4)
    h_prev = rng.normal(size=8)
    step = model.decoder.attention.forward(enc.values, 4, h_prev, enc.keys)
    alpha = np.maximum(enc.keys + h_prev @ model.decoder.attention.w_hidden.value, 0.0)
    logits = (alpha @ model.decoder.attention.w_score.value).ravel()
    logits[4:] = -np.inf
    for shift in (-100.0, 0.0, 7.5, 1e6):
        shifted = softmax(np.where(np.isinf(logits), logits, logits + shift))
        assert int(np.argmax(shifted)) == int(np.argmax(step.weights))


def test_attention_invariants_random_steps():
    rng = np.random.default_rng(11)
    for trial in range(50):
        model = CaptionModel(TINY, seed=trial)
        t_total = int(rng.integers(1, 7))
        valid = int(rng.integers(1, t_total + 1))
        enc = model.encode(rng.normal(size=(t_total, 8)), valid_length=valid)
        step = model.decoder.attention.forward(enc.values, valid, rng.normal(size=8),
                                               enc.keys)
        assert np.all(step.weights >= 0)
        assert abs(step.weights.sum() - 1.0) < 1e-9
        assert np.array_equal(step.weights[valid:], np.zeros(t_total - valid))
        lo = enc.values[:valid].min(axis=0)
        hi = enc.values[:valid].max(axis=0)
        assert np.all(step.context >= lo - 1e-12)
        assert np.all(step.context <= hi + 1e-12)


def _attention_zeroing_padded_weights(att, enc_values, valid, h_prev, keys):
    """Attention.forward with padded weights set to 0 after the softmax: the
    reference that shows the -inf logits alone give exactly those zeros."""
    pre = keys + (h_prev @ att.w_hidden.value)[..., None, :]
    logits = (np.maximum(pre, 0.0) @ att.w_score.value)[..., 0]
    padded = np.arange(logits.shape[-1]) >= np.asarray(valid)[..., None]
    logits[..., padded] = -np.inf
    weights = softmax(logits)
    weights[..., padded] = 0.0
    return weights, (weights[..., None, :] @ enc_values)[..., 0, :]


@pytest.mark.parametrize("seed", range(6))
def test_attention_padded_weights_equal_explicit_zeroing(seed):
    # one sequence with one h_prev, with R rows of h_prev, and a padded batch
    model = CaptionModel(TINY, seed=seed)
    att = model.decoder.attention
    rng = np.random.default_rng(seed)
    frames = 7
    valid = int(rng.integers(1, frames))
    enc = model.encode(rng.normal(size=(frames, 8)) * 3.0, valid_length=valid)
    lengths = rng.integers(1, frames + 1, size=3)
    lengths[0] = 1
    batch_values, _ = model.encoder.forward(rng.normal(size=(3, frames, 8)), lengths)
    cases = [(enc.values, valid, rng.normal(size=TINY.dec_hidden), enc.keys),
             (enc.values, valid, rng.normal(size=(4, TINY.dec_hidden)) * 5.0, enc.keys),
             (batch_values, lengths, rng.normal(size=(3, TINY.dec_hidden)),
              att.keys(batch_values))]
    for values, lengths_or_valid, h_prev, keys in cases:
        step = att.forward(values, lengths_or_valid, h_prev, keys)
        want_weights, want_context = _attention_zeroing_padded_weights(
            att, values, lengths_or_valid, h_prev, keys)
        assert np.array_equal(step.weights, want_weights)
        assert np.array_equal(step.context, want_context)
        padded = np.arange(frames) >= np.asarray(lengths_or_valid)[..., None]
        padded = np.broadcast_to(padded, step.weights.shape)
        assert not np.signbit(step.weights[padded]).any()  # +0.0, as the zeroing wrote


# ---------------------------------------------------------------------------
# decoder step and teacher forcing
# ---------------------------------------------------------------------------

def test_decoder_step_deterministic_and_shaped():
    model = CaptionModel(TINY, seed=5)
    enc = model.encode(np.random.default_rng(4).normal(size=(3, 8)))
    h, c = model.initial_state()
    first = model.decoder_step(START, h, c, enc)
    second = model.decoder_step(START, h, c, enc)
    assert first[0].shape == (6,)
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])
    assert abs(softmax(first[0]).sum() - 1.0) < 1e-9
    assert isinstance(first[3], AttentionStep)


def test_decoder_step_rejects_bad_token():
    model = CaptionModel(TINY, seed=5)
    enc = model.encode(np.zeros((2, 8)))
    h, c = model.initial_state()
    with pytest.raises(ValueError):
        model.decoder_step(17, h, c, enc)
    rows = np.zeros((3, TINY.dec_hidden))
    for tokens in ([START, 4, 17], [-1, START, 4]):
        with pytest.raises(ValueError, match="outside vocabulary"):
            model.decoder_step(np.array(tokens), rows, rows, enc)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decoder_step_over_rows_equals_per_row_calls(seed):
    """Beam search's layout, R hypotheses over one sequence's E with valid < T:
    within rtol 1e-12 of R 1-D calls, and exactly 0 weight on padded frames."""
    model = CaptionModel(TINY, seed=seed)
    rng = np.random.default_rng(seed)
    valid = 2 + seed
    enc = model.encode(rng.normal(size=(6, 8)) * 2.0, valid_length=valid)
    tokens = rng.integers(0, TINY.vocab_size, size=4)
    h_prev, c_prev = rng.normal(size=(2, 4, TINY.dec_hidden))
    logits, h, c, att = model.decoder_step(tokens, h_prev, c_prev, enc)
    assert logits.shape == (4, TINY.vocab_size)
    assert att.weights.shape == (4, 6)
    assert np.all(att.weights[:, valid:] == 0.0)
    for r, token in enumerate(tokens.tolist()):
        logits_r, h_r, c_r, att_r = model.decoder_step(token, h_prev[r], c_prev[r], enc)
        for name, got, want in (("logits", logits[r], logits_r), ("h", h[r], h_r),
                                ("c", c[r], c_r), ("weights", att.weights[r], att_r.weights),
                                ("context", att.context[r], att_r.context)):
            assert got.shape == want.shape, name
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=name)


@pytest.mark.parametrize("cfg", [TINY, ModelConfig(embed_dim=8, vocab_size=30, enc_hidden=16,
                                                   attn_dim=12, dec_hidden=24, word_dim=10)])
def test_decoder_step_equals_teacher_forced_advance_and_projection(cfg):
    """The inference step takes the context's share of the cell input from the
    context gates E W_ctx; teacher forcing, on an encoding without them,
    multiplies the context by W_ctx. They agree within rtol 1e-12 of each
    array's largest entry, for one sequence with valid < T, rows over it, and
    a padded batch."""
    model = CaptionModel(cfg, seed=3)
    dec, rng = model.decoder, np.random.default_rng(30)
    w_ctx = dec.cell.w.value[cfg.word_dim:cfg.word_dim + cfg.enc_out_dim]
    one = model.encode(rng.normal(size=(7, 8)) * 2.0, valid_length=4)
    batch = model.encode(*bucket_pad([rng.normal(size=(t, 8)) for t in (5, 7, 2)]))
    for enc in (one, batch):
        assert np.array_equal(enc.context_gates, enc.values @ w_ctx)
    cases = [(one, 3, rng.normal(size=cfg.dec_hidden)),
             (one, rng.integers(0, cfg.vocab_size, size=4), rng.normal(size=(4, cfg.dec_hidden))),
             (batch, rng.integers(0, cfg.vocab_size, size=3), rng.normal(size=(3, cfg.dec_hidden)))]
    for enc, tokens, h_prev in cases:
        c_prev = rng.normal(size=h_prev.shape)
        logits, h, c, att = model.decoder_step(tokens, h_prev, c_prev, enc)
        h_tf, c_tf, _, att_tf = dec.advance(tokens, h_prev, c_prev,
                                            dataclasses.replace(enc, context_gates=None))
        assert np.array_equal(att.weights, att_tf.weights)
        for name, got, want in (("logits", logits, h_tf @ dec.w_out.value + dec.b_out.value),
                                ("h", h, h_tf), ("c", c, c_tf)):
            assert got.shape == want.shape, name
            assert_within_policy(got, want, name, rtol=1e-12)


def forward_one(model, m, target, valid=None):
    """The teacher-forced forward of one sample: a batch of one encoder row."""
    return model.forward_teacher_forced(m[None], [m.shape[0] if valid is None else valid],
                                        [target])


def test_teacher_forced_counts_steps_for_start_end():
    model = CaptionModel(TINY, seed=6)
    m = np.random.default_rng(5).normal(size=(3, 8))
    target = [START, END] + [PAD] * 18
    result = forward_one(model, m, target)
    assert result.cache.decoder.n_steps.tolist() == [1]
    assert len(result.cache.decoder.gates) == 1  # decoder steps run
    assert result.loss >= 0.0


def test_teacher_forced_loss_matches_reference():
    model = CaptionModel(TINY, seed=7)
    rng = np.random.default_rng(8)
    m = rng.normal(size=(4, 8))
    target = [START, 4, 5, 4, END] + [PAD] * 15
    result = forward_one(model, m, target)
    assert result.loss == pytest.approx(ref_teacher_forced_loss(model, m, target, 4),
                                        abs=1e-10)


def test_teacher_forced_empty_target_zero_loss():
    model = CaptionModel(TINY, seed=7)
    result = forward_one(model, np.zeros((2, 8)), [START] + [PAD] * 19)
    assert result.loss == 0.0
    assert result.cache.decoder.n_steps.tolist() == [0]


# ---------------------------------------------------------------------------
# backward: finite-difference checks
# ---------------------------------------------------------------------------

# Three sequences of different lengths, one with padded frames; summing their
# losses gives every parameter a live gradient path. Central differences at
# epsilon=1e-5 bottom out at the float-noise floor for near-zero entries, so
# the checks run at 1e-4 where the same gradients agree to 5+ digits.
GRADCHECK_ITEMS = [
    ([START, 4, 5, 4, END] + [PAD] * 15, 3, 3),
    ([START, 5, 5, 4, 5, END] + [PAD] * 14, 4, 3),
    ([START, 4, END] + [PAD] * 17, 2, 2),
]


def gradcheck_fixture(seed):
    """A model and one padded batch of GRADCHECK_ITEMS:
    (model, inputs, lengths, targets)."""
    model = CaptionModel(TINY, seed=seed)
    rng = np.random.default_rng(1000 + seed)
    matrices = [rng.normal(size=(t, 8)) for _, t, _ in GRADCHECK_ITEMS]
    inputs, _ = bucket_pad(matrices)
    lengths = [valid for _, _, valid in GRADCHECK_ITEMS]
    targets = [target for target, _, _ in GRADCHECK_ITEMS]
    return model, inputs, lengths, targets


def test_backward_passes_gradient_check():
    model, inputs, lengths, targets = gradcheck_fixture(seed=0)
    model.zero_grads()
    model.backward(model.forward_teacher_forced(inputs, lengths, targets).cache)

    def loss_fn():
        return model.forward_teacher_forced(inputs, lengths, targets).loss

    for group in model.parameters():
        assert finite_diff_check(loss_fn, group, epsilon=1e-4) < 1e-4, group.name


def test_backward_matches_reference_loss_differences_with_padding():
    # the analytic gradients of the fused cells against central differences
    # of the independent straight-line loss, on a sequence with padded frames
    model = CaptionModel(TINY, seed=4)
    rng = np.random.default_rng(44)
    m = rng.normal(size=(5, 8))
    target = [START, 4, 5, 5, END] + [PAD] * 15
    valid = 3
    model.zero_grads()
    d_matrix = model.backward(forward_one(model, m, target, valid).cache)[0]
    eps = 1e-5
    for group in model.parameters():
        flat_value, flat_grad = group.value.ravel(), group.gradient.ravel()
        for idx in rng.choice(flat_value.size, size=min(8, flat_value.size), replace=False):
            saved = flat_value[idx]
            flat_value[idx] = saved + eps
            up = ref_teacher_forced_loss(model, m, target, valid)
            flat_value[idx] = saved - eps
            down = ref_teacher_forced_loss(model, m, target, valid)
            flat_value[idx] = saved
            numeric = (up - down) / (2 * eps)
            assert flat_grad[idx] == pytest.approx(numeric, rel=1e-5, abs=1e-9), group.name
    for t, f in [(0, 0), (1, 5), (2, 7)]:
        saved = m[t, f]
        m[t, f] = saved + eps
        up = ref_teacher_forced_loss(model, m, target, valid)
        m[t, f] = saved - eps
        down = ref_teacher_forced_loss(model, m, target, valid)
        m[t, f] = saved
        assert d_matrix[t, f] == pytest.approx((up - down) / (2 * eps), rel=1e-5, abs=1e-9)


def test_backward_padded_frames_get_zero_input_gradient():
    model = CaptionModel(TINY, seed=1)
    m = np.random.default_rng(21).normal(size=(4, 8))
    target = [START, 4, 5, END] + [PAD] * 16
    model.zero_grads()
    result = forward_one(model, m, target, valid=2)
    d_matrix = model.backward(result.cache)[0]
    assert np.array_equal(d_matrix[2:], np.zeros((2, 8)))
    assert not np.allclose(d_matrix[:2], 0.0)


def test_backward_input_gradient_matches_finite_differences():
    model = CaptionModel(TINY, seed=2)
    m = np.random.default_rng(102).normal(size=(3, 8))
    target = [START, 4, 5, END] + [PAD] * 16
    valid = 3
    model.zero_grads()
    result = forward_one(model, m, target, valid)
    d_matrix = model.backward(result.cache)[0]
    eps = 1e-5
    rng = np.random.default_rng(0)
    for _ in range(10):
        t, f = rng.integers(0, valid), rng.integers(0, 8)
        saved = m[t, f]
        m[t, f] = saved + eps
        up = forward_one(model, m, target, valid).loss
        m[t, f] = saved - eps
        down = forward_one(model, m, target, valid).loss
        m[t, f] = saved
        numeric = (up - down) / (2 * eps)
        assert d_matrix[t, f] == pytest.approx(numeric, abs=1e-7)


def test_backward_zero_steps_zero_gradients():
    model = CaptionModel(TINY, seed=3)
    model.zero_grads()
    result = forward_one(model, np.zeros((2, 8)), [START] + [PAD] * 19)
    d_matrix = model.backward(result.cache)[0]
    assert np.array_equal(d_matrix, np.zeros((2, 8)))
    for group in model.parameters():
        assert np.array_equal(group.gradient, np.zeros_like(group.gradient))


def test_backward_requires_cache():
    model = CaptionModel(TINY, seed=3)
    with pytest.raises(ValueError):
        model.backward(None)


def test_backward_uses_a_cache_once():
    model = CaptionModel(TINY, seed=3)
    result = forward_one(model, np.ones((2, 8)), [START, 4, END] + [PAD] * 17)
    model.backward(result.cache)
    with pytest.raises(ValueError):
        model.backward(result.cache)


# ---------------------------------------------------------------------------
# padded batches against per-sample oracles
# ---------------------------------------------------------------------------

# Five samples of three items with distinct lengths 3, 4 and 2 (the first
# item has two padded frames of its own): two captions of item 0 are two
# rows with the same input, and item 2 carries a target with no step at all.
BATCH_ITEM_SHAPES = [(5, 3), (4, 4), (2, 2)]  # (frames, valid length) per item
BATCH_SAMPLES = [
    (0, [START, 4, 5, 4, END] + [PAD] * 15),
    (1, [START, 5, 5, 4, 5, END] + [PAD] * 14),
    (0, [START, 4, END] + [PAD] * 17),
    (2, [START] + [PAD] * 19),
    (2, [START, 5, 4, END] + [PAD] * 16),
]


def batch_fixture(seed):
    """(model, per-item matrices, per-item valid lengths, padded inputs and
    lengths of BATCH_SAMPLES, one row per sample)."""
    model = CaptionModel(TINY, seed=seed)
    rng = np.random.default_rng(500 + seed)
    matrices = [rng.normal(size=(frames, 8)) for frames, _ in BATCH_ITEM_SHAPES]
    valids = [valid for _, valid in BATCH_ITEM_SHAPES]
    inputs, _ = bucket_pad([matrices[item] for item, _ in BATCH_SAMPLES])
    lengths = [valids[item] for item, _ in BATCH_SAMPLES]
    return model, matrices, valids, inputs, lengths


def run_batch(model, inputs, lengths, targets=None):
    """Loss, every parameter's gradient and d(inputs) of one batch, by
    default the targets of BATCH_SAMPLES."""
    model.zero_grads()
    targets = [t for _, t in BATCH_SAMPLES] if targets is None else targets
    result = model.forward_teacher_forced(inputs, lengths, targets)
    d_inputs = model.backward(result.cache)
    return result.loss, {g.name: g.gradient.copy() for g in model.parameters()}, d_inputs


def assert_within_policy(actual, expected, name="", rtol=1e-9):
    """model.py's tolerance policy: rtol 1e-9 unless it states another, taken
    against the largest entry of the array, since entries that cancel to
    ~1e-19 carry no relative digits."""
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= rtol * scale, name


def test_batch_loss_and_gradients_equal_per_sample_sums():
    for seed in (0, 1, 2):
        model, matrices, valids, inputs, lengths = batch_fixture(seed)
        loss, grads, d_inputs = run_batch(model, inputs, lengths)
        summed = {name: np.zeros_like(g) for name, g in grads.items()}
        d_each = np.zeros_like(inputs)
        loss_sum = 0.0
        for b, (item, target) in enumerate(BATCH_SAMPLES):
            model.zero_grads()
            one = forward_one(model, matrices[item], target, valids[item])
            loss_sum += one.loss
            d_each[b, :len(matrices[item])] = model.backward(one.cache)[0]
            for group in model.parameters():
                summed[group.name] += group.gradient
        ref = sum(ref_teacher_forced_loss(model, matrices[item], target, valids[item])
                  for item, target in BATCH_SAMPLES)
        assert loss == pytest.approx(ref, rel=1e-9, abs=0.0)
        assert loss == pytest.approx(loss_sum, rel=1e-9, abs=0.0)
        for name, grad in grads.items():
            assert np.any(grad != 0.0), name
            assert_within_policy(grad, summed[name], name)
        assert_within_policy(d_inputs, d_each)


def test_batch_gradients_match_reference_central_differences():
    model, matrices, valids, inputs, lengths = batch_fixture(seed=3)
    _, grads, d_inputs = run_batch(model, inputs, lengths)

    def ref_loss():
        return sum(ref_teacher_forced_loss(model, matrices[item], target, valids[item])
                   for item, target in BATCH_SAMPLES)

    rng = np.random.default_rng(7)
    eps = 1e-5
    for group in model.parameters():
        flat_value, flat_grad = group.value.ravel(), grads[group.name].ravel()
        for idx in rng.choice(flat_value.size, size=min(8, flat_value.size), replace=False):
            saved = flat_value[idx]
            flat_value[idx] = saved + eps
            up = ref_loss()
            flat_value[idx] = saved - eps
            down = ref_loss()
            flat_value[idx] = saved
            assert flat_grad[idx] == pytest.approx((up - down) / (2 * eps),
                                                   rel=1e-5, abs=1e-9), group.name
    # an input entry of item 0 reaches the loss through both of its rows
    rows_of = {item: [b for b, (i, _) in enumerate(BATCH_SAMPLES) if i == item]
               for item in range(len(matrices))}
    for item, t, f in [(0, 0, 1), (0, 2, 6), (1, 3, 0), (2, 1, 4)]:
        m = matrices[item]
        saved = m[t, f]
        m[t, f] = saved + eps
        up = ref_loss()
        m[t, f] = saved - eps
        down = ref_loss()
        m[t, f] = saved
        assert sum(d_inputs[b, t, f] for b in rows_of[item]) == pytest.approx(
            (up - down) / (2 * eps), rel=1e-5, abs=1e-9)


def test_packed_batch_across_projection_chunks_matches_references():
    # rows ending at different steps, one of a single frame, and two of the same length
    lengths = [19, 1, 9, 19, 5]
    model = CaptionModel(TINY, seed=6)
    rng = np.random.default_rng(8)
    matrices = [rng.normal(size=(n, 8)) for n in lengths]
    targets = [[START] + rng.integers(4, 6, size=k).tolist() + [END] + [PAD] * (17 - k)
               for k in (3, 1, 4, 2, 0)]
    inputs, _ = bucket_pad(matrices)
    model.zero_grads()
    result = model.forward_teacher_forced(inputs, lengths, targets)
    d_inputs = model.backward(result.cache)
    grads = {g.name: g.gradient.copy() for g in model.parameters()}
    ref = sum(ref_teacher_forced_loss(model, m, t, len(m)) for m, t in zip(matrices, targets))
    assert result.loss == pytest.approx(ref, rel=1e-9, abs=0.0)
    summed = {name: np.zeros_like(g) for name, g in grads.items()}
    for b, (m, target) in enumerate(zip(matrices, targets)):
        model.zero_grads()
        one = forward_one(model, m, target)
        assert_within_policy(model.backward(one.cache)[0], d_inputs[b, :len(m)])
        for group in model.parameters():
            summed[group.name] += group.gradient
    for name, grad in grads.items():
        assert_within_policy(grad, summed[name], name)
    eps = 1e-5
    for group in model.encoder.params():
        flat_value, flat_grad = group.value.ravel(), grads[group.name].ravel()
        for idx in rng.choice(flat_value.size, size=4, replace=False):
            saved = flat_value[idx]
            flat_value[idx] = saved + eps
            up = sum(ref_teacher_forced_loss(model, m, t, len(m))
                     for m, t in zip(matrices, targets))
            flat_value[idx] = saved - eps
            down = sum(ref_teacher_forced_loss(model, m, t, len(m))
                       for m, t in zip(matrices, targets))
            flat_value[idx] = saved
            assert flat_grad[idx] == pytest.approx((up - down) / (2 * eps),
                                                   rel=1e-5, abs=1e-9), group.name


@pytest.mark.parametrize("dims, fill", [
    pytest.param("tiny", "noise", id="noise"),
    pytest.param("tiny", "non-finite", id="non-finite"),
    # 8 rows: both encoder layers and the decoder step on two threads
    pytest.param("paper", "noise", id="paper-noise"),
    pytest.param("paper", "non-finite", id="paper-non-finite"),
])
def test_batch_padded_frame_values_change_nothing(dims, fill):
    if dims == "tiny":
        model, _, _, inputs, lengths = batch_fixture(seed=4)
        targets = [t for _, t in BATCH_SAMPLES]
    else:
        model = CaptionModel(PAPER, seed=5)
        inputs, lengths, targets = _paper_batch()
    loss, grads, d_inputs = run_batch(model, inputs, lengths, targets)
    noisy = inputs.copy()
    padded = np.arange(inputs.shape[1])[None, :] >= np.array(lengths)[:, None]
    count, width = int(padded.sum()), inputs.shape[2]
    if fill == "noise":
        noisy[padded] = np.random.default_rng(9).normal(scale=1e3, size=(count, width))
    else:
        noisy[padded] = np.resize([np.nan, np.inf, -np.inf], (count, width))
    noisy_loss, noisy_grads, noisy_d_inputs = run_batch(model, noisy, lengths, targets)
    assert noisy_loss == loss
    for name, grad in grads.items():
        assert np.array_equal(noisy_grads[name], grad), name
    assert np.array_equal(noisy_d_inputs, d_inputs)
    assert np.array_equal(d_inputs[padded], np.zeros((count, width)))


def test_batch_rejects_mismatched_targets_and_lengths():
    model, _, _, inputs, lengths = batch_fixture(seed=0)
    targets = [t for _, t in BATCH_SAMPLES]
    with pytest.raises(ValueError):
        model.forward_teacher_forced(inputs, lengths, targets[:2])
    with pytest.raises(ValueError):
        model.forward_teacher_forced(inputs[:1], lengths[:1], [[START, 9, END]])
    with pytest.raises(ShapeError):
        model.forward_teacher_forced(inputs, lengths[:2], targets)


# ---------------------------------------------------------------------------
# a training layer's two directions, and the decoder's two row halves, on
# two threads
# ---------------------------------------------------------------------------

def _paper_batch():
    """A paper-dims batch of 8 rows: above the two-thread gate at h = 256 for
    an encoder layer's 8 rows and for each 4-row half of the decoder."""
    rng = np.random.default_rng(11)
    lengths = [21, 9, 17, 21, 2, 14, 5, 19]
    inputs, _ = bucket_pad([rng.normal(size=(n, PAPER.embed_dim)) for n in lengths])
    targets = [[START] + rng.integers(4, PAPER.vocab_size, size=k).tolist() + [END]
               + [PAD] * (8 - k) for k in (5, 2, 8, 1, 3, 6, 4, 7)]
    return inputs, lengths, targets


def _layer_run(monkeypatch, inline):
    """Loss, gradients, d(inputs) and each layer's output of one paper-dims
    batch; and the count of calls handed to a second thread. With inline,
    the helper runs its two calls on the caller's thread, one after the
    other, so the same calls run without a second thread."""
    from aacap import model as model_module

    outputs, submitted = [], []
    forward, side_by_side = model_module.BiLstmLayer.forward, model_module.side_by_side

    def keep_output(self, *args, **kwargs):
        out, cache = forward(self, *args, **kwargs)
        outputs.append(out.copy())
        return out, cache

    def counting(calls, name):
        submitted.append(name)
        return [call() for call in calls] if inline else side_by_side(calls, name)
    monkeypatch.setattr(model_module.BiLstmLayer, "forward", keep_output)
    monkeypatch.setattr(model_module, "side_by_side", counting)
    model = CaptionModel(PAPER, seed=5)
    inputs, lengths, targets = _paper_batch()
    result = model.forward_teacher_forced(inputs, lengths, targets)
    d_inputs = model.backward(result.cache)
    grads = {g.name: g.gradient.copy() for g in model.parameters()}
    monkeypatch.undo()
    return result.loss, grads, d_inputs, outputs, len(submitted)


def _helper_threads():
    import threading

    return [t for t in threading.enumerate() if t.name.startswith("aacap-")]


@pytest.mark.parametrize("switch_interval", [None, 1e-6], ids=["default", "1us"])
def test_two_thread_layers_give_the_same_bits_as_one_thread(monkeypatch, switch_interval):
    # a 1 us interpreter switch interval interleaves the two threads finely
    import sys

    from aacap.model import TWO_THREAD_MIN_WORK

    assert 8 * 4 * PAPER.enc_hidden ** 2 >= TWO_THREAD_MIN_WORK
    assert 4 * 4 * PAPER.dec_hidden ** 2 >= TWO_THREAD_MIN_WORK
    saved = sys.getswitchinterval()
    try:
        sys.setswitchinterval(switch_interval or saved)
        loss, grads, d_inputs, outputs, calls = _layer_run(monkeypatch, inline=False)
    finally:
        sys.setswitchinterval(saved)
    one_loss, one_grads, one_d_inputs, one_outputs, one_calls = _layer_run(monkeypatch,
                                                                           inline=True)
    # both layers' forward and backward, and the decoder's forward and backward
    assert (calls, one_calls) == (6, 6)
    assert loss == one_loss
    assert grads.keys() == one_grads.keys()
    for name, grad in grads.items():
        assert np.array_equal(grad, one_grads[name]), name
    assert np.array_equal(d_inputs, one_d_inputs)
    assert len(outputs) == len(one_outputs) == 2
    for out, one_out in zip(outputs, one_outputs):
        assert np.array_equal(out, one_out)


@pytest.mark.parametrize("cfg, batch, per_step", [
    pytest.param(TINY, 4, 1, id="tiny-4"),
    pytest.param(PAPER, 4, 1, id="paper-4"),
    pytest.param(PAPER, 8, 2, id="paper-8"),
])
def test_a_teacher_forced_batch_steps_whole_below_the_gate_and_by_halves_above(
        monkeypatch, cfg, batch, per_step):
    """Below the two-thread gate, a half of 2 rows at d_h = 256 or any half at
    tier-1 dims, the batch makes one advance call and one attention backward
    per step; a paper-dims batch of 8 makes two, one per 4-row half."""
    from aacap.model import Attention, Decoder

    advance, backward, calls = Decoder.advance, Attention.backward, []

    def counted(method):
        def call(*args, **kwargs):
            calls.append(method.__name__)
            return method(*args, **kwargs)
        return call
    monkeypatch.setattr(Decoder, "advance", counted(advance))
    monkeypatch.setattr(Attention, "backward", counted(backward))
    rng = np.random.default_rng(12)
    lengths = rng.integers(2, 10, size=batch).tolist()
    inputs, _ = bucket_pad([rng.normal(size=(n, cfg.embed_dim)) for n in lengths])
    targets = [[START] + rng.integers(4, cfg.vocab_size, size=k).tolist() + [END]
               for k in rng.integers(1, 6, size=batch).tolist()]
    model = CaptionModel(cfg, seed=5)
    result = model.forward_teacher_forced(inputs, lengths, targets)
    span = len(result.cache.decoder.tokens_in)
    model.backward(result.cache)
    assert calls.count("advance") == calls.count("backward") == per_step * span


@pytest.mark.parametrize("owner, method, thread", [
    pytest.param("encoder.layer2.bwd", "forward_sequence", "aacap-bilstm", id="forward_sequence"),
    pytest.param("encoder.layer2.bwd", "backward_sequence", "aacap-bilstm",
                 id="backward_sequence"),
    pytest.param("decoder", "advance", "aacap-decoder", id="decoder-advance"),
    pytest.param("decoder.attention", "backward", "aacap-decoder", id="decoder-backward"),
    # stft_power of 3 s at 16 kHz: the helper's half is one of 3 chunks
    pytest.param("stft_power", "rfft", "aacap-features", id="stft_power"),
])
def test_an_exception_in_the_helper_direction_reaches_the_caller(monkeypatch, owner, method,
                                                                 thread):
    """A layer's bwd direction, the decoder's upper row half, or the second
    half of stft_power's chunks failing on its helper thread: the caller
    gets that exception, no helper thread is left, and the model then
    trains, or stft_power runs, as a fresh call does."""
    import functools
    import threading

    from aacap.features import Waveform, stft_power

    if owner == "stft_power":
        w = Waveform(np.random.default_rng(3).uniform(-1, 1, 3 * 16000), 16000)
        run, want, target = (lambda: stft_power(w)), stft_power(w), np.fft
    else:
        model = CaptionModel(PAPER, seed=5)
        inputs, lengths, targets = _paper_batch()
        target = functools.reduce(getattr, owner.split("."), model)

        def run():
            model.backward(model.forward_teacher_forced(inputs, lengths, targets).cache)
    call, failure, ran_on = getattr(target, method), RuntimeError("helper failed"), []

    def fail_on_the_helper(*args, **kwargs):
        if threading.current_thread().name.startswith(thread):
            ran_on.append(threading.current_thread().name)
            raise failure
        return call(*args, **kwargs)
    monkeypatch.setattr(target, method, fail_on_the_helper)
    with pytest.raises(RuntimeError) as caught:
        run()
    assert caught.value is failure
    assert len(ran_on) == 1
    assert not _helper_threads()
    monkeypatch.undo()
    if owner == "stft_power":
        assert np.array_equal(run(), want)
        return
    model.zero_grads()
    result = model.forward_teacher_forced(inputs, lengths, targets)
    d_inputs = model.backward(result.cache)
    again = CaptionModel(PAPER, seed=5)
    assert result.loss == again.forward_teacher_forced(inputs, lengths, targets).loss
    assert np.array_equal(d_inputs, again.backward(
        again.forward_teacher_forced(inputs, lengths, targets).cache))


@pytest.mark.parametrize("method", ["forward_sequence", "backward_sequence"])
def test_an_exception_in_the_fwd_direction_returns_after_the_bwd_thread_ends(monkeypatch,
                                                                              method):
    import threading
    import time

    model = CaptionModel(PAPER, seed=5)
    inputs, lengths, targets = _paper_batch()
    cache = None
    if method == "backward_sequence":
        cache = model.forward_teacher_forced(inputs, lengths, targets).cache
    layer = model.encoder.layer2
    failure, started, finished = RuntimeError("fwd cell failed"), threading.Event(), []
    bwd_call = getattr(layer.bwd, method)

    def fail(*args, **kwargs):
        assert started.wait(30)  # the bwd direction is running on its thread
        raise failure

    def slow_bwd(*args, **kwargs):
        started.set()
        time.sleep(0.2)
        result = bwd_call(*args, **kwargs)
        finished.append(threading.current_thread().name)
        return result
    monkeypatch.setattr(layer.fwd, method, fail)
    monkeypatch.setattr(layer.bwd, method, slow_bwd)
    with pytest.raises(RuntimeError) as caught:
        if cache is None:
            model.forward_teacher_forced(inputs, lengths, targets)
        else:
            model.backward(cache)
    assert caught.value is failure
    assert len(finished) == 1 and finished[0].startswith("aacap-bilstm")
    assert not _helper_threads()


def test_a_forked_child_trains_on_a_helper_of_its_own():
    import os
    import time

    inputs, lengths, targets = _paper_batch()
    model = CaptionModel(PAPER, seed=5)
    want = model.forward_teacher_forced(inputs, lengths, targets)  # starts the helper
    pid = os.fork()
    if pid == 0:  # the child has no helper thread until it starts one
        try:
            got = model.forward_teacher_forced(inputs, lengths, targets)
            model.backward(got.cache)
            os._exit(0 if got.loss == want.loss else 1)
        finally:
            os._exit(2)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


def test_training_at_tier_one_dims_never_starts_the_helper(tmp_path):
    """In a fresh process: training at the dims of the pipeline and acceptance
    training tests, and any encode, open no second thread. Small encoders open
    none; the 8-row probe's decoder (dec_hidden 256, halves of 4 rows) opens
    one in forward and one in backward. A paper-dims batch opens one per layer
    pass, and from 8 rows one more for the decoder halves in forward and in
    backward; none is alive after any call."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = f"""
import threading
import numpy as np
from aacap import model as model_module
from aacap.model import CaptionModel, ModelConfig
from aacap.pipeline import TrainConfig, make_toy_dataset, train

opened, side_by_side = [], model_module.side_by_side

def counting(calls, name):
    opened.append(name)
    return side_by_side(calls, name)

model_module.side_by_side = counting

def report():
    print(len(opened), sorted(t.name for t in threading.enumerate()))

manifest = make_toy_dataset({str(tmp_path / "toy")!r}, seed=0, n_items=4)
train(TrainConfig(batch_size=4, initial_lr=1e-2, max_epochs=1, seed=0, vocab_min_count=1,
                  enc_hidden=8, attn_dim=8, dec_hidden=8, word_dim=8),
      manifest, {str(tmp_path / "run")!r})
report()
rng = np.random.default_rng(0)
for batch, hidden in [(4, 32), (8, 16), (4, 8)]:
    model = CaptionModel(ModelConfig(embed_dim=16, vocab_size=9, enc_hidden=hidden))
    result = model.forward_teacher_forced(rng.normal(size=(batch, 12, 16)), [12] * batch,
                                          [[1, 5, 6, 2]] * batch)
    model.backward(result.cache)
paper = CaptionModel(ModelConfig(embed_dim=128, vocab_size=40))
paper.encode(rng.normal(size=(16, 20, 128)), [20] * 16)
report()
for batch in (4, 8):
    result = paper.forward_teacher_forced(rng.normal(size=(batch, 6, 128)), [6] * batch,
                                          [[1, 5, 6, 2]] * batch)
    report()
    paper.backward(result.cache)
    report()
"""
    repo = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(repo / "src")}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [f"{n} ['MainThread']" for n in (0, 2, 4, 6, 9, 12)]


def test_decoder_advance_over_rows_equals_per_row_calls():
    for seed in (0, 1, 2):
        model, matrices, valids, inputs, lengths = batch_fixture(seed)
        dec = model.decoder
        values, _ = model.encoder.forward(inputs, lengths)
        enc = EncoderOutput(values, np.asarray(lengths), dec.attention.keys(values))
        rng = np.random.default_rng(seed)
        batch = len(lengths)
        tokens = rng.integers(0, TINY.vocab_size, size=batch)
        h_prev, c_prev = rng.normal(size=(2, batch, TINY.dec_hidden))
        h, c, gates, att = dec.advance(tokens, h_prev, c_prev, enc)
        for b in range(batch):
            row = EncoderOutput(values[b], lengths[b], enc.keys[b])
            h_b, c_b, gates_b, att_b = dec.advance(int(tokens[b]), h_prev[b], c_prev[b], row)
            for name, got, want in (("h", h[b], h_b), ("c", c[b], c_b),
                                    ("gates", gates[b], gates_b),
                                    ("weights", att.weights[b], att_b.weights),
                                    ("context", att.context[b], att_b.context)):
                assert got.shape == want.shape, name
                assert_within_policy(got, want, name)


def test_teacher_forced_attention_weights_equal_advance_row_by_row():
    model, matrices, valids, inputs, lengths = batch_fixture(seed=4)
    result = model.forward_teacher_forced(inputs, lengths, [t for _, t in BATCH_SAMPLES])
    cache = result.cache.decoder
    for b, (item, _) in enumerate(BATCH_SAMPLES):
        enc = model.encode(matrices[item], valids[item])
        h, c = model.initial_state()
        for s in range(cache.n_steps[b]):
            h, c, _, att = model.decoder.advance(int(cache.tokens_in[s, b]), h, c, enc)
            cached = cache.weights[s, b]
            assert np.all(cached[len(matrices[item]):] == 0.0)
            assert_within_policy(cached[:len(matrices[item])], att.weights)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    model = CaptionModel(TINY, seed=12)
    path = tmp_path / "model.ckpt"
    model.save(path, extra_config={"vocab": ["<PAD>", "<START>", "<END>", "<UNK>", "a", "b"]})
    loaded, config = CaptionModel.load(path)
    assert config["model"]["embed_dim"] == 8
    assert config["vocab"][4] == "a"
    for orig, new in zip(model.parameters(), loaded.parameters()):
        assert orig.name == new.name
        assert np.array_equal(orig.value, new.value)
    m = np.random.default_rng(13).normal(size=(3, 8))
    assert np.array_equal(model.encode(m).values, loaded.encode(m).values)


def _checkpoint_bytes_written_field_by_field(model, extra_config):
    """The checkpoint layout written one struct.pack per field: the reference
    for CaptionModel.save."""
    params = model.parameters()
    config = dict(extra_config)
    config["model"] = {"embed_dim": model.cfg.embed_dim, "vocab_size": model.cfg.vocab_size,
                       "enc_hidden": model.cfg.enc_hidden, "attn_dim": model.cfg.attn_dim,
                       "dec_hidden": model.cfg.dec_hidden, "word_dim": model.cfg.word_dim}
    config["arrays"] = [group.name for group in params]
    packed = [struct.pack(f"<{group.value.size}d", *group.value.ravel()) for group in params]
    config["sums"] = [sum(struct.unpack(f"<{len(data) // 8}Q", data)) % 2 ** 64
                      for data in packed]
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    return b"".join([b"AACM\x05", struct.pack("<I", len(blob)),
                     struct.pack("<I", zlib.crc32(blob)), blob] + packed)


@pytest.mark.parametrize("seed", [0, 12])
def test_checkpoint_bytes_equal_the_field_by_field_layout(tmp_path, seed):
    model = CaptionModel(TINY, seed=seed)
    extra = {"vocab": ["<PAD>", "<START>", "<END>", "<UNK>", "a", "b"]}
    model.save(tmp_path / "model.ckpt", extra_config=extra)
    assert (tmp_path / "model.ckpt").read_bytes() == \
        _checkpoint_bytes_written_field_by_field(model, extra)
    assert TINY.to_dict() == {"embed_dim": 8, "vocab_size": 6, "enc_hidden": 4,
                              "attn_dim": 4, "dec_hidden": 8, "word_dim": 8}
    assert list(TINY.to_dict()) == ["embed_dim", "vocab_size", "enc_hidden", "attn_dim",
                                    "dec_hidden", "word_dim"]


# fail at the header, at the first array, and with 7 of 16 arrays written
@pytest.mark.parametrize("fail_at", [1, 2, 9])
def test_failed_save_leaves_the_previous_checkpoint_whole(tmp_path, monkeypatch, fail_at):
    import builtins
    import errno

    import aacap.model as model_module

    path = tmp_path / "model.ckpt"
    CaptionModel(TINY, seed=1).save(path)
    before = path.read_bytes()
    writes = []

    class FailingFile:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return self.fh.__exit__(*exc_info)

        def write(self, data):
            writes.append(len(data))
            if len(writes) == fail_at:
                raise OSError(errno.ENOSPC, "No space left on device")
            return self.fh.write(data)

    monkeypatch.setattr(model_module, "open",
                        lambda *args, **kwargs: FailingFile(builtins.open(*args, **kwargs)),
                        raising=False)
    with pytest.raises(OSError, match="No space left"):
        CaptionModel(TINY, seed=2).save(path)
    monkeypatch.undo()
    assert len(writes) == fail_at and len(CaptionModel(TINY).parameters()) == 16
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
    loaded, _ = CaptionModel.load(path)
    for orig, new in zip(CaptionModel(TINY, seed=1).parameters(), loaded.parameters()):
        assert np.array_equal(orig.value, new.value)


def test_save_into_a_missing_directory_raises_and_leaves_nothing(tmp_path):
    with pytest.raises(FileNotFoundError):
        CaptionModel(TINY, seed=1).save(tmp_path / "missing" / "model.ckpt")
    assert list(tmp_path.iterdir()) == []


def test_save_replaces_an_existing_checkpoint(tmp_path):
    path = tmp_path / "model.ckpt"
    CaptionModel(TINY, seed=1).save(path)
    CaptionModel(TINY, seed=2).save(path)
    loaded, _ = CaptionModel.load(path)
    for orig, new in zip(CaptionModel(TINY, seed=2).parameters(), loaded.parameters()):
        assert np.array_equal(orig.value, new.value)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"WHAT\x01" + b"\x00" * 32)
    with pytest.raises(FormatError):
        CaptionModel.load(path)


def test_checkpoint_truncation_detected(tmp_path):
    model = CaptionModel(TINY, seed=12)
    path = tmp_path / "model.ckpt"
    model.save(path)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(CorruptionError):
        CaptionModel.load(path)


def _old_version_exits_3(tmp_path, capsys, version: bytes):
    from aacap import cli
    from aacap.embeddings import save_embedding_file

    path = tmp_path / "old.ckpt"
    CaptionModel(TINY, seed=12).save(
        path, extra_config={"vocab": ["<PAD>", "<START>", "<END>", "<UNK>", "a", "b"]})
    path.write_bytes(b"AACM" + version + path.read_bytes()[5:])
    with pytest.raises(FormatError):
        CaptionModel.load(path)
    matrix = tmp_path / "m.aace"
    save_embedding_file(matrix, np.zeros((3, 8)))
    assert cli.main(["caption", "--checkpoint", str(path), "--input", str(matrix)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "bad magic/version" in err


def test_checkpoint_v1_is_a_format_error_exit_3(tmp_path, capsys):
    # version 1 stored each LSTM gate as its own array; it is no longer read
    _old_version_exits_3(tmp_path, capsys, b"\x01")


def test_checkpoint_v2_is_a_format_error_exit_3(tmp_path, capsys):
    # version 2 wrote a name, ndim and shape header before each array
    _old_version_exits_3(tmp_path, capsys, b"\x02")


def test_checkpoint_v3_is_a_format_error_exit_3(tmp_path, capsys):
    # version 3 had no word sums in its config block
    _old_version_exits_3(tmp_path, capsys, b"\x03")


def test_checkpoint_v4_is_a_format_error_exit_3(tmp_path, capsys):
    # version 4 had no CRC of its config block
    _old_version_exits_3(tmp_path, capsys, b"\x04")


def _config_block(path) -> dict:
    data = path.read_bytes()
    (blob_len,) = struct.unpack("<I", data[5:9])
    return json.loads(data[13:13 + blob_len])


def test_checkpoint_writes_v5_names_sums_then_weights_back_to_back(tmp_path):
    model = CaptionModel(TINY, seed=12)
    path = tmp_path / "model.ckpt"
    model.save(path)
    data = path.read_bytes()
    assert data[:5] == b"AACM\x05"
    (blob_len, crc) = struct.unpack("<II", data[5:13])
    assert crc == zlib.crc32(data[13:13 + blob_len])
    config = _config_block(path)
    assert config["arrays"] == [group.name for group in model.parameters()]
    assert config["sums"] == [int(np.add.reduce(g.value.ravel().view(np.uint64), dtype=np.uint64))
                              for g in model.parameters()]
    assert "enc.l1.fwd.w" in config["arrays"]  # a fused name
    assert b"w_forget" not in data
    assert len(data) == 13 + blob_len + 8 * TINY.parameter_count
    weights = np.frombuffer(data[13 + blob_len:], dtype="<f8")
    assert np.array_equal(weights, np.concatenate([g.value.ravel() for g in model.parameters()]))


def test_checkpoint_extra_config_cannot_replace_model_or_arrays(tmp_path):
    model = CaptionModel(TINY, seed=12)
    path = tmp_path / "model.ckpt"
    model.save(path, extra_config={"model": {"embed_dim": 3}, "arrays": [], "sums": [],
                                   "vocab": ["x"]})
    loaded, config = CaptionModel.load(path)
    assert config["model"] == TINY.to_dict() and config["vocab"] == ["x"]
    for orig, new in zip(model.parameters(), loaded.parameters()):
        assert np.array_equal(orig.value, new.value)


def test_checkpoint_round_trip_at_paper_dims(tmp_path):
    cfg = ModelConfig(embed_dim=128, vocab_size=4404)  # 256/256/256/128, ~41 MB
    model = CaptionModel(cfg, seed=3)
    path = tmp_path / "model.ckpt"
    model.save(path)
    loaded, _ = CaptionModel.load(path)
    for orig, new in zip(model.parameters(), loaded.parameters()):
        assert orig.name == new.name
        assert np.array_equal(orig.value, new.value)


def _rewrite_config(path, config_bytes):
    """Replace the config block with `config_bytes`, behind their own length
    and CRC, so that a load reaches the checks past the CRC."""
    data = path.read_bytes()
    (old_len,) = struct.unpack("<I", data[5:9])
    path.write_bytes(data[:5] + struct.pack("<II", len(config_bytes), zlib.crc32(config_bytes))
                     + config_bytes + data[13 + old_len:])


@pytest.mark.parametrize("config_bytes", [
    b"\xff\xfe not utf-8",
    b"{not json",
    b'{"vocab": []}',
    b'[1, 2]',
    b'{"model": {"embed_dim": 8}}',
    b'{"model": {"embed_dim": 8, "vocab_size": 6, "colour": 1}}',
    b'{"model": {"embed_dim": -8, "vocab_size": 6}}',
    b'{"model": {"embed_dim": "8", "vocab_size": 6}}',
])
def test_checkpoint_bad_config_block_is_corruption(tmp_path, config_bytes):
    path = tmp_path / "model.ckpt"
    CaptionModel(TINY, seed=12).save(path)
    _rewrite_config(path, config_bytes)
    with pytest.raises(CorruptionError):
        CaptionModel.load(path)


def _arrays_reordered(names):
    return [names[1], names[0]] + names[2:]


@pytest.mark.parametrize("edit", [_arrays_reordered, lambda names: names[:-1],
                                  lambda names: names + ["enc.l3.fwd.w"],
                                  lambda names: names[:-1] + ["dec.w_extra"],
                                  lambda names: None],
                         ids=["reordered", "missing", "extra", "renamed", "absent"])
def test_checkpoint_array_names_must_match_the_layout(tmp_path, edit):
    path = tmp_path / "model.ckpt"
    CaptionModel(TINY, seed=12).save(path)
    config = _config_block(path)
    config["arrays"] = edit(config["arrays"])
    if config["arrays"] is None:
        del config["arrays"]
    _rewrite_config(path, json.dumps(config).encode("utf-8"))
    with pytest.raises(CorruptionError, match="layout"):
        CaptionModel.load(path)


@pytest.mark.parametrize("cut, message", [
    (lambda data: data + b"\x00", "bytes of weights"),
    (lambda data: data[:-1], "bytes of weights"),
    (lambda data: data[:-8], "bytes of weights"),
    (lambda data: data[:16], "config block"),
    (lambda data: data[:7], "config block"),
], ids=["one-trailing-byte", "one-byte-short", "one-value-short", "in-config", "in-prefix"])
def test_checkpoint_size_must_equal_config_plus_weights(tmp_path, cut, message):
    path = tmp_path / "model.ckpt"
    CaptionModel(TINY, seed=12).save(path)
    path.write_bytes(cut(path.read_bytes()))
    with pytest.raises(CorruptionError, match=message):
        CaptionModel.load(path)


def test_checkpoint_non_finite_values_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    CaptionModel(TINY, seed=12).save(path)
    data = path.read_bytes()
    path.write_bytes(data[:-8] + struct.pack("<d", math.inf))
    with pytest.raises(CorruptionError, match="non-finite"):
        CaptionModel.load(path)


def test_checkpoint_edited_weight_fails_its_word_sum(tmp_path):
    path = tmp_path / "model.ckpt"
    CaptionModel(TINY, seed=12).save(path)
    data = path.read_bytes()
    (last,) = struct.unpack("<d", data[-8:])
    path.write_bytes(data[:-8] + struct.pack("<d", last + 1.0))
    with pytest.raises(CorruptionError, match="attn.w_score does not match its word sum"):
        CaptionModel.load(path)


@pytest.mark.parametrize("edit", [lambda sums: sums[:-1], lambda sums: None,
                                  lambda sums: "0", lambda sums: sums[:1] + [0] + sums[2:]],
                         ids=["missing", "absent", "not-a-list", "wrong"])
def test_checkpoint_word_sums_must_match_the_arrays(tmp_path, edit):
    path = tmp_path / "model.ckpt"
    CaptionModel(TINY, seed=12).save(path)
    config = _config_block(path)
    config["sums"] = edit(config["sums"])
    if config["sums"] is None:
        del config["sums"]
    _rewrite_config(path, json.dumps(config).encode("utf-8"))
    with pytest.raises(CorruptionError, match="word sum"):
        CaptionModel.load(path)


def test_checkpoint_huge_config_dim_rejected_before_allocating(tmp_path):
    # 10^12 vocabulary rows would need terabytes; the file holds a few kB
    path = tmp_path / "model.ckpt"
    CaptionModel(TINY, seed=12).save(path)
    huge = dict(TINY.to_dict(), vocab_size=10 ** 12)
    _rewrite_config(path, json.dumps({"model": huge}).encode("utf-8"))
    with pytest.raises(CorruptionError, match="bytes of weights"):
        CaptionModel.load(path)


@pytest.mark.parametrize("cfg", [
    TINY,
    ModelConfig(embed_dim=3, vocab_size=11, enc_hidden=2, attn_dim=5, dec_hidden=7, word_dim=1),
    ModelConfig(embed_dim=128, vocab_size=40),
])
def test_parameter_count_matches_the_built_model(cfg):
    model = CaptionModel(cfg, seed=0, random_init=False)
    assert cfg.parameter_count == sum(group.value.size for group in model.parameters())


def test_checkpoint_load_draws_no_random_init(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    model = CaptionModel(TINY, seed=12)
    model.save(path)

    def no_draws(*args, **kwargs):
        raise AssertionError("load made a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    loaded, _ = CaptionModel.load(path)
    for orig, new in zip(model.parameters(), loaded.parameters()):
        assert np.array_equal(orig.value, new.value), orig.name


def test_loaded_model_holds_no_training_buffers(tmp_path):
    from aacap.decoding import beam_search

    path = tmp_path / "model.ckpt"
    CaptionModel(TINY, seed=12).save(path)
    loaded, _ = CaptionModel.load(path)
    loaded.zero_grads()
    beam_search(loaded, loaded.encode(np.random.default_rng(1).normal(size=(3, 8))), beam=2)
    for group in loaded.parameters():
        assert not {"gradient", "adam_m", "adam_v"} & vars(group).keys()


def test_encode_carries_attention_keys():
    model = CaptionModel(TINY, seed=3)
    enc = model.encode(np.random.default_rng(4).normal(size=(5, 8)), valid_length=4)
    assert np.array_equal(enc.keys, enc.values @ model.decoder.attention.w_enc.value)


def _unhoisted_attention_forward(att, enc_values, valid, h_prev):
    """Attention.forward as it was before the keys were hoisted."""
    pre = enc_values @ att.w_enc.value + h_prev @ att.w_hidden.value
    alpha = np.maximum(pre, 0.0)
    logits = (alpha @ att.w_score.value).ravel()
    logits[valid:] = -np.inf
    weights = softmax(logits)
    weights[valid:] = 0.0
    return pre, alpha, weights, weights @ enc_values


def test_attention_with_hoisted_keys_is_bit_identical_to_unhoisted_formula():
    rng = np.random.default_rng(21)
    for trial in range(20):
        model = CaptionModel(TINY, seed=trial)
        att = model.decoder.attention
        t_total = int(rng.integers(1, 8))
        valid = int(rng.integers(1, t_total + 1))
        enc = model.encode(rng.normal(size=(t_total, 8)), valid_length=valid)
        h_prev = rng.normal(size=8)
        step = att.forward(enc.values, valid, h_prev, enc.keys)
        pre = att._pre(enc.keys, h_prev)
        alpha = np.maximum(pre, 0.0)
        want_pre, want_alpha, want_weights, want_context = _unhoisted_attention_forward(
            att, enc.values, valid, h_prev)
        assert np.array_equal(pre, want_pre)
        assert np.array_equal(alpha, want_alpha)
        assert np.array_equal(step.weights, want_weights)
        assert np.array_equal(step.context, want_context)
