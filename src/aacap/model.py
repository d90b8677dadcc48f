"""Bi-LSTM encoder and attention LSTM decoder with hand-written gradients.

Shapes follow one convention throughout: feature rows are time steps. The
encoder runs a padded batch: inputs (B, T, F_e) laid out by
features.bucket_pad, one valid length per row, padding at the end of each
row. Its output E is (B, T, d_e), with d_e twice the per-direction hidden
size, and is zero on padded frames. CaptionModel.encode runs one (T, F_e)
matrix as the batch-of-1 case of the same encoder; inference then steps
the decoder one 1-D vector at a time.

Each LSTM cell holds one fused weight (input_dim + hidden_dim, 4 * hidden)
and one bias (4 * hidden), gate column blocks in LstmCell.GATES order
(forget, input, output, cell candidate); see Appleyard et al. 2016,
arXiv:1604.01946. A Bi-LSTM layer takes each direction's input projection
X W_x + b as one product before its time loop, so a step costs one
(B, hidden) x (hidden, 4 * hidden) product plus elementwise gates. Padded
steps run like any other, on zeroed input. Their outputs are dropped and
their incoming gradient is zeroed, so their gate deltas are exactly zero;
since padding only follows a row's valid steps, the recurrence needs no
per-step mask. The bwd direction reads each row reversed within its own
length, through one gather index.

Teacher forcing takes a padded batch of B samples, one encoder row and one
target each. The decoder steps every sample as one (B, d_h) matrix; the
logits do not feed the recurrence, so the output projection and softmax
are one (sum of steps, d_h) x (d_h, V) product after the loop. Word
embeddings enter the decoder cell's input projection once, before
the loop. A sample's steps past its last target token run on and are
never read, and a sample with no target step adds loss 0 and no gradient.
The attention keys E W_enc do not depend on the decoder state, so they are
taken once per encode and carried on EncoderOutput; each decoder step adds
only h_prev W_h to them.

Backpropagation is reverse-time over decoder steps (through the attention
read and the decoder cell), then reverse-time through both encoder layers.
The reverse loops carry only the recurrence and stack the per-step deltas
into rows; each gradient that does not feed the recurrence (cell weights
and biases, the output projection, the word embeddings, the attention's
encoder side and its context read) is then one product over the stacked
rows. Attention pre-activations are recomputed in backward rather than
kept per step, and an encoder cell's h is recomputed from its gates and c.
Every learnable array is a numerics.ParameterGroup so the finite
difference checker can sweep the whole model.

Tolerance policy: a batch's loss and gradients equal the sums of its
samples' batch-of-1 losses and gradients up to the order of floating-point
sums. The tests hold them to rtol 1e-9, the loss also against the
straight-line reference in tests/refimpl.py; for a gradient array the
tolerance is taken against its largest entry, since entries that cancel to
~1e-19 carry no relative digits. Values in padded frames change nothing,
bit for bit.

Checkpoints are "AACM" plus version byte 2: a length-prefixed JSON config
block, then each parameter by name, shape and float64 data. Version 1
files, which stored each gate as its own array, still load. A load checks
the config's weight bytes against the file size before it builds the
model, and builds it without random init, since every array is overwritten.
"""

import json
import math
import os
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, CorruptionError, FormatError, ShapeError
from .numerics import PROB_FLOOR, ParameterGroup, sigmoid, softmax
from .text import PAD

CHECKPOINT_MAGIC = b"AACM\x02"
_CHECKPOINT_MAGIC_V1 = b"AACM\x01"  # per-gate LSTM arrays; read, never written


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int  # F_e of the input matrix
    vocab_size: int
    enc_hidden: int = 256  # per direction; encoder output dim d_e = 2 * enc_hidden
    attn_dim: int = 256  # d_a
    dec_hidden: int = 256  # d_h
    word_dim: int = 128  # d_w

    def __post_init__(self):
        for name, value in self.to_dict().items():
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ConfigError(f"model {name} must be a positive integer, got {value!r}")

    @property
    def enc_out_dim(self) -> int:
        return 2 * self.enc_hidden

    @property
    def parameter_count(self) -> int:
        """Float64 values in a model of this config, which is what a checkpoint stores."""
        def cell(input_dim, hidden):
            return (input_dim + hidden + 1) * 4 * hidden
        hidden, enc_out = self.enc_hidden, self.enc_out_dim
        return (2 * cell(self.embed_dim, hidden) + 2 * cell(enc_out, hidden)
                + self.vocab_size * self.word_dim
                + cell(self.word_dim + enc_out, self.dec_hidden)
                + (self.dec_hidden + 1) * self.vocab_size
                + (enc_out + self.dec_hidden + 1) * self.attn_dim)

    def to_dict(self) -> dict:
        return {"embed_dim": self.embed_dim, "vocab_size": self.vocab_size,
                "enc_hidden": self.enc_hidden, "attn_dim": self.attn_dim,
                "dec_hidden": self.dec_hidden, "word_dim": self.word_dim}


@dataclass
class EncoderOutput:
    values: np.ndarray  # (T, d_e); rows at or beyond valid_length are zero
    valid_length: int
    keys: np.ndarray  # (T, d_a) attention keys E W_enc, the same for every decoder step


@dataclass
class AttentionStep:
    weights: np.ndarray  # (..., T) probabilities, exactly 0 on padded frames
    context: np.ndarray  # (..., d_e) attention-weighted encoder read


@dataclass
class ForwardResult:
    loss: float  # sum over the batch of each sample's mean cross-entropy
    cache: "_BatchCache"


@dataclass
class _DecoderCache:
    """What backward reads of a teacher-forced batch of B samples, S = the
    most target steps of any sample. Per-step arrays are step-major."""

    enc_values: np.ndarray  # (B, T, d_e)
    keys: np.ndarray  # (B, T, d_a) attention keys
    tokens_in: np.ndarray  # (S, B)
    h: np.ndarray  # (S + 1, B, d_h); row s is the state before step s
    c: np.ndarray  # (S + 1, B, d_h)
    gates: np.ndarray  # (S, B, 4 d_h)
    contexts: np.ndarray  # (S, B, d_e)
    weights: np.ndarray  # (S, B, T)
    n_steps: np.ndarray  # (B,) target steps per sample
    samples: np.ndarray  # (N,) sample of each target step, sample-major
    steps: np.ndarray  # (N,) its step index
    tokens_out: np.ndarray  # (N,) its gold token
    probs: np.ndarray  # (N, V) its softmax output


@dataclass
class _BatchCache:
    """Backward drops each part once it has used it, so a cache is used once."""

    encoder: list  # per-layer caches
    decoder: Optional[_DecoderCache]


def _glorot(rng: Optional[np.random.Generator], rows: int, cols: int,
            blocks: int = 1) -> np.ndarray:
    """(rows, blocks * cols): `blocks` Glorot-uniform (rows, cols) draws side by
    side, drawn in order. Without an rng the array is left uninitialised, for a
    checkpoint load to fill."""
    if rng is None:
        return np.empty((rows, blocks * cols))
    limit = np.sqrt(6.0 / (rows + cols))
    draws = [rng.uniform(-limit, limit, size=(rows, cols)) for _ in range(blocks)]
    return draws[0] if blocks == 1 else np.concatenate(draws, axis=1)


def _step_count(target: Sequence[int]) -> int:
    """Teacher-forced steps of a target: up to, not including, the first PAD output."""
    for s in range(len(target) - 1):
        if target[s + 1] == PAD:
            return s
    return max(len(target) - 1, 0)


class LstmCell:
    """Single LSTM cell with one fused weight (input_dim + hidden_dim, 4 * hidden_dim)
    and one bias (4 * hidden_dim); gate column blocks follow GATES order.

    The decoder steps the cell one vector at a time in inference and one
    (B, hidden) matrix at a time in training; BiLstmLayer runs it over a
    padded batch of sequences, taking the input projection before the time
    loop and the weight gradients after it.
    """

    GATES = ("forget", "input", "output", "cell")

    def __init__(self, name: str, input_dim: int, hidden_dim: int,
                 rng: Optional[np.random.Generator]):
        self.name = name
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        # one (in+h, h) Glorot draw per gate, in GATES order, keeps seeded inits unchanged
        self.w = ParameterGroup(f"{name}.w", _glorot(rng, input_dim + hidden_dim, hidden_dim,
                                                     blocks=len(self.GATES)))
        bias = np.zeros(4 * hidden_dim)
        bias[:hidden_dim] = 1.0  # forget gate: remember by default
        self.b = ParameterGroup(f"{name}.b", bias)

    def params(self) -> list[ParameterGroup]:
        return [self.w, self.b]

    def activate(self, pre: np.ndarray, c_prev: np.ndarray):
        """Gate activations, new cell state and h from pre-activations (..., 4h)."""
        hidden = self.hidden_dim
        gates = np.empty_like(pre)
        gates[..., :3 * hidden] = sigmoid(pre[..., :3 * hidden])
        gates[..., 3 * hidden:] = np.tanh(pre[..., 3 * hidden:])
        f, i, o, g = (gates[..., k * hidden:(k + 1) * hidden] for k in range(4))
        c = f * c_prev + i * g
        return gates, c, o * np.tanh(c)

    def gate_deltas(self, gates: np.ndarray, c_prev: np.ndarray, c: np.ndarray,
                    dh: np.ndarray, dc: np.ndarray, d_pre: np.ndarray) -> np.ndarray:
        """Writes d(loss)/d(gate pre-activations) of one step into d_pre (..., 4h),
        from its gates and cell states before and after; returns the gradient
        reaching c_prev. Zero dh and dc give zero deltas."""
        hidden = self.hidden_dim
        f, i, o, g = (gates[..., k * hidden:(k + 1) * hidden] for k in range(4))
        tanh_c = np.tanh(c)
        dc_total = dc + dh * o * (1.0 - tanh_c * tanh_c)
        d_pre[..., :hidden] = dc_total * c_prev * f * (1.0 - f)
        d_pre[..., hidden:2 * hidden] = dc_total * g * i * (1.0 - i)
        d_pre[..., 2 * hidden:3 * hidden] = dh * tanh_c * o * (1.0 - o)
        d_pre[..., 3 * hidden:] = dc_total * i * (1.0 - g * g)
        return dc_total * f

    def step(self, x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray):
        """Returns (h, c). h = o * tanh(f * c_prev + i * g_candidate)."""
        if x.shape != (self.input_dim,):
            raise ShapeError(f"{self.name}: input shape {x.shape}, expected ({self.input_dim},)")
        z = np.concatenate([x, h_prev])
        _, c, h = self.activate(z @ self.w.value + self.b.value, c_prev)
        return h, c

    def forward_sequence(self, x_seq: np.ndarray):
        """Runs the cell from zero state over each row of x_seq (B, T, input_dim).

        Returns (h_seq (B, T, hidden_dim), cache for backward_sequence). Each
        step is one (B, hidden) product. The cache is a list, stored
        step-major, that backward empties; it leaves out h_seq, which
        backward recomputes as o * tanh(c).
        """
        batch, frames = x_seq.shape[:2]
        hidden = self.hidden_dim
        x = x_seq.transpose(1, 0, 2).reshape(frames * batch, self.input_dim)
        w_h = self.w.value[self.input_dim:]
        # each step's gate buffer starts as its input projection
        gates = (x @ self.w.value[:self.input_dim] + self.b.value).reshape(
            frames, batch, 4 * hidden)
        h_seq = np.zeros((frames + 1, batch, hidden))  # row t is the state before step t
        c_seq = np.zeros((frames + 1, batch, hidden))
        for t in range(frames):
            gates[t], c_seq[t + 1], h_seq[t + 1] = self.activate(
                gates[t] + h_seq[t] @ w_h, c_seq[t])
        return h_seq[1:].transpose(1, 0, 2), [x, gates, c_seq]

    def backward_sequence(self, cache, dh_seq: np.ndarray) -> np.ndarray:
        """Backprop of forward_sequence given d(loss)/d(h_seq) (B, T, hidden_dim).

        Accumulates the parameter gradients with one product each after the
        reverse-time loop; returns d(loss)/d(x_seq) (B, T, input_dim). Each
        cached array is freed once it is no longer needed.
        """
        x, gates, c_seq = cache
        cache.clear()
        frames, batch = gates.shape[:2]
        hidden = self.hidden_dim
        w_x, w_h = self.w.value[:self.input_dim], self.w.value[self.input_dim:]
        dh = dh_seq.transpose(1, 0, 2)
        d_pre = np.empty_like(gates)
        dh_carry = dc_carry = np.zeros((batch, hidden))
        for t in range(frames - 1, -1, -1):
            dc_carry = self.gate_deltas(gates[t], c_seq[t], c_seq[t + 1],
                                        dh[t] + dh_carry, dc_carry, d_pre[t])
            dh_carry = d_pre[t] @ w_h.T
        h_prev = np.zeros((frames, batch, hidden))  # the state before each step
        np.multiply(gates[:-1, :, 2 * hidden:3 * hidden], np.tanh(c_seq[1:-1]), out=h_prev[1:])
        del gates, c_seq
        d_pre = d_pre.reshape(frames * batch, 4 * hidden)
        self.w.gradient[:self.input_dim] += x.T @ d_pre
        del x
        self.w.gradient[self.input_dim:] += h_prev.reshape(frames * batch, hidden).T @ d_pre
        self.b.gradient += d_pre.sum(axis=0)
        return (d_pre @ w_x.T).reshape(frames, batch, self.input_dim).transpose(1, 0, 2)


class BiLstmLayer:
    """Forward and backward LSTM passes over a padded batch, states concatenated per step."""

    def __init__(self, name: str, input_dim: int, hidden_dim: int,
                 rng: Optional[np.random.Generator]):
        self.hidden_dim = hidden_dim
        self.fwd = LstmCell(f"{name}.fwd", input_dim, hidden_dim, rng)
        self.bwd = LstmCell(f"{name}.bwd", input_dim, hidden_dim, rng)

    def params(self) -> list[ParameterGroup]:
        return self.fwd.params() + self.bwd.params()

    def forward(self, x_seq: np.ndarray, lengths: np.ndarray):
        """x_seq (B, T, in), rows valid up to lengths (B,); returns (B, T, 2 hidden),
        zero on padded frames, and the cache for backward."""
        batch, frames = x_seq.shape[:2]
        t = np.arange(frames)
        valid = t < lengths[:, None]
        # row b's frames lengths[b]-1, ..., 0, then its padding; the map is its own inverse
        order = np.where(valid, lengths[:, None] - 1 - t, t)
        row = np.arange(batch)[:, None]
        h_fwd, fwd_cache = self.fwd.forward_sequence(x_seq)
        h_bwd, bwd_cache = self.bwd.forward_sequence(x_seq[row, order])
        out = np.concatenate([h_fwd, h_bwd[row, order]], axis=2)
        out[~valid] = 0.0
        return out, [fwd_cache, bwd_cache, valid, order]

    def backward(self, cache, dout: np.ndarray) -> np.ndarray:
        """Empties cache; each direction's arrays are freed by its own backward."""
        fwd_cache, bwd_cache, valid, order = cache
        cache.clear()
        hidden = self.hidden_dim
        row = np.arange(dout.shape[0])[:, None]
        dout = np.where(valid[..., None], dout, 0.0)
        dx = self.fwd.backward_sequence(fwd_cache, dout[..., :hidden])
        dx += self.bwd.backward_sequence(bwd_cache, dout[row, order, hidden:])[row, order]
        return dx


class Encoder:
    """Two stacked Bi-LSTM layers; per-step outputs of the second layer feed attention."""

    def __init__(self, cfg: ModelConfig, rng: Optional[np.random.Generator]):
        self.cfg = cfg
        self.layer1 = BiLstmLayer("enc.l1", cfg.embed_dim, cfg.enc_hidden, rng)
        self.layer2 = BiLstmLayer("enc.l2", cfg.enc_out_dim, cfg.enc_hidden, rng)

    def params(self) -> list[ParameterGroup]:
        return self.layer1.params() + self.layer2.params()

    def forward(self, inputs: np.ndarray, lengths: Sequence[int]):
        """inputs (B, T, F_e), row b valid for its first lengths[b] frames.

        Returns (E (B, T, d_e), cache). Padded frames are zeroed on entry, so
        their values never reach E, the loss or a gradient.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 3 or inputs.shape[0] == 0 or inputs.shape[2] != self.cfg.embed_dim:
            raise ShapeError(
                f"encoder input shape {inputs.shape}, expected (B, T, {self.cfg.embed_dim})")
        lengths = np.asarray(lengths, dtype=np.int64)
        frames = inputs.shape[1]
        if lengths.shape != inputs.shape[:1]:
            raise ShapeError(f"valid lengths of shape {lengths.shape} for "
                             f"{inputs.shape[0]} encoder rows")
        if lengths.min() < 1 or lengths.max() > frames:
            raise ValueError(f"valid_length {lengths.tolist()} outside 1..{frames}")
        x = np.where((np.arange(frames) < lengths[:, None])[..., None], inputs, 0.0)
        mid, cache1 = self.layer1.forward(x, lengths)
        out, cache2 = self.layer2.forward(mid, lengths)
        return out, [cache1, cache2]

    def backward(self, cache: list, d_out: np.ndarray) -> np.ndarray:
        """Returns d(loss)/d(inputs); each layer's cache is dropped once used."""
        d_mid = self.layer2.backward(cache.pop(), d_out)
        return self.layer1.backward(cache.pop(), d_mid)


class Attention:
    """Additive temporal attention: scores = ReLU(E We + h_prev Wh) Wa, then softmax."""

    def __init__(self, cfg: ModelConfig, rng: Optional[np.random.Generator]):
        self.w_enc = ParameterGroup("attn.w_enc", _glorot(rng, cfg.enc_out_dim, cfg.attn_dim))
        self.w_hidden = ParameterGroup("attn.w_hidden", _glorot(rng, cfg.dec_hidden, cfg.attn_dim))
        self.w_score = ParameterGroup("attn.w_score", _glorot(rng, cfg.attn_dim, 1))

    def params(self) -> list[ParameterGroup]:
        return [self.w_enc, self.w_hidden, self.w_score]

    def keys(self, enc_values: np.ndarray) -> np.ndarray:
        """E W_enc (..., T, d_a): the part of every step's pre-activation that h_prev
        leaves alone."""
        return enc_values @ self.w_enc.value

    def _pre(self, keys: np.ndarray, h_prev: np.ndarray) -> np.ndarray:
        return keys + (h_prev @ self.w_hidden.value)[..., None, :]

    def forward(self, enc_values: np.ndarray, valid, h_prev: np.ndarray,
                keys: np.ndarray):
        """One attention read from h_prev, for one sequence or a batch:
        enc_values (..., T, d_e), valid lengths (...), h_prev (..., d_h), and
        keys = self.keys(enc_values), as EncoderOutput carries it."""
        pre = self._pre(keys, h_prev)  # (..., T, d_a)
        alpha = np.maximum(pre, 0.0)
        logits = (alpha @ self.w_score.value)[..., 0]
        padded = np.arange(logits.shape[-1]) >= np.asarray(valid)[..., None]
        logits[padded] = -np.inf  # padded frames never receive weight
        weights = softmax(logits)
        weights[padded] = 0.0
        context = (weights[..., None, :] @ enc_values)[..., 0, :]
        return AttentionStep(weights=weights, context=context)

    def backward(self, enc_values: np.ndarray, keys: np.ndarray, h_prev: np.ndarray,
                 weights: np.ndarray, d_context: np.ndarray,
                 d_pre_sum: np.ndarray) -> np.ndarray:
        """One decoder step's backward over a batch: enc_values (B, T, d_e),
        keys (B, T, d_a), h_prev (B, d_h), weights (B, T) and d_context
        (B, d_e). Returns dh_prev (B, d_h); parameter grads accumulate in place.

        The pre-activations are recomputed here, in one (B, T, d_a) buffer
        that then holds their gradient, which is added into d_pre_sum. Every
        step reads the same E and W_enc, so the caller takes the E / W_enc
        products, and the context read's dE, once for all steps.
        """
        d_weights = (enc_values @ d_context[..., None])[..., 0]
        # softmax backward; padded entries have weight 0 and drop out
        inner = np.sum(weights * d_weights, axis=-1, keepdims=True)
        d_logits = weights * (d_weights - inner)
        pre = self._pre(keys, h_prev)
        active = pre > 0
        alpha = np.maximum(pre, 0.0, out=pre)
        attn_dim = alpha.shape[-1]
        self.w_score.gradient += (d_logits.reshape(1, -1) @ alpha.reshape(-1, attn_dim)).T
        d_pre = np.multiply(d_logits[..., None], self.w_score.value.ravel(), out=alpha)
        d_pre *= active
        d_pre_sum += d_pre
        d_pre_rows = d_pre.sum(axis=1)
        self.w_hidden.gradient += h_prev.T @ d_pre_rows
        return d_pre_rows @ self.w_hidden.value.T

    def backward_encoder(self, enc_values: np.ndarray, d_pre_sum: np.ndarray) -> np.ndarray:
        """The E / W_enc part of every step's backward at once, over (B, T, ·);
        returns its dE."""
        attn_dim = d_pre_sum.shape[-1]
        self.w_enc.gradient += (enc_values.reshape(-1, enc_values.shape[-1]).T
                                @ d_pre_sum.reshape(-1, attn_dim))
        return d_pre_sum @ self.w_enc.value.T


class Decoder:
    """Word embedding + single LSTM cell + output projection, fed by attention."""

    def __init__(self, cfg: ModelConfig, rng: Optional[np.random.Generator]):
        self.cfg = cfg
        self.embedding = ParameterGroup("dec.embedding",
                                        _glorot(rng, cfg.vocab_size, cfg.word_dim))
        self.cell = LstmCell("dec.lstm", cfg.word_dim + cfg.enc_out_dim, cfg.dec_hidden, rng)
        self.w_out = ParameterGroup("dec.w_out", _glorot(rng, cfg.dec_hidden, cfg.vocab_size))
        self.b_out = ParameterGroup("dec.b_out", np.zeros(cfg.vocab_size))
        self.attention = Attention(cfg, rng)

    def params(self) -> list[ParameterGroup]:
        return ([self.embedding] + self.cell.params() + [self.w_out, self.b_out]
                + self.attention.params())

    def step(self, token: int, h_prev: np.ndarray, c_prev: np.ndarray,
             enc: EncoderOutput):
        if not 0 <= token < self.cfg.vocab_size:
            raise ValueError(f"token id {token} outside vocabulary of {self.cfg.vocab_size}")
        att_step = self.attention.forward(enc.values, enc.valid_length, h_prev, enc.keys)
        x = np.concatenate([self.embedding.value[token], att_step.context])
        h, c = self.cell.step(x, h_prev, c_prev)
        logits = h @ self.w_out.value + self.b_out.value
        return logits, h, c, att_step


class CaptionModel:
    """Encoder, attention decoder, and training-time backprop in one bundle."""

    def __init__(self, cfg: ModelConfig, seed: int = 0, random_init: bool = True):
        """Seeded Glorot init; with random_init=False the weight matrices are
        left uninitialised, for a checkpoint load to overwrite."""
        rng = np.random.default_rng(seed) if random_init else None
        self.cfg = cfg
        self.encoder = Encoder(cfg, rng)
        self.decoder = Decoder(cfg, rng)

    def parameters(self) -> list[ParameterGroup]:
        return self.encoder.params() + self.decoder.params()

    def zero_grads(self):
        for group in self.parameters():
            group.zero_grad()

    def encode(self, matrix: np.ndarray, valid_length: Optional[int] = None) -> EncoderOutput:
        """E of one (T, F_e) matrix: the encoder run as a batch of one row."""
        matrix = np.asarray(matrix, dtype=np.float64)
        valid = matrix.shape[0] if valid_length is None else valid_length
        values, _ = self.encoder.forward(matrix[None], [valid])
        return EncoderOutput(values[0], valid, self.decoder.attention.keys(values[0]))

    def decoder_step(self, prev_token: int, h_prev: np.ndarray, c_prev: np.ndarray,
                     enc: EncoderOutput):
        """One inference step: (logits over vocab, h, c, AttentionStep)."""
        return self.decoder.step(prev_token, h_prev, c_prev, enc)

    def initial_state(self) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros(self.cfg.dec_hidden), np.zeros(self.cfg.dec_hidden)

    def forward_teacher_forced(self, inputs: np.ndarray, lengths: Sequence[int],
                               targets: Sequence[Sequence[int]]) -> ForwardResult:
        """Teacher-forced loss of a batch, decoder fed gold tokens.

        inputs (B, T, F_e) and lengths (B,) are laid out by
        features.bucket_pad; sample b reads encoder row b and is scored on
        targets[b] up to its first PAD. The loss is the sum over samples of
        each one's mean cross-entropy.
        """
        if len(targets) != len(inputs):
            raise ValueError(f"{len(targets)} targets for {len(inputs)} encoder rows")
        enc_values, enc_cache = self.encoder.forward(inputs, lengths)
        dec = self.decoder
        att, cell = dec.attention, dec.cell
        word_dim, ctx_end = self.cfg.word_dim, cell.input_dim
        n_steps = np.array([_step_count(target) for target in targets], dtype=np.int64)
        batch, span = len(targets), int(n_steps.max(initial=0))
        tokens = np.full((batch, span + 1), PAD)
        for b, target in enumerate(targets):
            head = list(target[:n_steps[b] + 1])
            tokens[b, :len(head)] = head
        if tokens.size and (tokens.min() < 0 or tokens.max() >= self.cfg.vocab_size):
            raise ValueError(f"token ids outside vocabulary of {self.cfg.vocab_size}")

        keys, valid = att.keys(enc_values), np.asarray(lengths)
        tokens_in = tokens[:, :span].T
        w = cell.w.value
        # each step's gate buffer starts as its word projection, taken for all steps at once
        gates = (dec.embedding.value[tokens_in.ravel()] @ w[:word_dim]
                 + cell.b.value).reshape(span, batch, w.shape[1])
        h = np.zeros((span + 1, batch, self.cfg.dec_hidden))
        c = np.zeros_like(h)
        contexts = np.empty((span, batch, self.cfg.enc_out_dim))
        weights = np.empty((span, batch, enc_values.shape[1]))
        for s in range(span):
            att_step = att.forward(enc_values, valid, h[s], keys)
            weights[s], contexts[s] = att_step.weights, att_step.context
            pre = gates[s]
            pre += contexts[s] @ w[word_dim:ctx_end]
            pre += h[s] @ w[ctx_end:]
            gates[s], c[s + 1], h[s + 1] = cell.activate(pre, c[s])

        samples, steps = np.nonzero(np.arange(span) < n_steps[:, None])
        tokens_out = tokens[samples, steps + 1]
        probs = softmax(h[steps + 1, samples] @ dec.w_out.value + dec.b_out.value)
        nll = -np.log(np.maximum(probs[np.arange(len(samples)), tokens_out], PROB_FLOOR))
        totals = np.bincount(samples, weights=nll, minlength=batch)
        loss = sum(total / n for total, n in zip(totals.tolist(), n_steps.tolist()) if n)
        decoder = _DecoderCache(enc_values, keys, tokens_in, h, c, gates,
                                contexts, weights, n_steps, samples, steps, tokens_out, probs)
        return ForwardResult(float(loss), _BatchCache(enc_cache, decoder))

    def backward(self, cache: _BatchCache) -> np.ndarray:
        """Accumulate gradients of the batch loss; returns d(loss)/d(inputs) (B, T, F_e)."""
        if not isinstance(cache, _BatchCache) or cache.decoder is None:
            raise ValueError("backward needs an unused cache from forward_teacher_forced")
        decoder, cache.decoder = cache.decoder, None
        d_enc = self._backward_decoder(decoder)
        del decoder  # its arrays are freed before the encoder's backward runs
        return self.encoder.backward(cache.encoder, d_enc)

    def _backward_decoder(self, cache: _DecoderCache) -> np.ndarray:
        """The decoder's and attention's backward; returns dE (B, T, d_e).

        The reverse-time loop carries only what the recurrence needs. A
        sample's steps past its last target get zero deltas, so the stacked
        products may run over every (step, sample) row.
        """
        dec = self.decoder
        att, cell = dec.attention, dec.cell
        word_dim, ctx_end = self.cfg.word_dim, cell.input_dim
        span, batch = cache.tokens_in.shape
        samples, steps = cache.samples, cache.steps

        scale = 1.0 / cache.n_steps[samples]
        d_logits = cache.probs
        d_logits *= scale[:, None]
        d_logits[np.arange(len(samples)), cache.tokens_out] -= scale
        dec.w_out.gradient += cache.h[steps + 1, samples].T @ d_logits
        dec.b_out.gradient += d_logits.sum(axis=0)
        dh_out = np.zeros_like(cache.h[1:])
        dh_out[steps, samples] = d_logits @ dec.w_out.value.T
        cache.probs = d_logits = None  # the (N, V) buffer is not needed again

        w_rest, enc_out = cell.w.value[word_dim:], self.cfg.enc_out_dim
        d_pre = np.empty_like(cache.gates)
        d_contexts = np.empty_like(cache.contexts)
        d_att_pre = np.zeros_like(cache.keys)
        dh_next = np.zeros((batch, self.cfg.dec_hidden))
        dc_next = np.zeros((batch, self.cfg.dec_hidden))
        for s in range(span - 1, -1, -1):
            dc_next = cell.gate_deltas(cache.gates[s], cache.c[s], cache.c[s + 1],
                                       dh_out[s] + dh_next, dc_next, d_pre[s])
            dz = d_pre[s] @ w_rest.T
            d_contexts[s] = dz[:, :enc_out]
            dh_next = dz[:, enc_out:] + att.backward(
                cache.enc_values, cache.keys, cache.h[s], cache.weights[s],
                d_contexts[s], d_att_pre)

        rows_in = span * batch
        d_pre = d_pre.reshape(rows_in, cell.w.value.shape[1])
        tokens_in = cache.tokens_in.ravel()
        cell.w.gradient[:word_dim] += dec.embedding.value[tokens_in].T @ d_pre
        cell.w.gradient[word_dim:ctx_end] += cache.contexts.reshape(rows_in, enc_out).T @ d_pre
        cell.w.gradient[ctx_end:] += cache.h[:-1].reshape(rows_in, self.cfg.dec_hidden).T @ d_pre
        cell.b.gradient += d_pre.sum(axis=0)
        np.add.at(dec.embedding.gradient, tokens_in, d_pre @ cell.w.value[:word_dim].T)

        # every step's context read of E: (B, T, S) @ (B, S, d_e)
        d_enc = cache.weights.transpose(1, 2, 0) @ d_contexts.transpose(1, 0, 2)
        d_enc += att.backward_encoder(cache.enc_values, d_att_pre)
        return d_enc

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def save(self, path, extra_config: Optional[dict] = None):
        """Versioned binary checkpoint: config JSON block + named float64 arrays."""
        config = {"model": self.cfg.to_dict()}
        if extra_config:
            config.update(extra_config)
        blob = json.dumps(config, sort_keys=True).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            params = self.parameters()
            fh.write(struct.pack("<I", len(params)))
            for group in params:
                name = group.name.encode("utf-8")
                fh.write(struct.pack("<I", len(name)))
                fh.write(name)
                fh.write(struct.pack("<I", group.value.ndim))
                fh.write(struct.pack(f"<{group.value.ndim}I", *group.value.shape))
                fh.write(group.value.astype("<f8", copy=False).data)

    @classmethod
    def load(cls, path) -> tuple["CaptionModel", dict]:
        """Rebuild a model from a checkpoint; returns (model, full config dict).

        Reads the current format and v1. The config is checked against the
        file size before the model is built, and the model is built without
        random init: every array is then read on its own straight into it, so
        the file is never held in memory whole.
        """
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            magic = fh.read(5)
            if magic not in (CHECKPOINT_MAGIC, _CHECKPOINT_MAGIC_V1):
                raise FormatError(f"{path}: not a model checkpoint (bad magic/version)")

            def take(n: int) -> bytes:
                offset = fh.tell()
                if offset + n > size:
                    raise CorruptionError(f"{path}: truncated at byte {offset} + {n}")
                return fh.read(n)

            (blob_len,) = struct.unpack("<I", take(4))
            try:
                config = json.loads(take(blob_len).decode("utf-8"))
                model_cfg = ModelConfig(**config["model"])
            except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError,
                    ConfigError) as exc:
                raise CorruptionError(f"{path}: bad config block ({exc!r})") from exc
            if 8 * model_cfg.parameter_count > size:
                raise CorruptionError(
                    f"{path}: config needs {8 * model_cfg.parameter_count} bytes of weights, "
                    f"the file has {size}")
            model = cls(model_cfg, random_init=False)
            targets = model._load_targets(v1=magic == _CHECKPOINT_MAGIC_V1)
            (count,) = struct.unpack("<I", take(4))
            if count != len(targets):
                raise CorruptionError(
                    f"{path}: checkpoint has {count} arrays, model expects {len(targets)}")
            for _ in range(count):
                (name_len,) = struct.unpack("<I", take(4))
                try:
                    name = take(name_len).decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise CorruptionError(f"{path}: bad parameter name ({exc})") from exc
                (ndim,) = struct.unpack("<I", take(4))
                shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
                values = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
                target = targets.pop(name, None)
                if target is None:
                    raise CorruptionError(f"{path}: unknown or repeated parameter {name!r}")
                if target.shape != values.shape:
                    raise CorruptionError(
                        f"{path}: {name} has shape {values.shape}, expected {target.shape}")
                if not np.all(np.isfinite(values)):
                    raise CorruptionError(f"{path}: {name} has non-finite values")
                target[...] = values
            if fh.tell() != size:
                raise CorruptionError(f"{path}: {size - fh.tell()} trailing bytes")
        return model, config

    def _load_targets(self, v1: bool) -> dict[str, np.ndarray]:
        """Stored array name -> the array a checkpoint load writes it into.

        v1 stored each LSTM gate apart, as {cell}.w_{gate} and {cell}.b_{gate};
        those land in the gate's column block of the fused {cell}.w and {cell}.b.
        """
        targets = {group.name: group.value for group in self.parameters()}
        if v1:
            enc = self.encoder
            for cell in (enc.layer1.fwd, enc.layer1.bwd, enc.layer2.fwd, enc.layer2.bwd,
                         self.decoder.cell):
                for kind, group in (("w", cell.w), ("b", cell.b)):
                    del targets[group.name]
                    blocks = np.split(group.value, len(LstmCell.GATES), axis=-1)
                    targets.update((f"{cell.name}.{kind}_{gate}", block)
                                   for gate, block in zip(LstmCell.GATES, blocks))
        return targets
