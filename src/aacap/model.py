"""Bi-LSTM encoder and attention LSTM decoder with hand-written gradients.

Shapes follow one convention throughout: feature rows are time steps, so an
input matrix is (T, F_e), encoder output E is (T, d_e) with d_e twice the
per-direction hidden size, and all per-step vectors are 1-D. There is no
batch axis; batching is a loop over items in the training pipeline.

Each LSTM cell holds one fused weight (input_dim + hidden_dim, 4 * hidden)
and one bias (4 * hidden), gate column blocks in LstmCell.GATES order
(forget, input, output, cell candidate); see Appleyard et al. 2016,
arXiv:1604.01946. A Bi-LSTM layer takes each direction's input projection
X W_x + b as one product before its time loop, so a step costs one
(hidden, 4 * hidden) product plus elementwise gates.

The attention keys E W_enc do not depend on the decoder state, so encode
(and the teacher-forced forward) takes them once and carries them on
EncoderOutput; each decoder step adds only h_prev W_h to them.

Backpropagation is reverse-time over decoder steps (through the attention
read and the output projection), then reverse-time through both encoder
layers. The reverse loops carry only the recurrence and stack the per-step
deltas into rows, such as (T, 4 * hidden) gate deltas; each gradient that
does not feed the recurrence (cell weights and biases, the output
projection, the attention's encoder projection) is then one product over
the stacked rows.
Every learnable array is a numerics.ParameterGroup so the finite
difference checker can sweep the whole model.

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
from dataclasses import dataclass, field
from typing import Optional

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
    weights: np.ndarray  # (T,) probabilities, exactly 0 on padded frames
    context: np.ndarray  # (d_e,) attention-weighted encoder read


@dataclass
class ForwardResult:
    loss: float
    cache: "_SequenceCache"


@dataclass
class _SequenceCache:
    matrix_shape: tuple[int, int]
    encoder_cache: object
    enc_values: np.ndarray
    steps: list  # per decoder step: (token_in, token_out, att_cache, lstm_cache, h, probs)
    n_steps: int


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


class LstmCell:
    """Single LSTM cell with one fused weight (input_dim + hidden_dim, 4 * hidden_dim)
    and one bias (4 * hidden_dim); gate column blocks follow GATES order.

    The decoder steps the cell one vector at a time; BiLstmLayer runs it over
    a whole sequence, taking the input projection before the time loop and
    the weight gradients after it.
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

    def _activate(self, pre: np.ndarray, c_prev: np.ndarray):
        """Gate activations, new cell state, its tanh and h from pre-activations (4h,)."""
        hidden = self.hidden_dim
        gates = np.empty_like(pre)
        gates[:3 * hidden] = sigmoid(pre[:3 * hidden])
        gates[3 * hidden:] = np.tanh(pre[3 * hidden:])
        f, i, o, g = (gates[k * hidden:(k + 1) * hidden] for k in range(4))
        c = f * c_prev + i * g
        tanh_c = np.tanh(c)
        return gates, c, tanh_c, o * tanh_c

    def gate_deltas(self, gates: np.ndarray, c_prev: np.ndarray, tanh_c: np.ndarray,
                    dh: np.ndarray, dc: np.ndarray, d_pre: np.ndarray) -> np.ndarray:
        """Writes d(loss)/d(gate pre-activations) of one step into d_pre (4h,);
        returns the gradient reaching c_prev."""
        hidden = self.hidden_dim
        f, i, o, g = (gates[k * hidden:(k + 1) * hidden] for k in range(4))
        dc_total = dc + dh * o * (1.0 - tanh_c * tanh_c)
        d_pre[:hidden] = dc_total * c_prev * f * (1.0 - f)
        d_pre[hidden:2 * hidden] = dc_total * g * i * (1.0 - i)
        d_pre[2 * hidden:3 * hidden] = dh * tanh_c * o * (1.0 - o)
        d_pre[3 * hidden:] = dc_total * i * (1.0 - g * g)
        return dc_total * f

    def step(self, x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray):
        """Returns (h, c, cache). h = o * tanh(f * c_prev + i * g_candidate)."""
        if x.shape != (self.input_dim,):
            raise ShapeError(f"{self.name}: input shape {x.shape}, expected ({self.input_dim},)")
        z = np.concatenate([x, h_prev])
        gates, c, tanh_c, h = self._activate(z @ self.w.value + self.b.value, c_prev)
        return h, c, (z, gates, c_prev, tanh_c)

    def forward_sequence(self, x_seq: np.ndarray):
        """Runs the cell over x_seq (n, input_dim) from zero state, in row order.

        Returns (h_seq (n, hidden_dim), cache for backward_sequence).
        """
        n, hidden = x_seq.shape[0], self.hidden_dim
        w_h = self.w.value[self.input_dim:]
        pre_x = x_seq @ self.w.value[:self.input_dim] + self.b.value  # (n, 4h)
        gates = np.empty((n, 4 * hidden))
        h_seq = np.zeros((n + 1, hidden))  # row s is the state before step s
        c_seq = np.zeros((n + 1, hidden))
        tanh_c = np.empty((n, hidden))
        for s in range(n):
            gates[s], c_seq[s + 1], tanh_c[s], h_seq[s + 1] = self._activate(
                pre_x[s] + h_seq[s] @ w_h, c_seq[s])
        return h_seq[1:], (x_seq, gates, h_seq, c_seq, tanh_c)

    def backward_sequence(self, cache, dh_seq: np.ndarray) -> np.ndarray:
        """Backprop of forward_sequence given d(loss)/d(h_seq) (n, hidden_dim).

        Accumulates the parameter gradients with one product each after the
        reverse-time loop; returns d(loss)/d(x_seq).
        """
        x_seq, gates, h_seq, c_seq, tanh_c = cache
        n, hidden = x_seq.shape[0], self.hidden_dim
        w_x, w_h = self.w.value[:self.input_dim], self.w.value[self.input_dim:]
        d_pre = np.empty((n, 4 * hidden))
        dh_carry = dc_carry = np.zeros(hidden)
        for s in range(n - 1, -1, -1):
            dc_carry = self.gate_deltas(gates[s], c_seq[s], tanh_c[s],
                                        dh_seq[s] + dh_carry, dc_carry, d_pre[s])
            dh_carry = w_h @ d_pre[s]
        self.w.gradient[:self.input_dim] += x_seq.T @ d_pre
        self.w.gradient[self.input_dim:] += h_seq[:-1].T @ d_pre
        self.b.gradient += d_pre.sum(axis=0)
        return d_pre @ w_x.T


class BiLstmLayer:
    """Forward and backward LSTM passes over a sequence, states concatenated per step."""

    def __init__(self, name: str, input_dim: int, hidden_dim: int,
                 rng: Optional[np.random.Generator]):
        self.hidden_dim = hidden_dim
        self.fwd = LstmCell(f"{name}.fwd", input_dim, hidden_dim, rng)
        self.bwd = LstmCell(f"{name}.bwd", input_dim, hidden_dim, rng)

    def params(self) -> list[ParameterGroup]:
        return self.fwd.params() + self.bwd.params()

    def forward(self, x_seq: np.ndarray, valid: int):
        hidden = self.hidden_dim
        out = np.zeros((x_seq.shape[0], 2 * hidden))
        h_fwd, fwd_cache = self.fwd.forward_sequence(x_seq[:valid])
        # the bwd cell reads frames valid-1, ..., 0
        h_bwd, bwd_cache = self.bwd.forward_sequence(x_seq[valid - 1::-1])
        out[:valid, :hidden] = h_fwd
        out[:valid, hidden:] = h_bwd[::-1]
        return out, (fwd_cache, bwd_cache, x_seq.shape, valid)

    def backward(self, cache, dout: np.ndarray) -> np.ndarray:
        fwd_cache, bwd_cache, x_shape, valid = cache
        hidden = self.hidden_dim
        dx = np.zeros(x_shape)
        dx[:valid] = self.fwd.backward_sequence(fwd_cache, dout[:valid, :hidden])
        dx[:valid] += self.bwd.backward_sequence(bwd_cache, dout[valid - 1::-1, hidden:])[::-1]
        return dx


class Encoder:
    """Two stacked Bi-LSTM layers; per-step outputs of the second layer feed attention."""

    def __init__(self, cfg: ModelConfig, rng: Optional[np.random.Generator]):
        self.cfg = cfg
        self.layer1 = BiLstmLayer("enc.l1", cfg.embed_dim, cfg.enc_hidden, rng)
        self.layer2 = BiLstmLayer("enc.l2", cfg.enc_out_dim, cfg.enc_hidden, rng)

    def params(self) -> list[ParameterGroup]:
        return self.layer1.params() + self.layer2.params()

    def forward(self, matrix: np.ndarray, valid: int):
        if matrix.ndim != 2 or matrix.shape[1] != self.cfg.embed_dim:
            raise ShapeError(
                f"encoder input shape {matrix.shape}, expected (T, {self.cfg.embed_dim})")
        if not 1 <= valid <= matrix.shape[0]:
            raise ValueError(
                f"valid_length {valid} outside 1..{matrix.shape[0]}")
        mid, cache1 = self.layer1.forward(matrix, valid)
        out, cache2 = self.layer2.forward(mid, valid)
        return out, (cache1, cache2)

    def backward(self, cache, d_out: np.ndarray) -> np.ndarray:
        cache1, cache2 = cache
        d_mid = self.layer2.backward(cache2, d_out)
        return self.layer1.backward(cache1, d_mid)


class Attention:
    """Additive temporal attention: scores = ReLU(E We + h_prev Wh) Wa, then softmax."""

    def __init__(self, cfg: ModelConfig, rng: Optional[np.random.Generator]):
        self.w_enc = ParameterGroup("attn.w_enc", _glorot(rng, cfg.enc_out_dim, cfg.attn_dim))
        self.w_hidden = ParameterGroup("attn.w_hidden", _glorot(rng, cfg.dec_hidden, cfg.attn_dim))
        self.w_score = ParameterGroup("attn.w_score", _glorot(rng, cfg.attn_dim, 1))

    def params(self) -> list[ParameterGroup]:
        return [self.w_enc, self.w_hidden, self.w_score]

    def keys(self, enc_values: np.ndarray) -> np.ndarray:
        """E W_enc (T, d_a): the part of every step's pre-activation that h_prev leaves alone."""
        return enc_values @ self.w_enc.value

    def forward(self, enc_values: np.ndarray, valid: int, h_prev: np.ndarray,
                keys: np.ndarray):
        """One attention read from h_prev; keys is self.keys(enc_values), as
        EncoderOutput carries it."""
        pre = keys + h_prev @ self.w_hidden.value  # (T, d_a)
        alpha = np.maximum(pre, 0.0)
        logits = (alpha @ self.w_score.value).ravel()
        logits[valid:] = -np.inf  # padded frames never receive weight
        weights = softmax(logits)
        weights[valid:] = 0.0
        context = weights @ enc_values
        step = AttentionStep(weights=weights, context=context)
        return step, (enc_values, h_prev, pre, alpha, weights)

    def backward(self, cache, d_context: np.ndarray, d_pre_sum: np.ndarray):
        """One decoder step's backward. Returns (dE of the context read, dh_prev);
        parameter grads accumulate in place.

        The step's pre-activation gradient (T, d_a) is added into d_pre_sum:
        every step reads the same E and W_enc, so their products with it are
        taken once per sequence, by backward_encoder.
        """
        enc_values, h_prev, pre, alpha, weights = cache
        d_weights = enc_values @ d_context
        d_enc = np.outer(weights, d_context)
        # softmax backward; padded entries have weight 0 and drop out
        inner = weights @ d_weights
        d_logits = weights * (d_weights - inner)
        self.w_score.gradient += (alpha.T @ d_logits)[:, None]
        d_alpha = np.outer(d_logits, self.w_score.value.ravel())
        d_pre = d_alpha * (pre > 0)
        d_pre_sum += d_pre
        d_pre_rows = d_pre.sum(axis=0)
        self.w_hidden.gradient += np.outer(h_prev, d_pre_rows)
        dh_prev = self.w_hidden.value @ d_pre_rows
        return d_enc, dh_prev

    def backward_encoder(self, enc_values: np.ndarray, d_pre_sum: np.ndarray) -> np.ndarray:
        """The E / W_enc part of every step's backward at once; returns its dE."""
        self.w_enc.gradient += enc_values.T @ d_pre_sum
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
        att_step, att_cache = self.attention.forward(enc.values, enc.valid_length, h_prev,
                                                     enc.keys)
        x = np.concatenate([self.embedding.value[token], att_step.context])
        h, c, lstm_cache = self.cell.step(x, h_prev, c_prev)
        logits = h @ self.w_out.value + self.b_out.value
        return logits, h, c, att_step, (att_cache, lstm_cache)


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
        valid = matrix.shape[0] if valid_length is None else valid_length
        values, _ = self.encoder.forward(np.asarray(matrix, dtype=np.float64), valid)
        return self._encoder_output(values, valid)

    def _encoder_output(self, values: np.ndarray, valid: int) -> EncoderOutput:
        return EncoderOutput(values, valid, self.decoder.attention.keys(values))

    def decoder_step(self, prev_token: int, h_prev: np.ndarray, c_prev: np.ndarray,
                     enc: EncoderOutput):
        """One inference step: (logits over vocab, h, c, AttentionStep)."""
        logits, h, c, att_step, _ = self.decoder.step(prev_token, h_prev, c_prev, enc)
        return logits, h, c, att_step

    def initial_state(self) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros(self.cfg.dec_hidden), np.zeros(self.cfg.dec_hidden)

    def forward_teacher_forced(self, matrix: np.ndarray, target: list[int],
                               valid_length: Optional[int] = None) -> ForwardResult:
        """Mean cross-entropy over non-PAD target positions, decoder fed gold tokens."""
        matrix = np.asarray(matrix, dtype=np.float64)
        valid = matrix.shape[0] if valid_length is None else valid_length
        enc_values, enc_cache = self.encoder.forward(matrix, valid)
        enc = self._encoder_output(enc_values, valid)
        h, c = self.initial_state()
        steps = []
        total = 0.0
        for s in range(len(target) - 1):
            token_in, token_out = target[s], target[s + 1]
            if token_out == PAD:
                break
            logits, h_new, c_new, _, caches = self.decoder.step(token_in, h, c, enc)
            probs = softmax(logits)
            total += -np.log(max(probs[token_out], PROB_FLOOR))
            steps.append((token_in, token_out, caches[0], caches[1], h_new, probs))
            h, c = h_new, c_new
        n = len(steps)
        loss = total / n if n else 0.0
        cache = _SequenceCache(matrix.shape, enc_cache, enc_values, steps, n)
        return ForwardResult(loss, cache)

    def backward(self, cache: _SequenceCache) -> np.ndarray:
        """Accumulate gradients of the mean loss; returns dLoss/dInputMatrix.

        The reverse-time loop carries only what the recurrence needs; the
        output projection's and the decoder cell's weight gradients are one
        product each over the stacked per-step rows.
        """
        if not isinstance(cache, _SequenceCache):
            raise ValueError("backward needs the cache from forward_teacher_forced")
        dec = self.decoder
        cell = dec.cell
        n = cache.n_steps
        if n == 0:
            return np.zeros(cache.matrix_shape)
        scale = 1.0 / n
        word_dim, cell_in = self.cfg.word_dim, cell.input_dim
        tokens_in, tokens_out, att_caches, lstm_caches, hs, probs = zip(*cache.steps)
        d_logits = np.array(probs) * scale
        d_logits[np.arange(n), tokens_out] -= scale
        dec.w_out.gradient += np.array(hs).T @ d_logits
        dec.b_out.gradient += d_logits.sum(axis=0)
        dh_out = d_logits @ dec.w_out.value.T  # (n, d_h)
        d_pre = np.empty((n, cell.w.value.shape[1]))
        d_att_pre = np.zeros((cache.matrix_shape[0], self.cfg.attn_dim))
        d_enc_total = np.zeros((cache.matrix_shape[0], self.cfg.enc_out_dim))
        dh_next = np.zeros(self.cfg.dec_hidden)
        dc_next = np.zeros(self.cfg.dec_hidden)
        for s in range(n - 1, -1, -1):
            _, gates, c_prev, tanh_c = lstm_caches[s]
            dc_next = cell.gate_deltas(gates, c_prev, tanh_c, dh_out[s] + dh_next,
                                       dc_next, d_pre[s])
            dz = cell.w.value @ d_pre[s]
            dec.embedding.gradient[tokens_in[s]] += dz[:word_dim]
            d_enc_step, dh_prev_att = dec.attention.backward(
                att_caches[s], dz[word_dim:cell_in], d_att_pre)
            d_enc_total += d_enc_step
            dh_next = dz[cell_in:] + dh_prev_att
        cell.w.gradient += np.array([z for z, _, _, _ in lstm_caches]).T @ d_pre
        cell.b.gradient += d_pre.sum(axis=0)
        d_enc_total += dec.attention.backward_encoder(cache.enc_values, d_att_pre)
        return self.encoder.backward(cache.encoder_cache, d_enc_total)

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
