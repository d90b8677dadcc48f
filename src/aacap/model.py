"""Bi-LSTM encoder and attention LSTM decoder with hand-written gradients.

Shapes follow one convention throughout: feature rows are time steps. The
encoder runs a padded batch: inputs (B, T, F_e) laid out by
features.bucket_pad, one valid length per row, padding at the end of each
row. Its output E is (B, T, d_e), with d_e twice the per-direction hidden
size, and is zero on padded frames. CaptionModel.encode runs such a batch,
or one (T, F_e) matrix as the batch of one row, through the same encoder
without keeping anything for backward; beam search then steps the decoder
over a row per live hypothesis against one sequence's E.

Each LSTM cell holds one fused weight (input_dim + hidden_dim, 4 * hidden)
and one bias (4 * hidden), gate column blocks in LstmCell.GATES order
(forget, input, output, cell candidate). The encoder runs its rows packed,
the layout of Appleyard et al. 2016 (arXiv:1604.01946) that cuDNN uses:
Encoder.forward sorts the rows longest first and gathers their valid
frames once, time-major, so step t holds only the n_t rows still valid at
t and padded frames cost nothing. Layers and cells pass these (N, ·) row
matrices: padding exists only at the encoder's edges, where E is
scattered once, and dE gathered and d(inputs) scattered once. The bwd
direction runs on x[mirror], each row reversed within its own length
(_Packing.mirror, its own inverse), so its padding also comes last and
the same n_t serves both directions. A step costs one
(n_t, hidden) x (hidden, 4 * hidden) product plus elementwise gates.
Each direction takes its input projection X W_x + b as one product over
all its packed rows ahead of the loop; training then overwrites each step's
rows with its gates, kept for backward. In an encode call that is a
(valid frames, 4 * hidden) block per direction, at the default dims the
size of the decoder's context gates that encode returns.

A layer's two directions are independent recurrences, so in training
(forward with the cache kept, and backward) the fwd direction runs on the
caller's thread while the bwd one runs on a helper thread that
numerics.side_by_side starts and joins within the call (features.stft_power
uses the same helper), in the spirit of Appleyard et al.'s overlap of
independent recurrent work; numpy releases the GIL inside its products and
ufuncs. Each direction runs the same operations as on one
thread and writes its own output columns, and the caller adds both
directions' input gradients into d(inputs) after the join, fwd first:
outputs are bit-identical to running one direction after the other.
Teacher forcing's decoder loops, forward and reverse, are independent per
sample in the same way, so a batch can step as two row halves, [0, B/2) and
[B/2, B), the second on the same helper. Each half writes its own rows of
every per-step array; the loss, the output projection and every weight
product run once over all rows after the loop. Below TWO_THREAD_MIN_WORK per
step (rows x 4h x h: a layer's rows at enc_hidden, a half's rows at dec_hidden)
the GIL handoffs cost more than they save: a layer runs its directions one
after the other, and the decoder steps the whole batch as one matrix, on
the caller's thread. CaptionModel.encode (evaluation,
validation, caption, attention export) stays on one thread: at its few
live rows per step the gain was not reliable, and a second thread's
malloc arena costs memory in a process that otherwise never needs one.

A decoder step is Decoder.advance: an attention read of the encoder output
from h_prev, then one decoder cell step on the word embedding plus the
context's share of the cell pre-activation. Decoder.step, behind beam
search and greedy decoding, is advance plus the output projection. The
same call steps one token or a row of beam hypotheses over one E, and a
padded batch of B samples in teacher forcing, one encoder row and target
each, as one (B, d_h) matrix. The logits do not feed the recurrence, so
training takes the output projection and softmax as one
(sum of steps, d_h) x (d_h, V) product after the loop. A sample's steps
past its last target token run on and are never read, and a sample with no
target step adds loss 0 and no gradient. The attention keys E W_enc do not
depend on the decoder state, so they are taken once per encode and carried
on EncoderOutput; each decoder step adds only h_prev W_h to them.

Nor do the context gates E W_ctx, W_ctx being the decoder cell's weight
rows for the context: a step's context share is (alpha E) W_ctx =
alpha (E W_ctx). encode takes them once beside the keys, and a step over an
EncoderOutput that carries them (every search) reads the share as a
(rows, T) x (T, 4 d_h) product instead of reading W_ctx, about a quarter
of a step's weight traffic at a few rows. Teacher forcing carries none and
takes the share as context x W_ctx: a training batch has about three times
as many frames as target steps, so hoisting E W_ctx would cost about three
times the per-step products it saves.

Backpropagation is reverse-time over decoder steps (through the attention
read and the decoder cell), then reverse-time through both encoder layers.
The reverse loops carry only the recurrence and stack the per-step deltas
into rows; each gradient that does not feed the recurrence (cell weights
and biases, the output projection, the word embeddings, the attention's
weights and its context read) is then one product over the stacked rows,
or for the attention's w_score a sum in row order of per-row
accumulators, so no gradient depends on how the rows were split.
Attention pre-activations are recomputed in backward rather than kept per
step, and an encoder cell's h is recomputed from its gates and c.
Every learnable array is a numerics.ParameterGroup so the finite
difference checker can sweep the whole model.

Tolerance policy: a batch's loss and gradients equal the sums of its
samples' batch-of-1 losses and gradients up to the order of floating-point
sums. The tests hold them to rtol 1e-9, the loss also against the
straight-line reference in tests/refimpl.py; for a gradient array the
tolerance is taken against its largest entry, since entries that cancel to
~1e-19 carry no relative digits. Values in padded frames change nothing,
bit for bit. One matrix's E is bit-identical to the unpacked, unchunked
recurrence. A batch's E equals each row's own encode within 1e-12 absolute
(E is an LSTM's h, so it lies in (-1, 1)): a step of several rows is a
matrix product where one row alone is a matrix-vector product, and the two
round differently. For the same reason a teacher-forced batch stepped in
row halves, above the gate, can differ from the same batch stepped as one
matrix in the last bits of the loss and of every gradient; the tests hold
it to the rtol 1e-9 above. The halves make the same calls whichever thread
runs them, so running the upper half on the caller's thread changes no
bit. A step over an EncoderOutput with context gates and over the same one
without them give logits, h and c within rtol 1e-12 of each array's
largest entry: the context share is summed in another order.

Checkpoints are "AACM" plus version byte 5: the JSON config block's length
and zlib.crc32 (u32 LE each), the block with the model dims, the parameter
names in parameters() order, each parameter's word sum and the caller's
extra config (the vocabulary), then the parameters as float64 LE, back to
back. A load checks the block against its CRC before it parses it, so an
edit inside the block is a CorruptionError rather than a model that
captions with another vocabulary. The dims fix every shape, so a load
checks the file size exactly, and the names against the model's, before it
reads each array straight into a model built without random init. A word
sum is the wrapping uint64 sum of the array's 8-byte words as stored; load
checks it after reading the array, so an edit inside the weights is a
CorruptionError too. Version 1 (an array per LSTM gate), version 2 (a
header before each array), version 3 (no word sums) and version 4 (no
config CRC) are no longer read.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import sys
import zlib
from dataclasses import asdict, dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, CorruptionError, FormatError, ShapeError
from .numerics import PROB_FLOOR, ParameterGroup, check_allocatable, side_by_side, sigmoid, softmax
from .text import PAD

CHECKPOINT_MAGIC = b"AACM\x05"
# Training runs a layer's two directions, or the decoder's two row halves, on
# two threads from this much work per step, rows x 4h x h (4 rows at h = 256);
# below it the handoffs cost more.
TWO_THREAD_MIN_WORK = 1 << 20


def check_dims(**dims):
    """Raises ConfigError naming the first model dim that is not a positive integer."""
    for name, value in dims.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise ConfigError(f"model {name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int  # F_e of the input matrix
    vocab_size: int
    enc_hidden: int = 256  # per direction; encoder output dim d_e = 2 * enc_hidden
    attn_dim: int = 256  # d_a
    dec_hidden: int = 256  # d_h
    word_dim: int = 128  # d_w

    def __post_init__(self):
        check_dims(**self.to_dict())
        check_allocatable(self.parameter_count, "a model")

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
        return asdict(self)


@dataclass
class EncoderOutput:  # one sequence, or a batch with a leading B axis on every field
    values: np.ndarray  # (..., T, d_e); frames at or beyond valid_length are zero
    valid_length: int | np.ndarray  # (...)
    keys: np.ndarray  # (..., T, d_a) attention keys E W_enc, the same for every decoder step
    # (..., T, 4 d_h) context gates E W_ctx, the decoder cell's input rows for the
    # context; CaptionModel.encode sets them, teacher forcing does without
    context_gates: Optional[np.ndarray] = None

    def item(self, b: int) -> EncoderOutput:
        """Sequence b of a batch, cut to its valid frames."""
        valid = int(self.valid_length[b])
        return EncoderOutput(self.values[b, :valid], valid, self.keys[b, :valid],
                             self.context_gates[b, :valid])


@dataclass
class AttentionStep:
    weights: np.ndarray  # (..., T) probabilities, exactly 0 on padded frames
    context: np.ndarray  # (..., d_e) attention-weighted encoder read


@dataclass
class ForwardResult:
    loss: float  # sum over the batch of each sample's mean cross-entropy
    cache: _BatchCache


@dataclass
class _DecoderCache:
    """What backward reads of a teacher-forced batch of B samples, S = the
    most target steps of any sample. Per-step arrays are step-major."""

    enc: EncoderOutput  # the batch's, (B, T, ·)
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

    encoder: list  # Encoder.forward's
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


def _word_sum(file_words: np.ndarray) -> int:
    """Wrapping sum of an array's 8-byte words as the file stores them, little
    endian. Any edit confined to one word changes it."""
    return int(np.add.reduce(file_words.view("<u8"), axis=None, dtype=np.uint64))


def _two_threads(rows: int, hidden: int) -> bool:
    """Whether a step of rows x 4h x h at h = hidden reaches TWO_THREAD_MIN_WORK."""
    return rows * 4 * hidden ** 2 >= TWO_THREAD_MIN_WORK


def _by_halves(batch: int, hidden: int, run):
    """run(rows) over rows [0, batch) of a teacher-forced batch at `hidden`
    units: as the halves [0, batch/2) and [batch/2, batch) side by side when
    a half's step is worth two threads, else as one call over every row."""
    half = batch // 2
    if not _two_threads(half, hidden):
        return run(slice(0, batch))
    side_by_side([partial(run, slice(0, half)), partial(run, slice(half, batch))],
                 "aacap-decoder")


def _step_count(target: Sequence[int]) -> int:
    """Teacher-forced steps of a target: up to, not including, the first PAD output."""
    for s in range(len(target) - 1):
        if target[s + 1] == PAD:
            return s
    return max(len(target) - 1, 0)


class LstmCell:
    """Single LSTM cell with one fused weight (input_dim + hidden_dim, 4 * hidden_dim)
    and one bias (4 * hidden_dim); gate column blocks follow GATES order.

    The decoder steps the cell through step on its word embedding, the
    context's share of the input product taken by the caller; BiLstmLayer
    runs it over the packed rows of a batch of sequences, taking the input
    projection before the loop and the weight gradients after it.
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

    def step(self, x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray,
             share: np.ndarray):
        """One step over rows x (..., width) of the input's leading columns;
        returns (h, c, gates). h = o * tanh(f * c_prev + i * g_candidate).

        share (..., 4 hidden) is the product of the rest of the input with the
        weight rows that follow, taken by the caller: zero for a whole input."""
        width = x.shape[-1]
        if width > self.input_dim:
            raise ShapeError(
                f"{self.name}: input shape {x.shape}, expected (..., {self.input_dim}) at most")
        w = self.w.value
        pre = x @ w[:width] + h_prev @ w[self.input_dim:] + share + self.b.value
        gates, c, h = self.activate(pre, c_prev)
        return h, c, gates

    def forward_sequence(self, x: np.ndarray, offsets: np.ndarray, out: np.ndarray,
                         keep_cache: bool = True):
        """Runs the cell from zero state over packed rows x (N, input_dim) and
        writes each row's h to the same row of out (N, hidden).

        The rows are time-major: step t holds rows offsets[t] to offsets[t + 1],
        no more than the step before, and they are the first rows of the step
        before, in order. Their input projection is one product ahead of the
        loop. Returns the cache for backward_sequence, or None without
        keep_cache: the (N, 4 hidden) gates and (N, hidden) c. h is recomputed
        in backward as o * tanh(c).
        """
        hidden = self.hidden_dim
        w_x, w_h = self.w.value[:self.input_dim], self.w.value[self.input_dim:]
        proj = x @ w_x
        proj += self.b.value
        c = np.empty((len(x), hidden)) if keep_cache else None
        h_prev = c_prev = np.zeros((offsets[1], hidden))
        for t in range(len(offsets) - 1):
            rows = slice(offsets[t], offsets[t + 1])
            n = rows.stop - rows.start
            step_gates, c_prev, h_prev = self.activate(proj[rows] + h_prev[:n] @ w_h,
                                                       c_prev[:n])
            out[rows] = h_prev
            if keep_cache:
                proj[rows] = step_gates  # kept for backward in place of the projection
                c[rows] = c_prev
        return [offsets, proj, c] if keep_cache else None

    def backward_sequence(self, cache, x: np.ndarray, dh: np.ndarray) -> np.ndarray:
        """Backprop of forward_sequence over the same input rows x, from
        d(loss)/d(h) rows dh (N, hidden); returns d(loss)/d(x) (N, input_dim).

        Accumulates the parameter gradients with one product each after the
        reverse-time loop. Each cached array is freed once it is no longer
        needed.
        """
        offsets, gates, c = cache
        cache.clear()
        hidden = self.hidden_dim
        w_x, w_h = self.w.value[:self.input_dim], self.w.value[self.input_dim:]
        sizes = np.diff(offsets)
        d_pre = np.empty_like(gates)
        # a row's carries are zero until the reverse loop reaches its last step
        dh_carry, dc_carry = np.zeros((2, sizes[0], hidden))
        for t in range(len(sizes) - 1, -1, -1):
            n, rows = sizes[t], slice(offsets[t], offsets[t + 1])
            c_prev = c[offsets[t - 1]:offsets[t - 1] + n] if t else 0.0
            dc_carry[:n] = self.gate_deltas(gates[rows], c_prev, c[rows],
                                            dh[rows] + dh_carry[:n], dc_carry[:n], d_pre[rows])
            dh_carry[:n] = d_pre[rows] @ w_h.T
        # the state before each step: zero at t = 0, else row j - sizes[t-1]'s h
        h_prev = np.zeros((len(d_pre), hidden))
        source = np.arange(sizes[0], len(d_pre)) - np.repeat(sizes[:-1], sizes[1:])
        np.tanh(c[source], out=h_prev[sizes[0]:])
        h_prev[sizes[0]:] *= gates[source, 2 * hidden:3 * hidden]
        del gates, c
        self.w.gradient[:self.input_dim] += x.T @ d_pre
        self.w.gradient[self.input_dim:] += h_prev.T @ d_pre
        del h_prev
        self.b.gradient += d_pre.sum(axis=0)
        return d_pre @ w_x.T


@dataclass
class _Packing:
    """Where the frames of a padded batch go in the packed layout, longest row first.

    Packed row j is batch row `rows[j]` at step `steps[j]`. Its `mirror[j]`
    is the packed row of the same batch row at step length - 1 - steps[j],
    its frame counted back from the row's last valid one; mirror is its own
    inverse, so x[mirror] is x with each row reversed within its length.
    """

    offsets: np.ndarray  # (T_valid + 1,) first packed row of each step, then N
    rows: np.ndarray  # (N,)
    steps: np.ndarray  # (N,)
    mirror: np.ndarray  # (N,)

    @classmethod
    def of(cls, lengths: np.ndarray) -> _Packing:
        order = np.argsort(-lengths, kind="stable")
        # the valid cells of the (step, place in order) grid, in row-major order
        steps, rank = np.nonzero(np.arange(lengths.max())[:, None] < lengths[order])
        offsets = np.concatenate([[0], np.cumsum(np.bincount(steps))])
        return cls(offsets, order[rank], steps, offsets[lengths[order][rank] - 1 - steps] + rank)

    def pad(self, packed: np.ndarray, frames: int) -> np.ndarray:
        """(B, frames, ·): each packed row at its frame, zeros elsewhere."""
        padded = np.zeros((self.offsets[1], frames) + packed.shape[1:])
        padded[self.rows, self.steps] = packed
        return padded


class BiLstmLayer:
    """Forward and backward LSTM passes over the packed rows of a _Packing,
    states concatenated per row.

    The fwd direction runs on the rows as they are, the bwd one on x[mirror]:
    each row reversed within its own length, so its padding also comes last
    and the same offsets serve both. Its h and its input gradient come back
    through the same index. backward takes the forward's x and pack again,
    so a layer keeps no copy of its input.
    """

    def __init__(self, name: str, input_dim: int, hidden_dim: int,
                 rng: Optional[np.random.Generator]):
        self.hidden_dim = hidden_dim
        self.fwd = LstmCell(f"{name}.fwd", input_dim, hidden_dim, rng)
        self.bwd = LstmCell(f"{name}.bwd", input_dim, hidden_dim, rng)

    def params(self) -> list[ParameterGroup]:
        return self.fwd.params() + self.bwd.params()

    def _run(self, pack: _Packing, calls, threaded: bool) -> list:
        """Results of the fwd and bwd calls: the bwd one on a thread of its own
        when threaded and a step is worth it, else one after the other."""
        if threaded and _two_threads(pack.offsets[1], self.hidden_dim):
            return side_by_side(calls, "aacap-bilstm")
        return [call() for call in calls]

    def forward(self, x: np.ndarray, pack: _Packing, keep_cache: bool = True):
        """x (N, in), the packed rows of pack; returns (N, 2 hidden) and the
        cache for backward (None without keep_cache). Each direction writes
        its own columns of the output."""
        hidden, mirror, offsets = self.hidden_dim, pack.mirror, pack.offsets
        out = np.empty((len(x), 2 * hidden))
        caches = self._run(pack, [
            partial(self.fwd.forward_sequence, x, offsets, out[:, :hidden], keep_cache),
            partial(self.bwd.forward_sequence, x[mirror], offsets, out[:, hidden:], keep_cache),
        ], threaded=keep_cache)
        out[:, hidden:] = out[mirror, hidden:]
        return out, (caches if keep_cache else None)

    def backward(self, cache, x: np.ndarray, pack: _Packing, dout: np.ndarray) -> np.ndarray:
        """d(loss)/d(x) (N, in) from dout (N, 2 hidden), x and pack those of the
        forward. Each direction's cached arrays are freed by its own backward."""
        hidden, mirror = self.hidden_dim, pack.mirror
        dx, d_bwd = self._run(pack, [
            partial(self.fwd.backward_sequence, cache[0], x, dout[:, :hidden]),
            partial(self.bwd.backward_sequence, cache[1], x[mirror], dout[mirror, hidden:]),
        ], threaded=True)
        dx += d_bwd[mirror]
        return dx


class Encoder:
    """Two stacked Bi-LSTM layers; per-step outputs of the second layer feed
    attention. It packs a batch once per call and runs both layers on the
    packed rows, so padding begins and ends here."""

    def __init__(self, cfg: ModelConfig, rng: Optional[np.random.Generator]):
        self.cfg = cfg
        self.layer1 = BiLstmLayer("enc.l1", cfg.embed_dim, cfg.enc_hidden, rng)
        self.layer2 = BiLstmLayer("enc.l2", cfg.enc_out_dim, cfg.enc_hidden, rng)

    def params(self) -> list[ParameterGroup]:
        return self.layer1.params() + self.layer2.params()

    def forward(self, inputs: np.ndarray, lengths: Sequence[int], keep_cache: bool = True):
        """inputs (B, T, F_e), row b valid for its first lengths[b] frames.

        Returns (E (B, T, d_e), zero on padded frames, and the cache, or None
        without keep_cache): the packing, the inputs, layer 1's cell caches,
        layer 2's input rows and its cell caches. Padded frames are never
        read, so their values never reach E, the loss or a gradient.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 3 or inputs.shape[0] == 0 or inputs.shape[2] != self.cfg.embed_dim:
            raise ShapeError(
                f"encoder input shape {inputs.shape}, expected (B, T, {self.cfg.embed_dim})")
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.shape != inputs.shape[:1]:
            raise ShapeError(f"valid lengths of shape {lengths.shape} for "
                             f"{inputs.shape[0]} encoder rows")
        if lengths.min() < 1 or lengths.max() > inputs.shape[1]:
            raise ValueError(f"valid_length {lengths.tolist()} outside 1..{inputs.shape[1]}")
        pack = _Packing.of(lengths)
        mid, cache1 = self.layer1.forward(inputs[pack.rows, pack.steps], pack, keep_cache)
        out, cache2 = self.layer2.forward(mid, pack, keep_cache)
        cache = [pack, inputs, cache1, mid, cache2] if keep_cache else None
        return pack.pad(out, inputs.shape[1]), cache

    def backward(self, cache: list, d_out: np.ndarray) -> np.ndarray:
        """Returns d(loss)/d(inputs), zero on padded frames; each layer's cache
        is emptied once used."""
        pack, inputs, cache1, mid, cache2 = cache
        cache.clear()
        d_mid = self.layer2.backward(cache2, mid, pack, d_out[pack.rows, pack.steps])
        d_x = self.layer1.backward(cache1, inputs[pack.rows, pack.steps], pack, d_mid)
        return pack.pad(d_x, d_out.shape[1])


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
        keys = self.keys(enc_values), as EncoderOutput carries it; one sequence's
        (T, ·) arrays broadcast over rows of h_prev (R, d_h)."""
        pre = self._pre(keys, h_prev)  # (..., T, d_a)
        alpha = np.maximum(pre, 0.0)
        logits = (alpha @ self.w_score.value)[..., 0]
        padded = np.arange(logits.shape[-1]) >= np.asarray(valid)[..., None]
        # A valid frame holds the row max, so softmax gives each padded frame
        # exp(-inf) = +0.0 exactly: no weight and no share of the context.
        logits[..., padded] = -np.inf
        weights = softmax(logits)
        context = (weights[..., None, :] @ enc_values)[..., 0, :]
        return AttentionStep(weights=weights, context=context)

    def backward(self, enc_values: np.ndarray, keys: np.ndarray, h_prev: np.ndarray,
                 weights: np.ndarray, d_context: np.ndarray, d_pre_sum: np.ndarray,
                 d_pre_rows: np.ndarray, score_rows: np.ndarray) -> np.ndarray:
        """One decoder step's backward over rows of a batch: enc_values
        (B, T, d_e), keys (B, T, d_a), h_prev (B, d_h), weights (B, T) and
        d_context (B, d_e). Returns dh_prev (B, d_h).

        The pre-activations are recomputed here, in one (B, T, d_a) buffer
        that then holds their gradient, which is added into d_pre_sum and
        written, summed over frames, into d_pre_rows (B, d_a); each row's
        share of the w_score gradient is added into score_rows (B, d_a). No
        parameter gradient is touched, so two threads may run disjoint rows:
        finish_backward takes the weight gradients from those arrays once all
        steps are done. Every step reads the same E and W_enc, so the E /
        W_enc products, and the context read's dE, are taken there too.
        """
        d_weights = (enc_values @ d_context[..., None])[..., 0]
        # softmax backward; padded entries have weight 0 and drop out
        inner = np.sum(weights * d_weights, axis=-1, keepdims=True)
        d_logits = weights * (d_weights - inner)
        pre = self._pre(keys, h_prev)
        active = pre > 0
        alpha = np.maximum(pre, 0.0, out=pre)
        score_rows += (d_logits[..., None, :] @ alpha)[..., 0, :]
        d_pre = np.multiply(d_logits[..., None], self.w_score.value.ravel(), out=alpha)
        d_pre *= active
        d_pre_sum += d_pre
        d_pre.sum(axis=1, out=d_pre_rows)
        return d_pre_rows @ self.w_hidden.value.T

    def finish_backward(self, enc_values: np.ndarray, h_prev: np.ndarray,
                        d_pre_sum: np.ndarray, d_pre_rows: np.ndarray,
                        score_rows: np.ndarray) -> np.ndarray:
        """Adds the weight gradients of every step's backward: w_enc from the
        (B, T, ·) E and d_pre_sum, w_hidden as one product of the stacked
        per-step h_prev (..., d_h) and d_pre_rows (..., d_a), and w_score as
        score_rows summed in row order. Returns the E / W_enc part of dE."""
        attn_dim = d_pre_sum.shape[-1]
        self.w_enc.gradient += (enc_values.reshape(-1, enc_values.shape[-1]).T
                                @ d_pre_sum.reshape(-1, attn_dim))
        self.w_hidden.gradient += (h_prev.reshape(-1, h_prev.shape[-1]).T
                                   @ d_pre_rows.reshape(-1, attn_dim))
        self.w_score.gradient += score_rows.sum(axis=0)[:, None]
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

    def advance(self, tokens, h_prev: np.ndarray, c_prev: np.ndarray, enc: EncoderOutput):
        """The attention read from h_prev, then the cell step on the embedding
        plus the context's share of the pre-activation: weights x
        enc.context_gates when enc carries them, which never reads W_ctx, else
        context x W_ctx. For one token id with 1-D states or (B,) ids with
        (B, d_h) states, and enc of one sequence or a batch of B; returns
        (h, c, gates, AttentionStep)."""
        att_step = self.attention.forward(enc.values, enc.valid_length, h_prev, enc.keys)
        weights, context_gates = att_step.weights, enc.context_gates
        if context_gates is None:
            share = self.context_gates(att_step.context)
        elif context_gates.ndim == 2:  # one sequence: every row in one product
            share = weights @ context_gates
        else:
            share = (weights[..., None, :] @ context_gates)[..., 0, :]
        h, c, gates = self.cell.step(self.embedding.value[tokens], h_prev, c_prev, share)
        return h, c, gates, att_step

    def context_gates(self, enc_values: np.ndarray) -> np.ndarray:
        """E W_ctx (..., T, 4 d_h), W_ctx the cell's weight rows for the context:
        a step's context share of the cell pre-activation is its attention
        weights times these, or its context (..., d_e) times W_ctx."""
        word_dim = self.cfg.word_dim
        return enc_values @ self.cell.w.value[word_dim:word_dim + self.cfg.enc_out_dim]

    def step(self, token, h_prev: np.ndarray, c_prev: np.ndarray, enc: EncoderOutput):
        """One inference step of one id or a row of ids, advance and then the
        output projection: (logits, h, c, AttentionStep)."""
        if np.any((np.asarray(token) < 0) | (np.asarray(token) >= self.cfg.vocab_size)):
            raise ValueError(f"token id {token} outside vocabulary of {self.cfg.vocab_size}")
        h, c, _, att_step = self.advance(token, h_prev, c_prev, enc)
        return h @ self.w_out.value + self.b_out.value, h, c, att_step


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

    def encode(self, inputs: np.ndarray, valid_length=None) -> EncoderOutput:
        """E of one (T, F_e) matrix, valid for its first valid_length frames
        (all by default), or of a padded batch (B, T, F_e) with valid lengths
        (B,). One matrix runs as the batch of one row. Nothing is kept for
        backward, so a call holds at most, in the second layer, that layer's
        packed input and output, the bwd direction's mirrored copy of the
        input and one direction's input projection; then its E, its keys and
        its context gates.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim not in (2, 3):
            raise ShapeError(f"encode input shape {inputs.shape}, expected (T, "
                             f"{self.cfg.embed_dim}) or (B, T, {self.cfg.embed_dim})")
        one = inputs.ndim == 2
        batch = inputs[None] if one else inputs
        lengths = (np.full(len(batch), batch.shape[1]) if valid_length is None
                   else np.atleast_1d(np.asarray(valid_length, dtype=np.int64)))
        values, _ = self.encoder.forward(batch, lengths, keep_cache=False)
        keys = self.decoder.attention.keys(values)
        context_gates = self.decoder.context_gates(values)
        if one:
            return EncoderOutput(values[0], int(lengths[0]), keys[0], context_gates[0])
        return EncoderOutput(values, lengths, keys, context_gates)

    def decoder_step(self, prev_token, h_prev: np.ndarray, c_prev: np.ndarray,
                     enc: EncoderOutput):
        """One inference step of one id or a row of ids: (logits, h, c, AttentionStep)."""
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
        n_steps = np.array([_step_count(target) for target in targets], dtype=np.int64)
        batch, span = len(targets), int(n_steps.max(initial=0))
        tokens = np.full((batch, span + 1), PAD)
        for b, target in enumerate(targets):
            head = list(target[:n_steps[b] + 1])
            tokens[b, :len(head)] = head
        if tokens.size and (tokens.min() < 0 or tokens.max() >= self.cfg.vocab_size):
            raise ValueError(f"token ids outside vocabulary of {self.cfg.vocab_size}")

        enc = EncoderOutput(enc_values, np.asarray(lengths), dec.attention.keys(enc_values))
        tokens_in = tokens[:, :span].T
        h = np.zeros((span + 1, batch, self.cfg.dec_hidden))
        c = np.zeros_like(h)
        gates = np.empty((span, batch, 4 * self.cfg.dec_hidden))
        contexts = np.empty((span, batch, self.cfg.enc_out_dim))
        weights = np.empty((span, batch, enc_values.shape[1]))

        def run(rows: slice):
            part = EncoderOutput(enc.values[rows], enc.valid_length[rows], enc.keys[rows])
            for s in range(span):
                h[s + 1, rows], c[s + 1, rows], gates[s, rows], att_step = dec.advance(
                    tokens_in[s, rows], h[s, rows], c[s, rows], part)
                weights[s, rows], contexts[s, rows] = att_step.weights, att_step.context
        _by_halves(batch, self.cfg.dec_hidden, run)

        samples, steps = np.nonzero(np.arange(span) < n_steps[:, None])
        tokens_out = tokens[samples, steps + 1]
        probs = softmax(h[steps + 1, samples] @ dec.w_out.value + dec.b_out.value)
        nll = -np.log(np.maximum(probs[np.arange(len(samples)), tokens_out], PROB_FLOOR))
        totals = np.bincount(samples, weights=nll, minlength=batch)
        loss = sum(total / n for total, n in zip(totals.tolist(), n_steps.tolist()) if n)
        decoder = _DecoderCache(enc, tokens_in, h, c, gates, contexts, weights, n_steps,
                                samples, steps, tokens_out, probs)
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
        d_att_pre = np.zeros_like(cache.enc.keys)
        d_att_rows = np.empty((span, batch, self.cfg.attn_dim))
        score_rows = np.zeros((batch, self.cfg.attn_dim))

        def run(rows: slice):
            values, keys = cache.enc.values[rows], cache.enc.keys[rows]
            dh_next = np.zeros((rows.stop - rows.start, self.cfg.dec_hidden))
            dc_next = np.zeros_like(dh_next)
            for s in range(span - 1, -1, -1):
                dc_next = cell.gate_deltas(cache.gates[s, rows], cache.c[s, rows],
                                           cache.c[s + 1, rows], dh_out[s, rows] + dh_next,
                                           dc_next, d_pre[s, rows])
                dz = d_pre[s, rows] @ w_rest.T
                d_contexts[s, rows] = dz[:, :enc_out]
                dh_next = dz[:, enc_out:] + att.backward(
                    values, keys, cache.h[s, rows], cache.weights[s, rows], d_contexts[s, rows],
                    d_att_pre[rows], d_att_rows[s, rows], score_rows[rows])
        _by_halves(batch, self.cfg.dec_hidden, run)

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
        d_enc += att.finish_backward(cache.enc.values, cache.h[:-1], d_att_pre, d_att_rows,
                                     score_rows)
        return d_enc

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def save(self, path, extra_config: Optional[dict] = None):
        """Versioned binary checkpoint: a config JSON block, behind its length
        and CRC, naming the arrays with each one's word sum, then the float64
        arrays back to back. It is written to a temporary file beside `path`
        and then moved over it, so a save that fails part-way leaves an
        earlier file whole."""
        params = self.parameters()
        arrays = [group.value.astype("<f8", copy=False) for group in params]
        config = {**(extra_config or {}), "model": self.cfg.to_dict(),
                  "arrays": [group.name for group in params],
                  "sums": [_word_sum(array) for array in arrays]}
        blob = json.dumps(config, sort_keys=True).encode("utf-8")
        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(CHECKPOINT_MAGIC + struct.pack("<II", len(blob), zlib.crc32(blob))
                         + blob)
                for array in arrays:
                    fh.write(array.data)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise

    @classmethod
    def load(cls, path) -> tuple[CaptionModel, dict]:
        """Rebuild a model from a checkpoint; returns (model, full config dict).

        Reads the current format only. The config block is checked against
        its CRC before it is parsed, the file size against the config before
        the model is built, and the model is built without random init:
        every array is then read on its own straight into its parameter, so
        the file is never held in memory, not even one array, and checked
        against its word sum and for non-finite values.
        """
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if fh.read(5) != CHECKPOINT_MAGIC:
                raise FormatError(f"{path}: not a model checkpoint (bad magic/version)")
            prefix = fh.read(8)
            if len(prefix) < 8:
                raise CorruptionError(f"{path}: bad config block (the file ends inside "
                                      f"its length and CRC)")
            length, crc = struct.unpack("<II", prefix)
            offset = 13 + length
            if offset > size:
                raise CorruptionError(f"{path}: bad config block (its length runs past "
                                      f"the end of the file)")
            blob = fh.read(length)
            if zlib.crc32(blob) != crc:
                raise CorruptionError(f"{path}: bad config block (it does not match its CRC)")
            try:
                config = json.loads(blob.decode("utf-8"))
                model_cfg = ModelConfig(**config["model"])
            except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError,
                    ConfigError) as exc:
                raise CorruptionError(f"{path}: bad config block ({exc!r})") from exc
            weight_bytes = 8 * model_cfg.parameter_count
            if size != offset + weight_bytes:
                raise CorruptionError(f"{path}: config needs {weight_bytes} bytes of weights, "
                                      f"the file has {size - offset}")
            model = cls(model_cfg, random_init=False)
            params = model.parameters()
            if config.get("arrays") != [group.name for group in params]:
                raise CorruptionError(f"{path}: the config block's array names do not "
                                      f"match the model's layout")
            sums = config.get("sums")
            if not isinstance(sums, list) or len(sums) != len(params):
                raise CorruptionError(f"{path}: the config block needs one word sum per array")
            for group, expected in zip(params, sums):
                target, start = group.value, fh.tell()
                if fh.readinto(memoryview(target).cast("B")) != target.nbytes:
                    raise CorruptionError(f"{path}: truncated at byte {start} + {target.nbytes}")
                word_sum = _word_sum(target)
                if sys.byteorder != "little":
                    target.byteswap(inplace=True)
                if not np.all(np.isfinite(target)):
                    raise CorruptionError(f"{path}: {group.name} has non-finite values")
                if word_sum != expected:
                    raise CorruptionError(f"{path}: {group.name} does not match its word sum "
                                          f"(the weights at byte {start} are damaged)")
        return model, config
