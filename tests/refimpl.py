"""Independent straight-line reimplementation of the model math, and the
finite-difference gradient checker.

Used as the oracle in tests: same formulas, different code path, no shared
helpers with the package internals.
"""

import math

import numpy as np

from aacap.text import PAD


def ref_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def ref_gate(cell, k):
    """(weight, bias) of gate k, a column block of the cell's fused arrays."""
    cols = slice(k * cell.hidden_dim, (k + 1) * cell.hidden_dim)
    return cell.w.value[:, cols], cell.b.value[cols]


def ref_cell_step(cell, x, h, c):
    z = np.concatenate([x, h])
    (w_f, b_f), (w_i, b_i), (w_o, b_o), (w_g, b_g) = (ref_gate(cell, k) for k in range(4))
    f = ref_sigmoid(z @ w_f + b_f)
    i = ref_sigmoid(z @ w_i + b_i)
    o = ref_sigmoid(z @ w_o + b_o)
    g = np.tanh(z @ w_g + b_g)
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


def ref_bilstm(layer, xs, valid):
    hidden = layer.hidden_dim
    out = np.zeros((xs.shape[0], 2 * hidden))
    h = c = np.zeros(hidden)
    for t in range(valid):
        h, c = ref_cell_step(layer.fwd, xs[t], h, c)
        out[t, :hidden] = h
    h = c = np.zeros(hidden)
    for t in reversed(range(valid)):
        h, c = ref_cell_step(layer.bwd, xs[t], h, c)
        out[t, hidden:] = h
    return out


def ref_encode(model, m, valid):
    return ref_bilstm(model.encoder.layer2,
                      ref_bilstm(model.encoder.layer1, m, valid), valid)


def ref_attention(att, enc_values, valid, h_prev):
    pre = enc_values @ att.w_enc.value + h_prev @ att.w_hidden.value
    alpha = np.where(pre > 0, pre, 0.0)
    logits = (alpha @ att.w_score.value).ravel()[:valid]
    shifted = np.exp(logits - logits.max())
    weights = np.zeros(enc_values.shape[0])
    weights[:valid] = shifted / shifted.sum()
    return weights, weights @ enc_values


def ref_decoder_logits(model, token, h, c, enc_values, valid):
    """One decoder step; returns (logits, h_new, c_new, weights)."""
    dec = model.decoder
    weights, context = ref_attention(dec.attention, enc_values, valid, h)
    x = np.concatenate([dec.embedding.value[token], context])
    h_new, c_new = ref_cell_step(dec.cell, x, h, c)
    return h_new @ dec.w_out.value + dec.b_out.value, h_new, c_new, weights


def ref_log_prob_of_sequence(model, m, tokens, valid):
    """Sum of per-step log softmax probabilities of tokens[1:] given tokens[:-1]."""
    enc_values = ref_encode(model, m, valid)
    h = c = np.zeros(model.cfg.dec_hidden)
    total = 0.0
    for s in range(len(tokens) - 1):
        logits, h, c, _ = ref_decoder_logits(model, tokens[s], h, c, enc_values, valid)
        shifted = logits - logits.max()
        total += shifted[tokens[s + 1]] - math.log(np.exp(shifted).sum())
    return total


def ref_teacher_forced_loss(model, m, target, valid):
    enc_values = ref_encode(model, m, valid)
    h = c = np.zeros(model.cfg.dec_hidden)
    losses = []
    for s in range(len(target) - 1):
        if target[s + 1] == PAD:
            break
        logits, h, c, _ = ref_decoder_logits(model, target[s], h, c, enc_values, valid)
        shifted = logits - logits.max()
        losses.append(math.log(np.exp(shifted).sum()) - shifted[target[s + 1]])
    return sum(losses) / len(losses) if losses else 0.0


def finite_diff_check(loss_fn, group, epsilon: float = 1e-5) -> float:
    """Compare group.gradient against central differences of loss_fn.

    Returns max over entries of |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    loss_fn must be deterministic; it is evaluated twice up front to verify that.
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise ValueError(f"epsilon {epsilon} outside [1e-7, 1e-3]")
    if abs(loss_fn() - loss_fn()) != 0.0:
        raise ValueError("loss_fn is not deterministic")
    if group.value.size == 0:
        return 0.0
    worst = 0.0
    flat_value = group.value.ravel()
    flat_grad = group.gradient.ravel()
    for idx in range(flat_value.size):
        saved = flat_value[idx]
        flat_value[idx] = saved + epsilon
        loss_plus = loss_fn()
        flat_value[idx] = saved - epsilon
        loss_minus = loss_fn()
        flat_value[idx] = saved
        numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
        analytic = flat_grad[idx]
        rel = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
        worst = max(worst, rel)
    return worst
