"""Parameter arrays, activations, Adam, and a gradient checker.

Everything runs in float64 on plain numpy arrays: the models here are tiny,
so determinism and checkable gradients matter more than speed. The model
floors probabilities at PROB_FLOOR before any log so a pathological output
can never produce an infinite loss.
"""

from typing import Callable

import numpy as np

from .errors import ShapeError

PROB_FLOOR = 1e-12

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class _ZerosOnFirstRead:
    """A ParameterGroup array of value's shape, created as zeros when first read.

    Assignment replaces it, after a shape check; that is also what lets the
    in-place `group.gradient += x` work, since Python stores the result back.
    """

    def __set_name__(self, owner, name):
        self.name = name
        self.slot = "_" + name

    def __get__(self, group, owner=None):
        if group is None:
            return self
        arr = getattr(group, self.slot)
        if arr is None:
            arr = np.zeros(group.value.shape)
            setattr(group, self.slot, arr)
        return arr

    def __set__(self, group, arr):
        if arr.shape != group.value.shape:
            raise ShapeError(
                f"{group.name}: {self.name} shape {arr.shape} != value shape {group.value.shape}")
        setattr(group, self.slot, arr)


class ParameterGroup:
    """One learnable array plus its gradient and Adam state.

    The gradient and the two Adam moments are made on first use, so a model
    used only for inference holds its values and nothing else.
    """

    gradient = _ZerosOnFirstRead()
    adam_m = _ZerosOnFirstRead()
    adam_v = _ZerosOnFirstRead()

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.step_count = 0
        self._gradient = self._adam_m = self._adam_v = None

    def zero_grad(self):
        if self._gradient is not None:
            self._gradient.fill(0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(x: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis (max-subtracted), so of a vector or
    of each row of a stack. -inf entries get weight 0."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.shape[-1] == 0:
        raise ValueError("softmax of an empty vector")
    shifted = x - np.max(x, axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)


def log_softmax(x: np.ndarray) -> np.ndarray:
    """log(softmax(x)) without forming intermediate tiny probabilities."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValueError("log_softmax of an empty vector")
    shifted = x - np.max(x)
    return shifted - np.log(np.exp(shifted).sum())


def adam_step(group: ParameterGroup, learning_rate: float) -> ParameterGroup:
    """Standard Adam update in place; increments step_count, clears the gradient.

    Works in one scratch array plus the gradient's own buffer, with the
    operation order of the textbook formula, so the result is bit-identical
    to value -= lr * m_hat / (sqrt(v_hat) + eps).
    """
    g = group.gradient
    if not np.all(np.isfinite(g)):
        raise FloatingPointError(f"{group.name}: non-finite gradient entries")
    group.step_count += 1
    t = group.step_count
    scratch = np.multiply(g, 1.0 - ADAM_BETA1)
    group.adam_m *= ADAM_BETA1
    group.adam_m += scratch
    np.multiply(g, 1.0 - ADAM_BETA2, out=scratch)
    scratch *= g
    group.adam_v *= ADAM_BETA2
    group.adam_v += scratch
    np.divide(group.adam_v, 1.0 - ADAM_BETA2 ** t, out=scratch)  # v_hat
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    np.divide(group.adam_m, 1.0 - ADAM_BETA1 ** t, out=g)  # m_hat, over the gradient
    g *= learning_rate
    g /= scratch
    group.value -= g
    group.zero_grad()
    return group


def finite_diff_check(loss_fn: Callable[[], float], group: ParameterGroup,
                      epsilon: float = 1e-5) -> float:
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
