"""Parameter arrays, activations, Adam, and the two-thread helper.

Everything runs in float64 on plain numpy arrays: the models here are tiny,
so determinism and checkable gradients matter more than speed. The model
floors probabilities at PROB_FLOOR before any log so a pathological output
can never produce an infinite loss.
"""

import threading
from functools import cached_property

import numpy as np

PROB_FLOOR = 1e-12

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# adam_step's block, in values: a block of each of its five operands fits in L2
ADAM_BLOCK = 1 << 14


class ParameterGroup:
    """One learnable array plus its gradient and Adam state.

    The gradient and the two Adam moments are made on first use, so a model
    used only for inference holds its values and nothing else.
    """

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64, order="C")
        self.step_count = 0

    @cached_property
    def gradient(self) -> np.ndarray:
        return np.zeros(self.value.shape)

    @cached_property
    def adam_m(self) -> np.ndarray:
        return np.zeros(self.value.shape)

    @cached_property
    def adam_v(self) -> np.ndarray:
        return np.zeros(self.value.shape)

    def zero_grad(self):
        if "gradient" in vars(self):
            self.gradient.fill(0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: 1 / (1 + e^-x) for x >= 0 and
    e^x / (1 + e^x) below, with e = e^-|x| shared by both, so exp never
    overflows."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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
    """log(softmax(x)) along the last axis, so of a vector or of each row of a
    stack, without forming intermediate tiny probabilities."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.shape[-1] == 0:
        raise ValueError("log_softmax of an empty vector")
    shifted = x - np.max(x, axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def adam_step(group: ParameterGroup, learning_rate: float) -> ParameterGroup:
    """Standard Adam update in place; increments step_count, clears the gradient.

    Walks the raveled arrays in blocks of ADAM_BLOCK values, each block
    worked in one block-sized scratch array plus the gradient's own buffer,
    with the operation order of the textbook formula: the result is
    bit-identical to value -= lr * m_hat / (sqrt(v_hat) + eps).
    """
    g = group.gradient
    if not np.all(np.isfinite(g)):
        raise FloatingPointError(f"{group.name}: non-finite gradient entries")
    group.step_count += 1
    t = group.step_count
    bias1, bias2 = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
    arrays = [a.reshape(-1) for a in (group.value, g, group.adam_m, group.adam_v)]
    buffer = np.empty(min(ADAM_BLOCK, g.size))
    for start in range(0, g.size, ADAM_BLOCK):
        value, grad, m, v = (a[start:start + ADAM_BLOCK] for a in arrays)
        scratch = buffer[:len(grad)]
        np.multiply(grad, 1.0 - ADAM_BETA1, out=scratch)
        m *= ADAM_BETA1
        m += scratch
        np.multiply(grad, 1.0 - ADAM_BETA2, out=scratch)
        scratch *= grad
        v *= ADAM_BETA2
        v += scratch
        np.divide(v, bias2, out=scratch)  # v_hat
        np.sqrt(scratch, out=scratch)
        scratch += ADAM_EPS
        np.divide(m, bias1, out=grad)  # m_hat, over the gradient
        grad *= learning_rate
        grad /= scratch
        value -= grad
        grad.fill(0.0)
    return group


def side_by_side(calls, name: str) -> list:
    """Results of two calls, the second on a helper thread named `name`,
    started and joined within this call; numpy releases the GIL inside its
    products, FFTs and ufuncs, so the two can overlap there. The helper
    has finished when this returns or raises. An exception from the
    caller's call wins; else one from the helper's call is raised here."""
    here, there = calls
    outcome = []

    def run():
        try:
            outcome.append((there(), None))
        except BaseException as exc:  # raised on the caller's thread below
            outcome.append((None, exc))
    helper = threading.Thread(target=run, name=name)
    helper.start()
    try:
        mine = here()
    finally:
        helper.join()
    theirs, failure = outcome[0]
    if failure is not None:
        raise failure
    return [mine, theirs]
