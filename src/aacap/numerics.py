"""Parameter arrays, activations, Adam, the two-thread helper, and the BLAS
thread count.

Everything runs in float64 on plain numpy arrays: the models here are tiny,
so determinism and checkable gradients matter more than speed. The model
floors probabilities at PROB_FLOOR before any log so a pathological output
can never produce an infinite loss.
"""

import ctypes
import os
import threading
from contextlib import contextmanager
from functools import cached_property

import numpy as np

from .errors import ConfigError

PROB_FLOOR = 1e-12

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# adam_step's block, in values: a block of each of its five operands fits in L2
ADAM_BLOCK = 1 << 14
# (get, set) thread-count symbols of OpenBLAS builds: numpy's bundled
# scipy-openblas with 64-bit ints, a plain 64-bit-int build, a plain build
OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
# BLAS threads of an inference decode (encode and search). A beam step's few
# rows read all of W_out, so one thread is bound by one core's memory
# bandwidth; two match side_by_side's two threads. On one CPU it is 1, since
# OpenBLAS helper threads spin and would starve the caller's core. OpenBLAS
# splits a product by output rows or columns, not along a sum, so decode
# outputs are bit-identical at 1 and 2 threads.
DECODE_BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))


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


def check_allocatable(values: int, what: str):
    """Raises ConfigError when `values` float64 values are more bytes than one
    numpy array can address (np.intp), a size numpy itself rejects with a bare
    ValueError or OverflowError. A smaller size beyond memory raises
    MemoryError once it is allocated."""
    if 8 * values > np.iinfo(np.intp).max:
        raise ConfigError(f"{what} of {values} float64 values is too large to allocate")


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: 1 / (1 + e^-x) for x >= 0 and
    e^x / (1 + e^x) below, so exp never overflows. The numerator is
    e^min(x, 0), which is 1 or e^x, and the denominator 1 + e^-|x|, built
    in one scratch buffer."""
    x = np.asarray(x, dtype=np.float64)
    scratch = np.abs(x, out=np.empty_like(x))
    np.negative(scratch, out=scratch)
    np.exp(scratch, out=scratch)
    scratch += 1.0
    out = np.minimum(x, 0.0, out=np.empty_like(x))
    np.exp(out, out=out)
    out /= scratch
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


def _openblas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS loaded in this process,
    found through /proc/self/maps, or None where none is found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for get_name, set_name in OPENBLAS_THREAD_CALLS:
            get, put = getattr(handle, get_name, None), getattr(handle, set_name, None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


@contextmanager
def blas_threads(n: int):
    """Runs the block with the loaded OpenBLAS at n threads, then puts back the
    count the caller had, also when the block raises.

    The library is looked up on each call, not at import. Where no OpenBLAS
    is found (another BLAS, or no /proc), this does nothing, and the count
    stays as the environment set it.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    before = get()
    put(n)
    try:
        yield
    finally:
        put(before)
