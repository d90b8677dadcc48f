import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refimpl import finite_diff_check

from aacap import numerics
from aacap.numerics import (
    ADAM_BETA1,
    ADAM_BLOCK,
    ADAM_BETA2,
    ADAM_EPS,
    ParameterGroup,
    adam_step,
    blas_threads,
    log_softmax,
    sigmoid,
    softmax,
)

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


def test_softmax_symmetry_and_singleton():
    assert np.allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])
    assert softmax(np.array([123.456])) == pytest.approx([1.0])


def test_softmax_large_inputs_no_overflow():
    out = softmax(np.array([1000.0, 1000.0]))
    assert np.all(np.isfinite(out))
    assert out == pytest.approx([0.5, 0.5])


def test_softmax_empty_rejected():
    with pytest.raises(ValueError):
        softmax(np.array([]))


@given(st.lists(finite_floats, min_size=1, max_size=20), finite_floats)
@settings(max_examples=200)
def test_softmax_sums_to_one_and_shift_invariant(values, shift):
    x = np.array(values)
    out = softmax(x)
    assert np.all(out > 0)
    assert abs(out.sum() - 1.0) < 1e-9
    shifted = softmax(x + shift)
    assert np.max(np.abs(shifted - out)) < 1e-9


def test_log_softmax_matches_log_of_softmax():
    x = np.array([0.3, -1.2, 4.0, 0.0])
    assert np.allclose(log_softmax(x), np.log(softmax(x)), atol=1e-12)


def test_log_softmax_of_rows_equals_one_call_per_row():
    rng = np.random.default_rng(0)
    for vocab in (1, 5, 163, 4404):
        rows = rng.normal(scale=8.0, size=(4, vocab))
        out = log_softmax(rows)
        assert out.shape == rows.shape
        for r in range(len(rows)):
            assert np.array_equal(out[r], log_softmax(rows[r])), (vocab, r)
    with pytest.raises(ValueError):
        log_softmax(np.zeros((3, 0)))


def test_sigmoid_extremes_stay_finite():
    out = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
    assert np.all(np.isfinite(out))
    assert out[1] == 0.5


def masked_sigmoid(x):
    """The two-branch formula through a boolean mask: 1 / (1 + e^-x) for x >= 0,
    e^x / (1 + e^x) below."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_is_bit_identical_to_the_masked_formula():
    tiny = np.finfo(np.float64).tiny
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0, 745.0, -745.0,
                        tiny, -tiny, tiny / 2, -tiny / 2, 5e-324, -5e-324, 1e-300, -1e-300,
                        36.7, -36.7, 709.8, -709.8])
    rng = np.random.default_rng(0)
    for x in (special, rng.normal(scale=10.0, size=(20, 768)), rng.normal(size=768)):
        got = sigmoid(x)
        assert got.shape == x.shape
        assert np.array_equal(got, masked_sigmoid(x), equal_nan=True)


def test_adam_zero_gradient_keeps_value():
    group = ParameterGroup("w", np.array([1.0, -2.0]))
    before = group.value.copy()
    adam_step(group, 1e-3)
    assert np.array_equal(group.value, before)
    assert group.step_count == 1


def test_adam_first_step_scalar():
    # Hand evaluation: m_hat = v_hat = 1 after bias correction, so
    # delta = -lr * 1 / (1 + eps) which is -1e-4 to within 1e-11.
    group = ParameterGroup("w", np.array([0.0]))
    group.gradient[:] = 1.0
    adam_step(group, 1e-4)
    assert group.value[0] == pytest.approx(-1e-4 / (1 + 1e-8), abs=1e-15)
    assert np.array_equal(group.gradient, np.zeros(1))


def test_adam_step_sizes_non_increasing_for_constant_gradient():
    group = ParameterGroup("w", np.array([0.0]))
    group.gradient[:] = 0.7
    adam_step(group, 1e-3)
    delta1 = abs(group.value[0])
    prev = group.value[0]
    group.gradient[:] = 0.7
    adam_step(group, 1e-3)
    delta2 = abs(group.value[0] - prev)
    assert delta2 <= delta1 * (1 + 1e-6)


def _textbook_adam(value, m, v, g, t, lr):
    """Straight-line Adam as the package wrote it with full-size temporaries."""
    m = m * ADAM_BETA1 + (1.0 - ADAM_BETA1) * g
    v = v * ADAM_BETA2 + (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    return value - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), m, v


def test_adam_in_place_is_bit_identical_to_textbook_formula():
    rng = np.random.default_rng(4)
    group = ParameterGroup("w", rng.normal(size=(7, 5)))
    value, m, v = group.value.copy(), np.zeros((7, 5)), np.zeros((7, 5))
    for t in range(1, 51):
        g = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=(7, 5))
        group.gradient[...] = g
        adam_step(group, 3e-3)
        value, m, v = _textbook_adam(value, m, v, g, t, 3e-3)
        assert np.array_equal(group.value, value)
        assert np.array_equal(group.adam_m, m)
        assert np.array_equal(group.adam_v, v)
        assert np.array_equal(group.gradient, np.zeros((7, 5)))


def test_adam_over_several_blocks_is_bit_identical_to_textbook_formula():
    # two whole blocks and a short third, from a transposed (non C-order) array
    rng = np.random.default_rng(5)
    shape = (5, (2 * ADAM_BLOCK + 87) // 5)
    assert 2 * ADAM_BLOCK < shape[0] * shape[1] < 3 * ADAM_BLOCK
    group = ParameterGroup("w", rng.normal(size=shape[::-1]).T)
    value, m, v = group.value.copy(), np.zeros(shape), np.zeros(shape)
    for t in range(1, 6):
        g = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=shape)
        group.gradient[...] = g
        adam_step(group, 3e-3)
        value, m, v = _textbook_adam(value, m, v, g, t, 3e-3)
        assert np.array_equal(group.value, value)
        assert np.array_equal(group.adam_m, m)
        assert np.array_equal(group.adam_v, v)
        assert np.array_equal(group.gradient, np.zeros(shape))


def test_adam_rejects_non_finite_gradient():
    group = ParameterGroup("w", np.array([0.0]))
    group.gradient[:] = np.nan
    with pytest.raises(FloatingPointError):
        adam_step(group, 1e-3)


def test_finite_diff_quadratic_loss():
    group = ParameterGroup("x", np.array([0.3, -1.7, 2.2]))
    group.gradient[:] = group.value  # exact gradient of 0.5 * ||x||^2
    err = finite_diff_check(lambda: 0.5 * float(group.value @ group.value), group)
    assert err < 1e-6


def test_finite_diff_detects_scaled_gradient():
    # analytic = 2g vs numeric = g gives |2g - g| / (|2g| + |g|) = 1/3
    group = ParameterGroup("x", np.array([0.9, -0.4]))
    group.gradient[:] = 2.0 * group.value
    err = finite_diff_check(lambda: 0.5 * float(group.value @ group.value), group)
    assert err == pytest.approx(1.0 / 3.0, abs=1e-5)


def test_finite_diff_empty_group():
    group = ParameterGroup("empty", np.zeros((0,)))
    assert finite_diff_check(lambda: 1.0, group) == 0.0


def test_finite_diff_rejects_nondeterministic_loss():
    group = ParameterGroup("x", np.array([1.0]))
    state = {"n": 0}

    def jittery():
        state["n"] += 1
        return float(state["n"])

    with pytest.raises(ValueError):
        finite_diff_check(jittery, group)


def test_finite_diff_rejects_bad_epsilon():
    group = ParameterGroup("x", np.array([1.0]))
    with pytest.raises(ValueError):
        finite_diff_check(lambda: 0.0, group, epsilon=1e-2)


def test_parameter_group_makes_training_buffers_on_first_use():
    group = ParameterGroup("w", np.ones((2, 3)))
    group.zero_grad()
    assert not {"gradient", "adam_m", "adam_v"} & vars(group).keys()
    grad = group.gradient
    assert np.array_equal(grad, np.zeros((2, 3)))
    group.gradient += 2.0  # in place: the same buffer is stored back
    assert group.gradient is grad
    assert np.array_equal(grad, np.full((2, 3), 2.0))
    group.zero_grad()
    assert np.array_equal(grad, np.zeros((2, 3)))
    assert "adam_m" not in vars(group)
    assert np.array_equal(group.adam_v, np.zeros((2, 3)))


def test_blas_threads_sets_the_count_and_puts_it_back_also_on_an_exception():
    calls = numerics._openblas_thread_calls()
    if calls is None:
        pytest.skip("no OpenBLAS loaded")
    get, _ = calls
    before = get()
    with blas_threads(1):
        assert get() == 1
    assert get() == before
    with pytest.raises(KeyError):
        with blas_threads(1):
            raise KeyError("inside")
    assert get() == before


def test_blas_threads_without_openblas_does_nothing(monkeypatch):
    monkeypatch.setattr(numerics, "_openblas_thread_calls", lambda: None)
    with blas_threads(1):
        ran = True
    assert ran
