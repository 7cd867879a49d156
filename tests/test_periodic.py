import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad

from nctorus import PeriodicFunction, smooth_step
from nctorus.periodic import trig_sum


def smooth_test_function():
    return PeriodicFunction.from_callable(lambda x: np.exp(np.sin(2 * np.pi * x)))


def test_evaluate_exponential_quarter():
    f = PeriodicFunction.exponential(1)
    assert abs(f(0.25) - 1j) < 1e-13


def test_evaluate_constant():
    f = PeriodicFunction.constant(1.0)
    for x in (0.0, 0.37, 12.9, -3.1):
        assert abs(f(x) - 1.0) < 1e-13


def test_evaluate_cosine_at_third():
    f = PeriodicFunction.from_callable(lambda x: np.cos(2 * np.pi * x))
    expected = np.cos(2 * np.pi / 3)  # = -0.5
    assert abs(f(1.0 / 3.0) - expected) < 1e-12
    assert abs(expected + 0.5) < 1e-15


def test_interpolation_consistency_on_grid():
    f = smooth_test_function()
    values = f(np.arange(f.n_samples) / f.n_samples)
    assert np.array_equal(values, f.samples)


def test_smooth_coefficients_decay():
    # diagnostic from the type invariant: smooth input decays below 1e-12
    # well before the Nyquist mode
    f = smooth_test_function()
    c = np.abs(f.coefficients)
    high = np.abs(f.modes) >= f.n_samples // 4
    assert c[high].max() < 1e-12


def test_derivative_of_character():
    f = PeriodicFunction.exponential(1)
    df = f.derivative()
    expected = 2j * np.pi * f.samples
    assert np.abs(df.samples - expected).max() < 1e-11


def test_shift_is_character_phase():
    f = PeriodicFunction.exponential(1)
    for alpha in (0.3, -1.7, np.sqrt(2)):
        g = f.shift(alpha)
        assert np.abs(g.samples - np.exp(-2j * np.pi * alpha) * f.samples).max() < 1e-12


def test_shift_roundtrip():
    f = smooth_test_function()
    for alpha in np.linspace(-2.0, 2.0, 9):
        g = f.shift(alpha).shift(-alpha)
        assert (g - f).sup_norm() < 1e-12


def test_mean_of_derivative_vanishes():
    f = smooth_test_function()
    assert abs(f.derivative().mean()) < 1e-14


def test_multiply_commutative_associative():
    f = smooth_test_function()
    g = PeriodicFunction.from_callable(lambda x: 1.0 / (2.0 + np.cos(2 * np.pi * x)))
    h = PeriodicFunction.exponential(2)
    assert ((f * g) - (g * f)).sup_norm() < 1e-12
    assert (((f * g) * h) - (f * (g * h))).sup_norm() < 1e-12


def test_rieffel_coefficient_mean_matches_quadrature_oracle():
    # rebuild the ramp profile explicitly and integrate it independently
    frac, eps = 0.3, 0.1

    def ramp(x):
        x = np.mod(x, 1.0)
        if x < eps:
            return float(smooth_step(x / eps))
        if x <= frac:
            return 1.0
        if x < frac + eps:
            return 1.0 - float(smooth_step((x - frac) / eps))
        return 0.0

    oracle, _ = quad(ramp, 0.0, 1.0, limit=400)
    assert abs(oracle - frac) < 1e-10

    f = PeriodicFunction.from_callable(np.vectorize(ramp))
    assert abs(f.mean() - oracle) < 1e-10


def test_point_evaluation_memory_is_bounded(p03):
    # the 16001 points of the 2000-mode diagonal stream against the bump's
    # 2048 modes: one points-by-modes matrix of them would take 500 MiB
    f = p03.coefficient(0)
    xs = np.linspace(-60.0, 60.0, 16001)
    tracemalloc.start()
    try:
        values = f(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20
    assert values.shape == xs.shape
    # blocks are stitched in order across a block boundary
    assert np.array_equal(values[1020:1030], f(xs[1020:1030]))


def test_evaluation_keeps_the_shape_of_the_points():
    f = smooth_test_function()
    xs = np.linspace(-0.7, 1.3, 6)
    values = f(xs.reshape(2, 3))
    assert values.shape == (2, 3)
    assert np.array_equal(values.ravel(), f(xs))


def _mpmath_trig_sum(k, c, x):
    """sum_j c_j e^{2 pi i k_j x} at one point, in 40-digit arithmetic."""
    with mpmath.workdps(40):
        x = mpmath.mpf(float(x))
        total = mpmath.mpc(0)
        for kj, cj in zip(k, c):
            total += mpmath.mpc(cj.real, cj.imag) * mpmath.expjpi(2 * int(kj) * x)
        return complex(total)


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (30.0, 40.0), (-1e3, 1e3)])
def test_trig_sum_of_bump_matches_mpmath(p03, lo, hi):
    # the phases are reduced exactly mod 1, so the error does not grow with |x|
    bump = p03.coefficient(0)
    k, c = bump.modes, bump.coefficients
    xs = np.random.default_rng(1414).uniform(lo, hi, 4)
    got = trig_sum(k, c, xs)
    err = max(abs(g - _mpmath_trig_sum(k, c, x)) for g, x in zip(got, xs))
    assert err < 4e-15 * np.abs(c).sum()


def test_evaluation_on_own_grid_returns_the_samples(p03):
    bump = p03.coefficient(0)
    grid = np.arange(bump.n_samples) / bump.n_samples
    assert np.array_equal(bump(grid), bump.samples)


_FINE = PeriodicFunction.from_callable(lambda x: np.exp(np.sin(2 * np.pi * x) + 1j * x), 8192)
_COARSE_GRID = np.arange(2048) / 2048
_OFF_GRID = np.linspace(-1.3, 2.7, 37)


@pytest.mark.parametrize("x, nodes", [
    # a coarser nested grid, shifted by whole periods: every 4th sample
    (_COARSE_GRID, np.arange(0, 8192, 4)),
    (_COARSE_GRID - 3.0, np.arange(0, 8192, 4)),
    (np.array([[-0.25, 0.5], [1.0, 7.125]]), np.array([[6144, 4096], [0, 1024]])),
    (np.array(0.75), np.array(6144)),
    (_OFF_GRID, None),
    # one point off the grid sends the whole call to trig_sum
    (np.append(_COARSE_GRID[:9], 0.1), None),
    (np.array(0.1), None),
    (0.3, None),
    (np.array([0.0, np.nan, 0.5]), None),
    (np.array([np.inf, 0.25]), None),
    (np.array(-np.inf), None),
    # x * M overflows to inf, so the point is taken as off the grid
    (np.array([1e306, 0.5]), None),
], ids=["coarse", "coarse-shifted", "2d", "0d", "off-grid", "mixed", "0d-off", "scalar-off",
        "nan", "inf", "0d-minus-inf", "overflow"])
def test_grid_points_gather_the_samples_and_others_take_trig_sum(x, nodes):
    got = _FINE(x)
    expected = (trig_sum(_FINE.modes, _FINE.coefficients, x) if nodes is None
                else _FINE.samples[nodes])
    assert np.shape(got) == np.shape(x) and type(got) is type(expected)
    assert np.array_equal(got, expected, equal_nan=True)


def test_evaluation_on_the_grid_reads_no_coefficients(fft_calls):
    f = PeriodicFunction.from_callable(lambda x: np.cos(2 * np.pi * x), 64)
    assert np.array_equal(f(np.arange(-8, 8) / 16), f.samples[np.arange(-32, 32, 4) % 64])
    assert fft_calls == []


def _modes_and_coefficients():
    # sparse, repeated, negative-only, a single mode, none
    modes = st.one_of(
        st.lists(st.integers(-300, 300), max_size=12),
        st.lists(st.sampled_from([-3, 0, 2, 5]), min_size=2, max_size=12),
        st.lists(st.integers(-300, -1), min_size=1, max_size=12),
        st.integers(-300, 300).map(lambda m: [m]),
        st.just([]),
    )
    coeff = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
    return modes.flatmap(
        lambda k: st.tuples(st.just(k), st.lists(coeff, min_size=len(k), max_size=len(k)))
    )


_POINT = st.floats(-4.0, 4.0)
# a Python scalar, a 0-d array and a 2-d array
_POINTS = st.one_of(
    _POINT,
    _POINT.map(np.array),
    arrays(float, st.tuples(st.integers(1, 4), st.integers(1, 5)), elements=_POINT),
)


@settings(database=None, deadline=None, derandomize=True)
@given(_modes_and_coefficients(), _POINTS)
def test_trig_sum_matches_dense_exponentials(kc, x):
    k, c = np.array(kc[0], dtype=np.int64), np.array(kc[1], dtype=complex)
    dense = np.exp(2j * np.pi * np.multiply.outer(np.asarray(x), k)) @ c
    got = trig_sum(k, c, x)
    assert np.shape(got) == np.shape(x)
    # the dense phases 2 pi k x are rounded at |k x| <= 1200
    assert np.abs(got - dense).max() <= 1e-11 * (1.0 + np.abs(c).sum())


def test_pointwise_operations_run_no_fft(fft_calls):
    f = PeriodicFunction.from_callable(lambda x: np.exp(np.sin(2 * np.pi * x)))
    g = PeriodicFunction(np.arange(16.0))
    h = PeriodicFunction.constant(2.0, 16) + g * g.conjugate() - 3.0 * g
    (-f).sup_norm()
    assert fft_calls == []
    # the coefficients are transformed once, on first read
    c = h.coefficients
    assert h.coefficients is c and h.mean() == c[0]
    assert len(fft_calls) == 1 and not c.flags.writeable


_SAMPLES = st.sampled_from([4, 6, 16, 64]).flatmap(
    lambda m: arrays(complex, m, elements=st.complex_numbers(
        max_magnitude=4.0, allow_nan=False, allow_infinity=False)))
_OPERATION = st.one_of(
    st.sampled_from(["add", "mul", "conjugate", "sup_norm"]),
    st.floats(-3.0, 3.0).map(lambda a: ("shift", a)),
)


@settings(database=None, deadline=None, derandomize=True, max_examples=40)
@given(_SAMPLES, st.lists(_OPERATION, max_size=5))
def test_lazy_coefficients_are_the_fft_of_the_samples(samples, operations):
    f = g = PeriodicFunction(samples)
    for op in operations:
        if op == "add":
            g = g + f
        elif op == "mul":
            g = g * f
        elif op == "conjugate":
            g = g.conjugate()
        elif op == "sup_norm":
            g.sup_norm()
        else:
            g = g.shift(op[1])
    for h in (g, f):
        assert np.array_equal(h.coefficients, np.fft.fft(h.samples) / h.n_samples)


def test_validation():
    with pytest.raises(ValueError):
        PeriodicFunction(np.ones(7))  # odd length
    with pytest.raises(ValueError):
        PeriodicFunction(np.ones((4, 4)))
