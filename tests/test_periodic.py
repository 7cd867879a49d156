import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from nctorus import PeriodicFunction, smooth_step


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
    values = f(f.grid)
    assert np.abs(values - f.samples).max() < 5e-13


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


def test_validation():
    with pytest.raises(ValueError):
        PeriodicFunction(np.ones(7))  # odd length
    with pytest.raises(ValueError):
        PeriodicFunction(np.ones((4, 4)))
