import functools
import logging
import math
import re
import warnings
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad

from nctorus import (
    ONE,
    AlgebraElement,
    PeriodicFunction,
    RealLineFunction,
    asymptotic_mean,
    delta_map,
    dixmier_limit,
    entire_check,
    heat_trace,
    heat_trace_weighted,
    mehler_eigen_sum,
    mehler_kernel,
    mehler_kernel_classical,
    period_mean,
    residue_at_1,
    residue_by_extrapolation,
    rieffel_projection,
    zeta_trace,
)
from nctorus import heatzeta, oscillator, periodic
from nctorus.cli import _registry_function

COS = RealLineFunction.periodic_fn(lambda x: np.cos(2 * np.pi * np.asarray(x)), 1.0)
ONE_PLUS_COS = RealLineFunction.periodic_fn(
    lambda x: 1.0 + np.cos(2 * np.pi * np.asarray(x)), 1.0
)
ARCTAN = RealLineFunction.with_limits(np.arctan, -np.pi / 2, np.pi / 2)


def _real_bump(bump):
    """The real part of a bump coefficient as a weight of its real samples, as
    ``nctorus zeta --f riesz-ramp`` builds it."""
    return RealLineFunction.periodic_fn(PeriodicFunction(bump.samples.real), 1.0)


# ---------------- kernel ----------------


def test_mehler_value_against_eigen_sum():
    value = mehler_kernel(0.5, 0.0, 0.0)
    assert abs(value - 1.0 / np.sqrt(2.0 * np.pi * np.sinh(1.0))) < 1e-12
    oracle = mehler_eigen_sum(0.5, 0.0, 0.0)
    assert abs(value - oracle) < 1e-12


def test_mehler_symmetry(rng):
    for _ in range(10):
        t = float(rng.uniform(0.05, 3.0))
        x, y = rng.uniform(-4, 4, size=2)
        assert abs(mehler_kernel(t, x, y) - mehler_kernel(t, y, x)) < 1e-14


def test_mehler_two_forms_agree():
    xs = np.linspace(-8.0, 8.0, 9)
    for t in (0.01, 0.1, 0.5, 1.0, 5.0):
        for x in xs:
            a = mehler_kernel(t, x, xs)
            b = mehler_kernel_classical(t, x, xs)
            assert np.abs(a - b).max() < 1e-12


def test_eigen_sum_agreement_grid():
    xs = np.linspace(-4.0, 4.0, 9)
    gx, gy = np.meshgrid(xs, xs)
    exact = mehler_kernel(0.2, gx, gy)
    series = mehler_eigen_sum(0.2, gx, gy)
    assert np.abs(exact - series).max() < 1e-8


def test_mehler_eigen_sum_matches_mpmath_at_the_readme_points():
    # the eigen_sum_diag column of the README's heat-kernel example, against
    # its 200 terms at 40 digits, psi_n by the normalized Hermite recurrence
    xs = np.linspace(-4.0, 4.0, 81)
    values = mehler_eigen_sum(0.5, xs, xs)
    with mpmath.workdps(40):
        for x, value in zip(xs, values):
            xm = mpmath.mpf(float(x))
            prev, cur = mpmath.mpf(0), mpmath.pi ** mpmath.mpf(-0.25) * mpmath.exp(-xm * xm / 2)
            exact = mpmath.mpf(0)
            for n in range(200):
                exact += mpmath.exp(-(2 * n + 1) * mpmath.mpf(0.5)) * cur * cur
                prev, cur = cur, (mpmath.sqrt(mpmath.mpf(2) / (n + 1)) * xm * cur
                                  - mpmath.sqrt(mpmath.mpf(n) / (n + 1)) * prev)
            assert abs(value / exact - 1) < 2e-15, x


def test_mehler_eigen_sum_shapes():
    # array in, array out, as for mehler_kernel; only 0-d x and y give a float
    assert type(mehler_eigen_sum(0.5, 0.3, 0.3)) is float
    assert type(mehler_eigen_sum(0.5, np.array(0.3), 0.3)) is float
    xs = np.linspace(-4.0, 4.0, 41)
    for x in (xs[:1], xs):
        out = mehler_eigen_sum(0.5, x, x)
        assert isinstance(out, np.ndarray) and out.shape == x.shape
        assert out == pytest.approx([mehler_eigen_sum(0.5, v, v) for v in x], rel=1e-13)
    assert mehler_eigen_sum(0.5, 0.3, xs).shape == xs.shape


def test_mehler_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        mehler_kernel(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        heat_trace(-1.0)


# ---------------- heat traces ----------------


@pytest.mark.parametrize("t", [0.1, 1.0, 3.0])
def test_heat_trace_closed_form(t):
    assert abs(heat_trace(t) - 1.0 / (2.0 * np.sinh(t))) < 1e-14


def test_heat_trace_scaled_identity_range():
    for t in np.linspace(0.05, 5.0, 12):
        assert abs(heat_trace(t) * 2.0 * np.sinh(t) - 1.0) < 1e-14


@pytest.mark.parametrize("alpha", [0.3, 1.0])
def test_weighted_trace_of_one_closed_form(alpha):
    for t in (0.1, 1.0, 3.0):
        expected = np.exp(-alpha * alpha / (4.0 * np.tanh(t))) / (2.0 * np.sinh(t))
        assert heat_trace_weighted(ONE, alpha, t) == pytest.approx(expected, rel=1e-12)


def test_weighted_trace_small_time_suppression():
    # coth(t) blows up as t -> 0, so any nonzero shift kills the trace
    assert abs(heat_trace_weighted(ONE, 1.0, 0.01)) < 1e-8


def _fourier_heat_trace(modes, coeffs, alpha, t):
    """Weighted trace of sum_k c_k e^{2 pi i k x} by Mehler's formula, in closed form."""
    th = np.tanh(t)
    terms = coeffs * np.exp(1j * np.pi * modes * alpha - np.pi ** 2 * modes ** 2 / th)
    return np.exp(-alpha * alpha / (4.0 * th)) / (2.0 * np.sinh(t)) * terms.sum()


@pytest.mark.parametrize("t", [1e-5, 1e-4, 1e-2, 0.1, 1.0, 3.0])
@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7, 1.0])
@pytest.mark.parametrize("weight", ["cos", "bump"])
def test_weighted_trace_matches_fourier_closed_form(weight, alpha, t, p03):
    if weight == "cos":
        f, modes, coeffs = COS, np.array([-1.0, 1.0]), np.array([0.5, 0.5])
    else:
        bump = p03.coefficient(0)
        f = RealLineFunction.periodic_fn(bump, 1.0)
        modes, coeffs = bump.modes.astype(float), bump.coefficients
    expected = _fourier_heat_trace(modes, coeffs, alpha, t)
    # relative to max(1, |expected|): cos's trace underflows to 0 for small t
    assert heat_trace_weighted(f, alpha, t) == pytest.approx(expected, rel=1e-11, abs=1e-11)


@settings(database=None, deadline=None, derandomize=True, max_examples=25)
@given(arrays(np.float64, st.integers(1, 8), elements=st.floats(1e-4, 3.0)),
       st.sampled_from([0.0, 0.3, 0.7, 1.0]))
def test_weighted_trace_array_matches_scalar_bits(p03, ts, alpha):
    # one call on an array of t gives each scalar call's bits, on the
    # closed-form route of periodic weights and on the rule of ARCTAN
    bump = p03.coefficient(0)
    for f in (ONE, COS, _real_bump(bump), ARCTAN):
        values = heat_trace_weighted(f, alpha, ts)
        scalars = np.array([heat_trace_weighted(f, alpha, t) for t in ts])
        assert values.shape == ts.shape
        assert np.array_equal(values.view(np.uint64), scalars.view(np.uint64))


def _rule_trace(f, alpha, t):
    """heat_trace_weighted by the uniform rule, the route periodic weights took before."""
    th = np.tanh(t)
    scale = np.exp(-alpha * alpha / (4.0 * th)) / (2.0 * np.sinh(t))
    return scale * heatzeta._rule_average(f, np.sqrt(th), alpha / 2.0)


# rule_rel: the error of the uniform rule at t, which the Fourier route beats
@pytest.mark.parametrize("t, rule_rel", [(0.1, 1e-5), (1.0, 1e-10), (3.0, 1e-10)])
def test_weighted_trace_of_wrapped_bump_matches_fourier_closed_form(p03, t, rule_rel):
    # the weight as ``nctorus zeta --f riesz-ramp`` builds it: the real
    # samples of the full 2048-mode bump coefficient
    bump = p03.coefficient(0)
    f = _real_bump(bump)
    m, c = bump.n_samples, bump.coefficients
    real_part = 0.5 * (c + np.conj(c[-np.arange(m) % m]))
    expected = _fourier_heat_trace(bump.modes.astype(float), real_part, 0.7, t)
    assert heat_trace_weighted(f, 0.7, t) == pytest.approx(expected, rel=1e-11)
    assert _rule_trace(f, 0.7, t) == pytest.approx(expected, rel=rule_rel)


@pytest.mark.parametrize("t", [1e-5, 1e-4, 1e-2, 0.1, 1.0])
@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7, 1.0])
def test_periodic_averages_stay_within_the_rule_error(p03, alpha, t):
    # the documented error of the uniform rule on periodic weights: 3e-10
    # absolute for cos 2 pi x and 2.1e-6 relative for the bump (2.13e-6 at
    # alpha 0.7, t 0.1, its largest; 1.95e-6 at t 1e-4)
    assert abs(heat_trace_weighted(COS, alpha, t) - _rule_trace(COS, alpha, t)) < 3e-10
    f = _real_bump(p03.coefficient(0))
    assert heat_trace_weighted(f, alpha, t) == pytest.approx(_rule_trace(f, alpha, t),
                                                             rel=2.2e-6)


def test_gaussian_average_takes_an_array_of_widths(p03):
    u = np.array([0.05, 0.3, 1.0])
    bump = p03.coefficient(0)
    for f in (COS, RealLineFunction.periodic_fn(bump, 1.0), ARCTAN):
        together = heatzeta._gaussian_average(f, u, 0.35)
        apart = [heatzeta._gaussian_average(f, v, 0.35) for v in u]
        assert np.array_equal(together, apart)


def test_periodic_weight_is_evaluated_once():
    points = []

    def func(x):
        points.append(np.size(x))
        return 1.0 + np.cos(2 * np.pi * np.asarray(x))

    f = RealLineFunction.periodic_fn(func, 1.0)
    period_mean(f)
    zeta_trace(f, 0.0, 1.5)
    heat_trace_weighted(f, 0.3, 0.5)
    dixmier_limit(f)
    zeta_trace(f, 0.5, 1.5)
    samples = f.samples
    assert points == [heatzeta.DEFAULT_SAMPLES]
    assert period_mean(f) == 1.0 and not samples.samples.imag.any()
    assert samples.sup_norm() == 2.0 and not samples.coefficients.flags.writeable
    assert f.samples is samples and points == [heatzeta.DEFAULT_SAMPLES]


def _period_mean_of_a_fresh_weight(k):
    """The period mean of a new weight around a new function object, and a weak reference to it."""
    def func(x):
        return np.cos(2 * np.pi * k * np.asarray(x))

    period_mean(RealLineFunction.periodic_fn(func, 1.0))
    return weakref.ref(func)


def test_period_mean_keeps_no_weight_alive():
    # the samples and the mean live on the weight, not in a module cache
    # keyed on it, so nothing holds a weight once its caller drops it
    refs = [_period_mean_of_a_fresh_weight(k) for k in range(100)]
    assert [ref for ref in refs if ref() is not None] == []


def _zeta_traces_of_fresh_weights(k):
    """Zeta values of a new periodic and a new limit-type weight, and weak references
    to their function objects."""
    def cosine(x):
        return 1.0 + np.cos(2 * np.pi * k * np.asarray(x))

    def step(x):
        return np.tanh(k * np.asarray(x))

    zeta_trace(RealLineFunction.periodic_fn(cosine, 1.0), 0.0, 1.5)
    zeta_trace(RealLineFunction.with_limits(step, -1.0, 1.0), 0.0, 1.5, n_modes=50)
    return weakref.ref(cosine), weakref.ref(step)


def test_zeta_traces_keep_no_weight_alive():
    # the Mellin traces live on the weight, not in a module cache keyed on it
    refs = [ref for k in range(1, 11) for ref in _zeta_traces_of_fresh_weights(k)]
    assert [ref for ref in refs if ref() is not None] == []


def test_weight_of_samples_is_never_point_evaluated(p03, monkeypatch):
    # a PeriodicFunction weight of period 1 is its own samples: its mean,
    # traces, zeta values and Dixmier limit read its coefficients only
    calls = []
    trig_sum = periodic.trig_sum
    monkeypatch.setattr(periodic, "trig_sum", lambda *args: calls.append(1) or trig_sum(*args))
    bump = p03.coefficient(0)
    for f in (RealLineFunction.periodic_fn(bump, 1.0), _real_bump(bump)):
        period_mean(f)
        zeta_trace(f, 0.0, 1.5)
        zeta_trace(f, 0.7, 1.5)
        heat_trace_weighted(f, 0.3, np.array([0.5, 1.0]))
        dixmier_limit(f)
    assert calls == []
    assert RealLineFunction.periodic_fn(bump, 1.0).samples is bump
    # a callable that evaluates the bump lands on its nodes: a gather
    wrapped = RealLineFunction.periodic_fn(lambda x: bump(x).real, 1.0)
    assert np.array_equal(wrapped.samples.samples, bump.samples.real)
    assert calls == []
    # the spy is live: off the grid the bump is a trigonometric sum
    bump(0.1)
    assert calls == [1]


def test_constant_callable_weight_is_broadcast_to_its_samples():
    # a periodic callable that returns a scalar is sampled as from_callable
    # samples it, broadcast to the points
    f = RealLineFunction.periodic_fn(lambda x: 2.0, 1.0)
    assert np.array_equal(f.samples.samples, np.full(heatzeta.DEFAULT_SAMPLES, 2.0 + 0j))
    value = zeta_trace(f, 0.0, 1.5).value
    assert value == 2 * zeta_trace(ONE, 0.0, 1.5).value
    # the odd zeta sum_n (2n + 1)^{-s} = (1 - 2^{-s}) zeta(s)
    odd = (1 - mpmath.mpf(2) ** -1.5) * mpmath.zeta(1.5)
    assert abs(value - 2 * float(odd)) <= 1e-14


def _bits(z):
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("func", [
    lambda x: 1.0 + np.cos(2 * np.pi * x) + 0.1 * np.sin(6 * np.pi * x),
    lambda x: 0.3 + np.exp(2j * np.pi * x) - 0.2j * np.cos(4 * np.pi * x),
    # every imaginary part is -0.0: fsum of them is +0.0
    lambda x: np.full(x.shape, complex(0.7, -0.0)) * (1.0 + np.cos(2 * np.pi * x)),
], ids=["real", "complex", "negative-zero-imag"])
def test_fourier_record_mean_is_the_exact_fsum(func):
    x = np.arange(heatzeta.DEFAULT_SAMPLES) / heatzeta.DEFAULT_SAMPLES
    vals = np.asarray(func(x), dtype=complex)
    expected = complex(math.fsum(vals.real), math.fsum(vals.imag)) / heatzeta.DEFAULT_SAMPLES
    f = RealLineFunction.periodic_fn(func, 1.0)
    assert _bits(period_mean(f)) == _bits(expected)
    # the Gaussian average of a weight with real samples is real
    real = np.isrealobj(heatzeta._gaussian_average(f, np.array([0.5])))
    assert real == (not vals.imag.any())


# ---------------- zeta values ----------------


def test_zeta_at_two_is_odd_series():
    ev = zeta_trace(ONE, 0.0, 2.0, n_modes=300)
    assert ev.method == "heat_mellin"
    assert abs(ev.value - np.pi ** 2 / 8.0) < 1e-8


# ---------------- closed-form diagonals of periodic weights ----------------


def _fine_diagonals(coefficient, n_modes):
    """Diagonals of Re coefficient by a uniform rule of spacing 1/4096.

    The trigonometric interpolant is evaluated on one period by a zero-padded
    FFT (Nyquist mode split evenly, which keeps the real part) and tiled
    over [-L, L], L = sqrt(2 n_modes + 3) + 6; the Hermite rows are
    streamed.  Independent of the Laguerre closed form.
    """
    m, fine = coefficient.n_samples, 4096
    c = coefficient.coefficients
    padded = np.zeros(fine, dtype=complex)
    padded[:m // 2] = c[:m // 2]
    padded[-(m // 2) + 1:] = c[m // 2 + 1:]
    padded[m // 2] = padded[-(m // 2)] = c[m // 2] / 2.0
    period = np.fft.ifft(padded * fine).real
    half = int(np.ceil((np.sqrt(2.0 * n_modes + 3.0) + 6.0) * fine))
    j = np.arange(-half, half + 1)
    weighted = period[j % fine] / fine
    out = np.empty(n_modes)
    it = oscillator._hermite_iter(j / fine)
    with np.errstate(under="ignore"):
        for n in range(n_modes):
            row = next(it)
            out[n] = (weighted * row * row).sum()
    return out


def test_algebra_diagonals_of_the_bump_coefficient_match_fine_quadrature():
    # periodic weights have no spectral diagonals; the Laguerre closed form
    # of algebra elements' diagonals against a fine quadrature
    bump = rieffel_projection(0.3).coefficient(0)
    d = oscillator.algebra_diagonals(AlgebraElement(0.3, {0: bump}), 600).real
    assert np.abs(d - _fine_diagonals(bump, 600)).max() < 1e-10


def test_zeta_of_one_is_the_odd_zeta_to_the_bit():
    # the unit weight's zeta values are the odd zeta to the bit on the
    # Mellin route
    for s in (2.0, 1.5, 0.5, -1.0, 1.2 + 3j):
        ev = zeta_trace(ONE, 0.0, s)
        assert ev.value == heatzeta._odd_zeta(complex(s)) and ev.error_estimate == 0.0


def _mehler_mellin_reference(coeffs, s, period=1.0):
    """Tr(f H^-s) of f = sum_k c_k e^{2 pi i k x / P}, coeffs = {k: c_k}, 30 digits.

    By Mehler's formula the heat trace of f is
    sum_k c_k e^{-(pi k / P)^2 coth t} / (2 sinh t), so the value is
    c_0 (1 - 2^-s) zeta(s) plus 1/Gamma(s) times the Mellin integral of the
    other modes' trace, by ``mpmath.quad``.
    """
    with mpmath.workdps(30):
        s, period = mpmath.mpmathify(s), mpmath.mpf(period)
        rest = {}
        for k, c in coeffs.items():
            if k:
                xi2 = (mpmath.pi * k / period) ** 2
                rest[xi2] = rest.get(xi2, 0) + mpmath.mpmathify(c)

        def integrand(t):
            ct = mpmath.coth(t)
            modes = mpmath.fsum(c * mpmath.exp(-xi2 * ct) for xi2, c in rest.items())
            return t ** (s - 1) * modes / (2 * mpmath.sinh(t))

        a = (mpmath.pi / period) ** 2
        breaks = sorted({mpmath.mpf(0), a / 16, a / 4, a, mpmath.mpf(1), mpmath.mpf(4),
                         mpmath.mpf(16), mpmath.mpf(64)}) + [mpmath.inf]
        value = mpmath.quad(integrand, breaks) * mpmath.rgamma(s) if rest else 0
        if coeffs.get(0, 0):
            value += coeffs[0] * (1 - 2 ** (-s)) * mpmath.zeta(s)
        return complex(value)


@functools.lru_cache(maxsize=None)
def _laguerre_diagonals(k, n_modes=2000):
    """e^{-y/2} L_n(y), y = 2 pi^2 k^2, n < n_modes, 40 digits: diagonals of e^{2 pi i k x}."""
    with mpmath.workdps(40):
        y = 2 * mpmath.pi ** 2 * k * k
        prev, cur, rows = mpmath.mpf(0), mpmath.exp(-y / 2), []
        for n in range(n_modes):
            rows.append(cur)
            prev, cur = cur, ((2 * n + 1 - y) * cur - n * prev) / (n + 1)
        return rows


def _laguerre_references(coeffs, s_values, n_modes=2000):
    """The n_modes-mode eigen-sum of sum_k c_k e^{2 pi i k x} with its mean tail, 40 digits.

    At each s, c_0 (1 - 2^-s) zeta(s) + sum_{n < n_modes} d_n (2n+1)^-s,
    with the exact diagonals d_n of the modes k != 0: the sum the retired
    eigen-sum route approximated.
    """
    with mpmath.workdps(40):
        d = [mpmath.fsum(mpmath.mpmathify(c) * _laguerre_diagonals(abs(k), n_modes)[n]
                         for k, c in coeffs.items() if k)
             for n in range(n_modes)]
        out = []
        for s in map(mpmath.mpmathify, s_values):
            total = mpmath.fdot(d, [(2 * n + 1) ** (-s) for n in range(n_modes)])
            out.append(complex(total + coeffs.get(0, 0) * (1 - 2 ** (-s)) * mpmath.zeta(s)))
        return out


@pytest.mark.parametrize("alpha", [0.0])
def test_zeta_of_a_period_two_pi_weight_matches_mpmath(alpha):
    # 1 + cos x, period 2 pi, on the Mellin route (47 nodes)
    f = RealLineFunction.periodic_fn(lambda x: 1.0 + np.cos(np.asarray(x)), 2 * np.pi)
    for s in (1.5, 1.01, 0.5, -0.5, 0.5 + 3j):
        ev = zeta_trace(f, alpha, s)
        assert ev.method == "heat_mellin"
        expected = _mehler_mellin_reference({0: 1.0, -1: 0.5, 1: 0.5}, s, 2 * np.pi)
        assert abs(ev.value - expected) <= 1e-14 * abs(expected)


def test_zeta_goldens_match_mpmath_reference():
    # the values of tests/golden/zeta_one.*, zeta_fourier.* and zeta_cos.*
    assert zeta_trace(ONE, 0.0, 2.0).value == pytest.approx(np.pi ** 2 / 8.0, rel=1e-14)
    one_plus_cos = {0: 1.0, -1: 0.5, 1: 0.5}
    # the error estimates the eigen-sum route printed in the old zeta_fourier golden
    s_values, eigen_sum_errors = (1.1, 1.01), (0.0576, 1.21)
    for s, eigen_sum_error, eigen_sum in zip(s_values, eigen_sum_errors,
                                             _laguerre_references(one_plus_cos, s_values)):
        ev = zeta_trace(ONE_PLUS_COS, 0.0, s)
        assert ev.value.imag == 0.0 and ev.residue_at_1 == 0.5
        expected = _mehler_mellin_reference(one_plus_cos, s)
        assert ev.value.real == pytest.approx(expected.real, rel=1e-14)
        assert abs(ev.value - eigen_sum) < eigen_sum_error
    for s in (-0.5, 0.5):
        ev = zeta_trace(COS, 0.0, s)
        expected = _mehler_mellin_reference({-1: 0.5, 1: 0.5}, s)
        assert ev.value.real == pytest.approx(expected.real, rel=1e-14)
        assert ev.value.imag == 0.0


# the error estimates of the retired on-diagonal eigen-sum of each weight at
# s = 1.001, 1.5, 2 and 1.2 + 3i (rounded down), which bound its distance
# from the exact 2000-mode sum
EIGEN_SUM_ERRORS = {
    "one": (2.47e-4, 3.95e-6, 6.25e-8, 4.76e-5),
    "1+cos": (13.0, 4.21e-4, 3.36e-6, 8.84e-4),
    "bump": (2.81, 9.10e-5, 7.29e-7, 1.94e-4),
}


@pytest.mark.parametrize("name", sorted(EIGEN_SUM_ERRORS))
def test_mellin_values_match_mpmath_and_the_eigen_sum(p03, name):
    # the Mellin route's values against a 30-digit quadrature of the Mehler
    # closed form; the 40-digit 2000-mode eigen-sum stays within the error
    # estimates the retired eigen-sum route printed
    # the bump is the weight of ``nctorus zeta --f riesz-ramp --hbar 0.3``,
    # whose values at s = 1.5 and 2 tests/golden/zeta_riesz_ramp.* pin
    f = {"one": ONE, "1+cos": ONE_PLUS_COS,
         "bump": _registry_function("riesz-ramp", 0.3, 2048)}[name]
    if name == "bump":
        # the modes |k| <= 8 of its samples: the ones its Gaussian averages
        # keep at P = 1
        c = f.samples.coefficients
        coeffs = {k: complex(c[k]) for k in range(-8, 9)}
    else:
        coeffs = {"one": {0: 1.0}, "1+cos": {0: 1.0, -1: 0.5, 1: 0.5}}[name]
    s_values = (1.001, 1.5, 2.0, 1.2 + 3j)
    for s, eigen_sum_error, eigen_sum in zip(s_values, EIGEN_SUM_ERRORS[name],
                                             _laguerre_references(coeffs, s_values)):
        ev = zeta_trace(f, 0.0, s)
        expected = _mehler_mellin_reference(coeffs, s)
        assert abs(ev.value - expected) <= 1e-14 * abs(expected), s
        assert abs(ev.value - eigen_sum) < eigen_sum_error, s
        assert ev.residue_at_1 == {"one": 0.5, "1+cos": 0.5, "bump": 0.15}[name]
    r = residue_by_extrapolation(f)
    assert abs(r - ev.residue_at_1) < 1e-7 and r.imag == 0.0


@pytest.mark.parametrize("s", [0.0, -1.0, -2.0])
def test_zeta_at_gamma_poles(s):
    # 1/Gamma is entire and vanishes here: off the diagonal the zeta
    # function is 0, on it only the mean's odd zeta is left
    for f in (ONE, ONE_PLUS_COS):
        ev = zeta_trace(f, 0.5, s)
        assert ev.value == 0.0 and ev.error_estimate == 0.0
        assert zeta_trace(f, 0.0, s).value == heatzeta._odd_zeta(complex(s))
    assert zeta_trace(ONE, 0.0, -1).value == 1.0 / 12.0


def test_zeta_residue_extrapolation_constant():
    res = residue_by_extrapolation(ONE)
    assert abs(res - 0.5) < 1e-4


def test_periodic_residue_takes_one_weighted_trace(monkeypatch):
    # the three Mellin values share one trace on the 29 on-diagonal nodes
    calls = []

    def counted(f, alpha, t):
        calls.append(np.size(t))
        return heat_trace_weighted(f, alpha, t)

    monkeypatch.setattr(heatzeta, "heat_trace_weighted", counted)
    f = RealLineFunction.periodic_fn(lambda x: 1.0 + np.cos(2 * np.pi * x), 1.0)
    assert abs(residue_by_extrapolation(f) - 0.5) < 1e-7
    assert calls == [29]


def _counted_weight(points):
    """(1 + tanh x)/2 + sech x with limits 0 and 1, appending the size of each
    argument it is called on to points."""
    def func(x):
        points.append(np.size(x))
        return (1.0 + np.tanh(x)) / 2.0 + 1.0 / np.cosh(x)

    return RealLineFunction.with_limits(func, 0.0, 1.0)


# the window's x-rule at 2000 modes: 16-point panels over [0, X] and their mirror images
WINDOW_POINTS = 2 * 16 * math.ceil(math.sqrt(4003.0) + 6.0)


def test_limit_residue_reads_zeta_trace_on_one_window_trace():
    # residue_by_extrapolation takes its three values from zeta_trace for
    # every weight: a limit-type weight's are Mellin integrals of one
    # window trace, one pass of the weight over the x-rule
    points = []
    f = _counted_weight(points)
    residue = residue_by_extrapolation(f)
    assert points == [WINDOW_POINTS]
    hs = np.array([0.1, 0.01, 0.001])
    assert residue == heatzeta._intercept(
        hs, [h * zeta_trace(f, 0.0, 1.0 + h).value for h in hs])
    assert points == [WINDOW_POINTS]
    # the pole at 1/2 of int sech = pi bends the quadratic only slightly
    assert abs(residue - 0.25) < 1e-5


def test_zeta_residue_of_limit_weight_is_half_its_asymptotic_mean():
    f = RealLineFunction.with_limits(lambda x: (1.0 + np.tanh(x)) / 2.0, 0.0, 1.0)
    ev = zeta_trace(f, 0.0, 1.5)
    assert ev.residue_at_1 == 0.25
    assert abs(ev.residue_at_1 - residue_by_extrapolation(f)) < 1e-6


def test_zeta_mean_zero_weight_has_no_pole():
    ev = zeta_trace(COS, 0.0, 1.001, n_modes=800)
    assert abs((1.001 - 1.0) * ev.value) < 1e-3


def test_zeta_of_a_mean_zero_weight_is_finite_at_one():
    # the fsum mean of cos's samples is -1.9e-17, rounding of the samples,
    # so there is no pole: the value at s = 1 lies on the smooth curve
    # through its neighbours, off their midpoint by the curvature term only
    mean = period_mean(COS)
    assert mean != 0.0 and abs(mean) <= np.finfo(float).eps * COS.samples.sup_norm()
    below, at, above = (zeta_trace(COS, 0.0, s).value for s in (0.999, 1.0, 1.001))
    assert below.real < at.real < above.real
    assert abs(at - 0.5 * (below + above)) < 1e-6 * abs(at)
    assert zeta_trace(COS, 0.0, 1.0).residue_at_1 == residue_at_1(COS)


def _pole_at_one(residue):
    """The whole message of the pole at s = 1, as a pattern."""
    message = f"the zeta function has a pole at s = 1, with residue mu/2 = {residue}"
    return f"^{re.escape(message)}$"


@pytest.mark.parametrize("f, residue", [(ONE, "0.5"), (ONE_PLUS_COS, "0.5")])
def test_zeta_pole_at_one_raises_with_its_residue(f, residue):
    with pytest.raises(ValueError, match=_pole_at_one(residue)):
        zeta_trace(f, 0.0, 1.0)


@pytest.mark.parametrize("f, residue", [
    (RealLineFunction.with_limits(lambda x: (1.0 + np.tanh(x)) / 2.0, 0.0, 1.0), "0.25"),
    (ONE, "0.5"),
    (ONE_PLUS_COS, "0.5"),
], ids=["tanh_step", "one", "one_plus_cos"])
def test_limit_weight_zeta_at_one_raises_with_its_residue(f, residue, monkeypatch):
    # the odd zeta of the mean mu has its pole at s = 1: for every weight
    # kind the error names mu/2 before any Mellin trace or odd zeta is
    # computed (arctan, mu = 0, has a value there:
    # test_limit_and_generic_zeta_values_match_mpmath)
    monkeypatch.setattr(heatzeta, "_mellin_trace", None)
    monkeypatch.setattr(heatzeta, "_odd_zeta", None)
    with pytest.raises(ValueError, match=_pole_at_one(residue)):
        zeta_trace(f, 0.0, 1.0)


def test_limit_weight_zeta_values_share_one_mellin_trace():
    # the trace record of the last window is kept on the weight: the values
    # at three s take one pass of the weight and keep the bits of a fresh
    # weight's record; n_modes sets the window, X = sqrt(2 n_modes + 3) + 6
    points = []
    f = _counted_weight(points)
    s_values = (0.75, 1.5, 2.0)
    values = [zeta_trace(f, 0.0, s, n_modes=400).value for s in s_values]
    assert points == [2 * 16 * math.ceil(math.sqrt(803.0) + 6.0)]
    expected = [zeta_trace(_counted_weight([]), 0.0, s, n_modes=400).value for s in s_values]
    assert [_bits(v) for v in values] == [_bits(v) for v in expected]
    v, traces, *_ = heatzeta._mellin_trace(f, 0.0, 0.5, math.sqrt(803.0) + 6.0)
    assert not v.flags.writeable and not traces.flags.writeable
    assert points == [2 * 16 * math.ceil(math.sqrt(803.0) + 6.0)]
    # another window is another trace
    zeta_trace(f, 0.0, 1.5)
    assert points[1:] == [WINDOW_POINTS]


@functools.lru_cache(maxsize=None)
def _sech_remainder(t):
    """int sech(x) K_t(x, x) dx - c e^{-t} / sqrt(t), c = int sech / sqrt(4 pi), at one t.

    K_t(x, x) = e^{-tanh(t) x^2} / sqrt(2 pi sinh 2t) is the Mehler
    diagonal; the x-integral is one ``mpmath.quad`` over the whole line.
    """
    inner = 2 * mpmath.quad(lambda x: mpmath.sech(x) * mpmath.exp(-mpmath.tanh(t) * x * x),
                            [0, mpmath.inf])
    c = mpmath.pi / mpmath.sqrt(4 * mpmath.pi)
    kernel_norm = mpmath.sqrt(2 * mpmath.pi * mpmath.sinh(2 * t))
    return inner / kernel_norm - c * mpmath.exp(-t) / mpmath.sqrt(t)


@functools.lru_cache(maxsize=None)
def _sech_zeta_reference(mu, s):
    """Tr(f H^-s) for a weight of even part mu + sech x, 20 digits.

    The heat trace is mu/(2 sinh t) + int sech(x) K_t(x, x) dx.  Both
    singular parts are subtracted and transformed in closed form: the
    mean's, mu (1 - 2^-s) zeta(s), and c t^{-1/2} e^{-t}'s,
    c Gamma(s - 1/2)/Gamma(s) with c = int sech / sqrt(4 pi); the rest, a
    nested ``mpmath.quad`` (``_sech_remainder``), is O(t^{1/2}) at t -> 0.
    """
    with mpmath.workdps(20):
        s = mpmath.mpmathify(s)
        rest = mpmath.quad(lambda t: t ** (s - 1) * _sech_remainder(t), [0, 1, mpmath.inf])
        c = mpmath.pi / mpmath.sqrt(4 * mpmath.pi)
        value = (rest + c * mpmath.gamma(s - 0.5)) * mpmath.rgamma(s)
        if mu:
            value += mu * (1 - 2 ** (-s)) * mpmath.zeta(s)
        return complex(value)


@pytest.mark.parametrize("kind, s", [
    ("has_limits", 1.5), ("has_limits", 0.75), ("has_limits", 0.6), ("has_limits", 0.52),
    ("has_limits", 0.8 + 2j), ("generic", 1.5), ("generic", 1.1),
    ("arctan", 0.6), ("arctan", 1.0), ("arctan", 1.5),
])
def test_limit_and_generic_zeta_values_match_mpmath(kind, s):
    # (1 + tanh x)/2 + sech x, with limits 0 and 1, has mu = 1/2 and
    # g = sech x; the generic sech x has mu = 0 and the same g; arctan is
    # odd, so its even part, and its zeta function, is 0
    if kind == "arctan":
        ev = zeta_trace(ARCTAN, 0.0, s)
        assert ev.value == 0.0 and ev.residue_at_1 == 0.0
        return
    if kind == "generic":
        f, mu = RealLineFunction.generic(lambda x: 1.0 / np.cosh(x)), 0.0
    else:
        f, mu = _counted_weight([]), 0.5
    ev = zeta_trace(f, 0.0, s)
    expected = _sech_zeta_reference(mu, s)
    error = abs(ev.value - expected)
    assert ev.method == "heat_mellin"
    assert error <= 1e-9 * abs(expected)
    assert ev.error_estimate >= error
    assert ev.residue_at_1 == (0.25 if kind == "has_limits" else None)


def test_limit_weight_zeta_poles_and_domain():
    # int g = int sech = pi: the pole at 1/2 has residue pi / 2 pi = 0.5
    f = _counted_weight([])
    with pytest.raises(ValueError, match=r"pole at s = 1/2, with residue .* = 0\.5$"):
        zeta_trace(f, 0.0, 0.5)
    for s in (-0.5, -1.0 + 2j):
        with pytest.raises(ValueError, match=r"continued to Re\(s\) > -0.5 only"):
            zeta_trace(f, 0.0, s)
    # left of 0 the head below t = e^{-80} is in the value, and only its
    # model's error in the estimate (test_limit_weight_zeta_head_matches_series_reference)
    ev = zeta_trace(f, 0.0, -0.25)
    assert np.isfinite(ev.value) and ev.error_estimate < 1e-8


@functools.lru_cache(maxsize=None)
def _sech_rest(u):
    """int sech(x) K_t(x, x) dx - c e^{-t} / sqrt(t) at t = e^u, c = int sech / sqrt(4 pi).

    As ``_sech_remainder``, in the caller's precision, with the x-integral
    on Gauss-Legendre panels up to x = 110, where sech is below 1e-47.
    """
    t = mpmath.exp(u)
    inner = 2 * mpmath.quad(lambda x: mpmath.sech(x) * mpmath.exp(-mpmath.tanh(t) * x * x),
                            [0, 4, 16, 64, 110], method="gauss-legendre")
    c = mpmath.pi / mpmath.sqrt(4 * mpmath.pi)
    kernel_norm = mpmath.sqrt(2 * mpmath.pi * mpmath.sinh(2 * t))
    return inner / kernel_norm - c * mpmath.exp(-t) / mpmath.sqrt(t)


def _sech_head_reference(s, t0):
    """Tr(f H^-s) for (1 + tanh x)/2 + sech x at -1/2 < s < 0, 40 digits.

    As ``_sech_zeta_reference``, but the rest is integrated in u = log t from
    t0 to 120 on 16-point Gauss-Legendre panels, and below t0 it is its
    series head C_1 t^{1/2} + C_2 t^{3/2}, which integrates to
    C_1 t0^{s+1/2}/(s+1/2) + C_2 t0^{s+3/2}/(s+3/2).  With
    int x^{2k} sech = 2 (pi/2)^{2k+1} |E_2k|, C_1 = (pi - pi^3/4)/sqrt(4 pi)
    and C_2 = (5 pi^5/32 - 5 pi/6)/sqrt(4 pi).  (C_1 alone is 6e-14 off at
    s = -0.45 and t0 = 1e-12.)
    """
    with mpmath.workdps(40):
        s, t0 = mpmath.mpf(s), mpmath.mpf(t0)
        pi, root = mpmath.pi, mpmath.sqrt(4 * mpmath.pi)
        c, c1, c2 = pi / root, (pi - pi ** 3 / 4) / root, (5 * pi ** 5 / 32 - 5 * pi / 6) / root
        edges = [mpmath.log(t0), -20, -12, -6, -2, 0, 1, 2, 3, mpmath.log(120)]
        nodes, weights = mpmath.gauss_quadrature(16, "legendre")
        rest = mpmath.fsum((b - a) / 2 * w * mpmath.exp(s * u) * _sech_rest(u)
                           for a, b in zip(edges, edges[1:]) for x, w in zip(nodes, weights)
                           for u in [a + (b - a) * (1 + x) / 2])
        head = c1 * t0 ** (s + 0.5) / (s + 0.5) + c2 * t0 ** (s + 1.5) / (s + 1.5)
        value = (rest + head + c * mpmath.gamma(s - 0.5)) * mpmath.rgamma(s)
        return value + 0.5 * (1 - 2 ** (-s)) * mpmath.zeta(s)


@pytest.mark.parametrize("s", [-0.25, -0.45])
def test_limit_weight_zeta_head_matches_series_reference(s):
    # below t = e^{-80} the rest is C t^{1/2}: its geometric tail is in the
    # value (without it the value is 2.1e-9 and 0.13 off) and the estimate
    # still covers the error
    expected = _sech_head_reference(s, "1e-12")
    assert abs(_sech_head_reference(s, "1e-14") - expected) <= 1e-18 * abs(expected)
    ev = zeta_trace(_counted_weight([]), 0.0, s)
    error = abs(ev.value - complex(expected))
    assert error <= 1e-12 * abs(expected)
    assert ev.error_estimate >= error


@pytest.mark.parametrize("alpha", [1e-160, -1e-160, 1e-200, 5e-324])
def test_tiny_shifts_raise_naming_the_smallest_alpha(alpha, p03):
    # the Mellin nodes start at t = alpha^2/160, a normal double only for
    # |alpha| >= sqrt(160 tiny): below, a clear error, never NaN or a math
    # domain error
    message = rf"^alpha = {alpha:g} is too small: .* only for \|alpha\| >= 1\.887e-153$"
    for f in (ONE, _counted_weight([]), _real_bump(p03.coefficient(0))):
        with pytest.raises(ValueError, match=message):
            zeta_trace(f, alpha, 1.5)
    with pytest.raises(ValueError, match=message):
        entire_check(ONE, alpha)


def test_shift_of_1e_150_keeps_its_bits():
    # 1e-150 and 1.887e-153 are above the smallest shift, and their values
    # keep their bits, with no warning: at 1.887e-153 the Gaussian factors'
    # exponents square to inf, and e^{-inf} = 0.  Left of 0 the value
    # overflows, and the Mellin sum names it instead of NaN, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (1e-150, 1.887e-153):
            assert _bits(zeta_trace(ONE, alpha, 1.5).value) == _bits(1.6887611866554482 + 0j)
        for s in (-0.25, -0.5):
            message = (rf"^the Mellin sum at alpha = 1e-150, s = {s:g} is \(inf\+nanj\), "
                       "not a finite double")
            with pytest.raises(ValueError, match=message):
                zeta_trace(ONE, 1e-150, s)


def test_window_trace_is_logged(caplog):
    caplog.set_level(logging.DEBUG, logger="nctorus.heatzeta")
    f = _counted_weight([])
    for s in (1.5, 2.0):
        zeta_trace(f, 0.0, s)
    (record,) = [r for r in caplog.records if r.name == "nctorus.heatzeta"]
    fields = dict(re.findall(r"(\w+)=(\S+)", record.getMessage()))
    assert record.getMessage().startswith("window_trace: has_limits weight")
    assert float(fields["mu"]) == 0.5
    assert abs(float(fields["c"]) - math.sqrt(math.pi) / 2.0) < 1e-12
    assert float(fields["X"]) == pytest.approx(math.sqrt(4003.0) + 6.0, rel=1e-4)
    assert int(fields["x_nodes"]) == WINDOW_POINTS and int(fields["t_nodes"]) == 422
    # the trace at t = e^{-80} is C e^{-40}; sech at the edge rounds g to 0
    assert 0.0 < float(fields["head_trace"]) < 1e-16
    assert float(fields["edge_g"]) == 0.0


def _mellin_one_reference(alpha, s):
    """Tr(T_alpha H^-s) from the closed-form heat trace, 30-digit mpmath quadrature."""
    with mpmath.workdps(30):
        a, s = mpmath.mpf(alpha), mpmath.mpf(s)

        def integrand(t):
            return t ** (s - 1) * mpmath.exp(-a * a * mpmath.coth(t) / 4) / (2 * mpmath.sinh(t))

        breaks = [0, a * a / 16, a * a, 1, 4, 16, 64, mpmath.inf]
        return float(mpmath.quad(integrand, breaks) / mpmath.gamma(s))


@pytest.mark.parametrize("alpha, s", [(0.05, 1.1), (0.05, 3.0), (0.3, 1.01), (1.0, 1.5),
                                      (3.0, 2.0)])
def test_mellin_matches_mpmath_reference(alpha, s):
    ev = zeta_trace(ONE, alpha, s)
    assert ev.method == "heat_mellin"
    assert ev.value == pytest.approx(_mellin_one_reference(alpha, s), rel=1e-13)
    assert ev.error_estimate < 1e-6


def test_mellin_heat_trace_calls(monkeypatch):
    # one weighted-trace call on all the nodes: 36-77 for alpha in [0.05, 3]
    calls = []

    def counted(f, alpha, t):
        calls.append(np.size(t))
        return heat_trace_weighted(f, alpha, t)

    monkeypatch.setattr(heatzeta, "heat_trace_weighted", counted)
    # a kept (weight, alpha) would take no trace call at all
    monkeypatch.setattr(ONE, "_traces", None)
    for alpha in (0.05, 0.7, 3.0):
        calls.clear()
        zeta_trace(ONE, alpha, 1.5)
        assert len(calls) == 1
        assert 36 <= calls[0] <= 77


def test_zeta_error_paths():
    generic = RealLineFunction.generic(lambda x: np.cos(np.asarray(x)))
    with pytest.raises(ValueError):
        zeta_trace(generic, 0.0, 0.5, n_modes=100)
    with pytest.raises(ValueError):
        zeta_trace(ONE, 0.0, 0.9, method="heat_mellin")
    # 'heat_mellin' names the off-diagonal class only, right of the pole too
    with pytest.raises(ValueError):
        zeta_trace(ONE, 0.0, 1.5, method="heat_mellin")
    # and 'eigen_sum_tail' names the on-diagonal class only
    with pytest.raises(ValueError, match="on-diagonal only"):
        zeta_trace(ONE, 1.0, 1.5, method="eigen_sum_tail")
    with pytest.raises(ValueError, match="unknown method"):
        zeta_trace(ONE, 1.0, 1.5, method="mellin")


# ---------------- residues ----------------


def test_residue_constant():
    assert abs(residue_at_1(ONE) - 0.5) < 1e-12


def test_residue_mean_zero():
    sin_fn = RealLineFunction.periodic_fn(lambda x: np.sin(2 * np.pi * np.asarray(x)), 1.0)
    assert abs(residue_at_1(sin_fn)) < 1e-12


def test_residue_half_period():
    f = RealLineFunction.periodic_fn(
        lambda x: 2.0 + np.cos(4.0 * np.pi * np.asarray(x)), 0.5
    )
    oracle = quad(lambda x: 2.0 + np.cos(4.0 * np.pi * x), 0.0, 0.5)[0] / (2.0 * 0.5)
    assert abs(residue_at_1(f) - oracle) < 1e-10
    assert abs(oracle - 1.0) < 1e-12


@pytest.mark.parametrize("hbar", [0.02, 0.005])
def test_period_mean_of_narrow_bump_is_its_zeroth_coefficient(hbar):
    bump = rieffel_projection(hbar).coefficient(0)
    f = RealLineFunction.periodic_fn(bump, 1.0)
    assert abs(period_mean(f) - bump.mean()) < 1e-15


def test_residue_raises_only_for_generic_weights():
    with pytest.raises(ValueError):
        residue_at_1(RealLineFunction.generic(np.arctan))
    assert residue_at_1(ARCTAN) == 0.0
    step = RealLineFunction.with_limits(lambda x: (1.0 + np.tanh(x)) / 2.0, 0.0, 1.0)
    assert residue_at_1(step) == zeta_trace(step, 0.0, 1.5, n_modes=50).residue_at_1 == 0.25


@pytest.mark.parametrize("bad", [0, -3])
def test_bad_mode_count_or_length_raises(bad):
    for call in (lambda: oscillator.algebra_diagonals(AlgebraElement.unit(0.3), bad),
                 lambda: zeta_trace(ONE, 0.0, 2.0, n_modes=bad),
                 lambda: zeta_trace(ARCTAN, 0.0, 2.0, n_modes=bad)):
        with pytest.raises(ValueError, match="n_modes must be at least 1"):
            call()
    with pytest.raises(ValueError, match="x_max must be positive"):
        asymptotic_mean(ARCTAN, x_max=float(bad))


# ---------------- asymptotic means ----------------


def test_mean_of_sine():
    sin_fn = RealLineFunction.periodic_fn(lambda x: np.sin(np.asarray(x)), 2 * np.pi)
    res = asymptotic_mean(sin_fn)
    assert abs(res.mu_plus) < 1e-12 and abs(res.mu_minus) < 1e-12


def test_mean_of_arctan():
    res = asymptotic_mean(ARCTAN, x_max=32.0)
    assert abs(res.mu_plus - np.pi / 2) < 1e-3
    assert abs(res.mu_minus + np.pi / 2) < 1e-3
    assert abs(res.mu) < 1e-3


def test_mean_of_arctan_matches_exact_antiderivative_fit():
    # the same three-point fit on F(x) = x arctan x - log(1 + x^2) / 2
    def exact_side(sign, x_max=32.0):
        xs = np.array([x_max / 4.0, x_max / 2.0, x_max])
        rs = (xs * np.arctan(sign * xs) - 0.5 * np.log1p(xs * xs) / sign) / xs
        design = np.column_stack([np.ones(3), 1.0 / xs, np.log(xs) / xs])
        return np.linalg.solve(design, rs)[0]

    res = asymptotic_mean(ARCTAN, x_max=32.0)
    assert abs(res.mu_plus - exact_side(1.0)) < 1e-14
    assert abs(res.mu_minus - exact_side(-1.0)) < 1e-14


def test_mean_periodic_exact():
    res = asymptotic_mean(ONE_PLUS_COS)
    assert abs(res.mu - 1.0) < 1e-12
    assert res.error_estimate == 0.0


# ---------------- Dixmier limit ----------------


def test_dixmier_constant():
    assert abs(dixmier_limit(ONE) - 0.5) < 1e-6


def test_dixmier_arctan():
    assert abs(dixmier_limit(ARCTAN)) < 1e-3


def test_dixmier_one_plus_cos():
    assert abs(dixmier_limit(ONE_PLUS_COS) - 0.5) < 1e-3


def test_dixmier_matches_residue_for_periodic():
    # the singular-trace limit and the zeta residue agree on periodic weights
    assert abs(dixmier_limit(ONE_PLUS_COS) - residue_at_1(ONE_PLUS_COS)) < 1e-3


# ---------------- antiderivative map ----------------


def test_delta_map_constant():
    const = RealLineFunction.periodic_fn(
        lambda x: 2.0 * np.ones_like(np.asarray(x, dtype=float)), 1.0
    )
    df = delta_map(const)
    for x in (-3.2, 0.5, 7.0):
        assert abs(df(x)) < 1e-10


def test_delta_map_cosine():
    df = delta_map(COS)
    assert df.kind == "periodic" and df.period == 1.0
    for x in (-1.3, 0.2, 2.7):
        assert abs(df(x) - np.sin(2 * np.pi * x) / (2 * np.pi)) < 1e-9
    res = asymptotic_mean(df)
    assert abs(res.mu) < 1e-9


def test_delta_map_sine():
    sin_fn = RealLineFunction.periodic_fn(lambda x: np.sin(2 * np.pi * np.asarray(x)), 1.0)
    df = delta_map(sin_fn)
    for x in (0.1, 1.4, -0.8):
        expected = (1.0 - np.cos(2 * np.pi * x)) / (2 * np.pi)
        assert abs(df(x) - expected) < 1e-9
    # the mean of the first antiderivative need not vanish, only stay finite
    assert abs(asymptotic_mean(df).mu - 1.0 / (2 * np.pi)) < 1e-9


# ---------------- entire off-diagonal zeta ----------------


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.15, 0.2, 0.5, 2.0])
@pytest.mark.parametrize("name", ["one", "1+cos", "bump"])
def test_entire_check_reads_the_value_at_one(p03, name, alpha):
    # off the diagonal the zeta function is entire, and its value at s = 1
    # grows like log(1/alpha); a residue extrapolated by a quadratic through
    # s = 1.5, 1.1 and 1.01 missed that growth and exceeded 1e-3 for ONE and
    # 1 + cos at every alpha <= 0.2 and for the bump at 0.05
    f = {"one": ONE, "1+cos": ONE_PLUS_COS, "bump": _real_bump(p03.coefficient(0))}[name]
    report = entire_check(f, alpha)
    assert report.passed
    assert report.residue_extrapolated == 0.0
    assert report.at_1.s == 1.0
    if name == "one":
        assert report.at_1.value.imag == 0.0
        assert report.at_1.value.real == pytest.approx(_mellin_one_reference(alpha, 1.0),
                                                       rel=1e-15)


def test_entire_check_takes_one_weighted_trace(monkeypatch):
    # the three Mellin values share one trace on the nodes of one rule
    calls = []

    def counted(f, alpha, t):
        calls.append(np.size(t))
        return heat_trace_weighted(f, alpha, t)

    monkeypatch.setattr(heatzeta, "heat_trace_weighted", counted)
    alpha = 0.7

    def weight():
        return RealLineFunction.periodic_fn(lambda x: 1.0 + np.cos(2 * np.pi * x), 1.0)

    report = entire_check(weight(), alpha)
    assert len(calls) == 1
    v_min = math.log(alpha * alpha / 160.0)
    v = v_min + 0.2 * np.arange(math.ceil((math.log(60.0) - v_min) / 0.2) + 1)
    trace = heat_trace_weighted(weight(), alpha, np.exp(v))
    for ev in (*report.evaluations, report.at_1):
        terms = np.exp(ev.s * v) * trace
        fine, coarse = 0.2 * terms.sum(), 0.4 * terms[::2].sum()
        rg = complex(mpmath.rgamma(ev.s))
        assert _bits(ev.value) == _bits(fine * rg)
        assert ev.error_estimate == abs(fine - coarse) * abs(rg)
    # 1/Gamma(1) = 1: the value at s = 1 is the fine trapezoid sum itself
    terms = np.exp(complex(1.0) * v) * trace
    assert _bits(report.at_1.value) == _bits(0.2 * terms.sum())


def test_entire_check_evaluations_are_the_plain_values_at_three_s():
    # bench/workloads.py indexes its expected values by the s of each
    # evaluation: exactly 1.5, 1.1 and 1.01, in that order, each the value a
    # plain zeta_trace call gives
    alpha = 0.37
    report = entire_check(ONE_PLUS_COS, alpha)
    assert [ev.s for ev in report.evaluations] == [1.5, 1.1, 1.01]
    for ev in report.evaluations:
        plain = zeta_trace(ONE_PLUS_COS, alpha, ev.s.real)
        assert _bits(ev.value) == _bits(plain.value)
        assert ev.error_estimate == plain.error_estimate


def test_entire_check_large_shift_suppression():
    report = entire_check(ONE, 3.0)
    # strong Gaussian suppression: all sampled values stay small
    assert report.value_bound <= 0.1
    assert report.passed


def test_entire_check_rejects_zero_shift():
    with pytest.raises(ValueError):
        entire_check(ONE, 0.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call, message", [
    (lambda: zeta_trace(ONE, NAN, 1.5), "alpha must be finite, got nan"),
    (lambda: zeta_trace(ONE, INF, 1.5), "alpha must be finite, got inf"),
    (lambda: zeta_trace(ONE, 0.3, NAN), "s must be finite, got nan"),
    (lambda: zeta_trace(ONE, 0.0, complex(1.5, -INF)), "s must be finite"),
    (lambda: zeta_trace(ARCTAN, 0.0, INF), "s must be finite, got inf"),
    (lambda: heat_trace_weighted(ONE, NAN, 0.5), "alpha must be finite, got nan"),
    (lambda: heat_trace_weighted(ONE, 0.3, np.array([0.5, NAN])), "t must be finite, got nan"),
    (lambda: heat_trace(INF), "t must be finite, got inf"),
    (lambda: asymptotic_mean(ARCTAN, x_max=NAN), "x_max must be finite, got nan"),
    (lambda: asymptotic_mean(ONE, x_max=INF), "x_max must be finite, got inf"),
    (lambda: entire_check(ONE, NAN), "alpha must be finite, got nan"),
    (lambda: entire_check(ONE, -INF), "alpha must be finite, got -inf"),
    (lambda: RealLineFunction.periodic_fn(np.cos, NAN), "period must be finite, got nan"),
    (lambda: RealLineFunction.periodic_fn(np.cos, INF), "period must be finite, got inf"),
    (lambda: RealLineFunction.with_limits(np.arctan, NAN, 1.0), "limit must be finite, got nan"),
    (lambda: RealLineFunction.with_limits(np.arctan, 0.0, -INF),
     "limit must be finite, got -inf"),
], ids=["zeta-alpha-nan", "zeta-alpha-inf", "zeta-s-nan", "zeta-s-complex-inf",
        "zeta-eigen-sum-s-inf", "heat-alpha-nan", "heat-t-nan", "heat-trace-t-inf",
        "mean-x_max-nan", "mean-periodic-x_max-inf", "entire-alpha-nan",
        "entire-alpha-minus-inf", "period-nan", "period-inf", "limit-nan",
        "limit-minus-inf"])
def test_non_finite_inputs_raise_a_clear_error(call, message):
    # a NaN or infinite argument names itself, as ktheory does for hbar,
    # instead of a failed integer conversion, an overflow or a NaN value
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_periodic_metadata_diagnostic():
    assert ONE_PLUS_COS.periodicity_defect() <= 1e-12
    half = RealLineFunction.periodic_fn(
        lambda x: 2.0 + np.cos(4.0 * np.pi * np.asarray(x)), 0.5
    )
    assert half.periodicity_defect() <= 1e-12
    with pytest.raises(ValueError):
        ARCTAN.periodicity_defect()
