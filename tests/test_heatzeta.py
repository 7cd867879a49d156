import functools
import math
import re

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
    spectral_diagonals,
    zeta_trace,
)
from nctorus import heatzeta, oscillator

COS = RealLineFunction.periodic_fn(lambda x: np.cos(2 * np.pi * np.asarray(x)), 1.0)
ONE_PLUS_COS = RealLineFunction.periodic_fn(
    lambda x: 1.0 + np.cos(2 * np.pi * np.asarray(x)), 1.0
)
ARCTAN = RealLineFunction.with_limits(np.arctan, -np.pi / 2, np.pi / 2)


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
    for f in (ONE, COS, RealLineFunction.periodic_fn(lambda x: np.real(bump(x)), 1.0),
              ARCTAN):
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
    # the weight as ``nctorus zeta --f riesz-ramp`` builds it: the real part
    # of every point evaluation of the full 2048-mode bump coefficient
    bump = p03.coefficient(0)
    f = RealLineFunction.periodic_fn(lambda x: np.real(bump(x)), 1.0)
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
    bump = p03.coefficient(0)
    f = RealLineFunction.periodic_fn(lambda x: np.real(bump(x)), 1.0)
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
    assert points == [heatzeta.DEFAULT_SAMPLES]
    mean, c, real, sup = heatzeta._fourier_record(f)
    assert mean == 1.0 and real and sup == 2.0 and not c.flags.writeable


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
    mean, _, real, _ = heatzeta._fourier_record(RealLineFunction.periodic_fn(func, 1.0))
    assert _bits(mean) == _bits(expected)
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
    # Mellin route, and a periodic weight has no spectral diagonals
    for s in (2.0, 1.5, 0.5, -1.0, 1.2 + 3j):
        ev = zeta_trace(ONE, 0.0, s)
        assert ev.value == heatzeta._odd_zeta(complex(s)) and ev.error_estimate == 0.0
    with pytest.raises(ValueError, match="Mellin route"):
        spectral_diagonals(ONE, 2000)


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
    bump = p03.coefficient(0)
    f = {"one": ONE, "1+cos": ONE_PLUS_COS,
         "bump": RealLineFunction.periodic_fn(lambda x: np.real(bump(x)), 1.0)}[name]
    if name == "bump":
        # the modes |k| <= 8 of its Fourier record: the ones its Gaussian
        # averages keep at P = 1
        c = heatzeta._fourier_record(f)[1]
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
        assert ev.residue_at_1 == {"one": 0.5, "1+cos": 0.5, "bump": 0.14999999999999988}[name]
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


def test_limit_residue_reads_zeta_trace_on_one_diagonal_stream(monkeypatch):
    # residue_by_extrapolation takes its three values from zeta_trace for
    # every weight: a limit-type weight's are eigen-sums of one cached
    # diagonal stream, with the bits of summing that stream directly
    calls = []

    def counted(weighted_shifts, n_modes):
        calls.append(n_modes)
        return oscillator.diagonal_elements(weighted_shifts, n_modes)

    monkeypatch.setattr(heatzeta, "diagonal_elements", counted)
    f = RealLineFunction.with_limits(np.arctan, -np.pi / 2, np.pi / 2)
    residue = residue_by_extrapolation(f)
    assert calls == [2000]
    hs = np.array([0.1, 0.01, 0.001])
    d = spectral_diagonals(f, 2000)
    assert residue == heatzeta._intercept(
        hs, [h * heatzeta._eigen_sum_tail(f, complex(1.0 + h), d).value for h in hs])


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
    mean, _, _, sup = heatzeta._fourier_record(COS)
    assert mean != 0.0 and abs(mean) <= np.finfo(float).eps * sup
    below, at, above = (zeta_trace(COS, 0.0, s).value for s in (0.999, 1.0, 1.001))
    assert below.real < at.real < above.real
    assert abs(at - 0.5 * (below + above)) < 1e-6 * abs(at)
    assert zeta_trace(COS, 0.0, 1.0).residue_at_1 == residue_at_1(COS)


@pytest.mark.parametrize("f, residue", [(ONE, "0.5"), (ONE_PLUS_COS, "0.5")])
def test_zeta_pole_at_one_raises_with_its_residue(f, residue):
    with pytest.raises(ValueError, match=rf"pole at s = 1, with residue c_0/2 = {residue}"):
        zeta_trace(f, 0.0, 1.0)


@pytest.mark.parametrize("f, residue", [
    (ARCTAN, "0"),
    (RealLineFunction.with_limits(lambda x: (1.0 + np.tanh(x)) / 2.0, 0.0, 1.0), "0.25"),
], ids=["arctan", "tanh_step"])
def test_limit_weight_zeta_at_one_raises_with_its_residue(f, residue, monkeypatch):
    # the tail model's odd zeta has its pole at s = 1: the error names s = 1,
    # the weight kind and mu/2 before any diagonal or odd zeta is computed
    monkeypatch.setattr(heatzeta, "diagonal_elements", None)
    monkeypatch.setattr(heatzeta, "_odd_zeta", None)
    message = rf"limit-type \(has_limits\) weight has no value at s = 1: .* mu/2 = {residue}$"
    with pytest.raises(ValueError, match=message):
        zeta_trace(f, 0.0, 1.0)


def test_limit_weight_zeta_values_share_one_diagonal_stream(monkeypatch):
    # the diagonals of the last two (weight, n_modes) are kept: the values
    # at three s take one quadrature stream and keep their bits
    f = RealLineFunction.with_limits(np.arctan, -np.pi / 2, np.pi / 2)
    s_values = (1.5, 2.0, 3.0)
    expected = [heatzeta._eigen_sum_tail(f, complex(s), oscillator.diagonal_elements(
        [(f, 0.0)], 400)[0]).value for s in s_values]
    calls = []

    def counted(pairs, n_modes):
        calls.append(n_modes)
        return oscillator.diagonal_elements(pairs, n_modes)

    monkeypatch.setattr(heatzeta, "diagonal_elements", counted)
    values = [zeta_trace(f, 0.0, s, n_modes=400).value for s in s_values]
    assert calls == [400]
    assert [_bits(v) for v in values] == [_bits(v) for v in expected]
    assert not spectral_diagonals(f, 400).flags.writeable
    assert calls == [400]


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
    # a cached (weight, alpha) would take no trace call at all
    heatzeta._mellin_trace.cache_clear()
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
    # the Mellin route is off-diagonal only, right of the pole too
    with pytest.raises(ValueError):
        zeta_trace(ONE, 0.0, 1.5, method="heat_mellin")
    # and the eigen-sum on-diagonal only
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
    for call in (lambda: spectral_diagonals(ONE, bad),
                 lambda: spectral_diagonals(ARCTAN, bad),
                 lambda: oscillator.algebra_diagonals(AlgebraElement.unit(0.3), bad),
                 lambda: zeta_trace(ONE, 0.0, 2.0, n_modes=bad)):
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


def test_entire_check_extrapolates_to_zero():
    report = entire_check(ONE, 0.5)
    assert report.passed
    assert abs(report.residue_extrapolated) <= 1e-3
    proxies = report.residue_proxies
    assert all(a >= b - 1e-12 for a, b in zip(proxies, proxies[1:]))


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
    for ev in report.evaluations:
        terms = np.exp(ev.s * v) * trace
        fine, coarse = 0.2 * terms.sum(), 0.4 * terms[::2].sum()
        rg = complex(mpmath.rgamma(ev.s))
        assert _bits(ev.value) == _bits(fine * rg)
        assert ev.error_estimate == abs(fine - coarse) * abs(rg)


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
], ids=["zeta-alpha-nan", "zeta-alpha-inf", "zeta-s-nan", "zeta-s-complex-inf",
        "zeta-eigen-sum-s-inf", "heat-alpha-nan", "heat-t-nan", "heat-trace-t-inf",
        "mean-x_max-nan", "mean-periodic-x_max-inf", "entire-alpha-nan",
        "entire-alpha-minus-inf"])
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
