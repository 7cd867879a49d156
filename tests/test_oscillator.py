import itertools
import logging
import re

import mpmath
import numpy as np
import pytest

from nctorus import (
    AlgebraElement,
    HermiteBasis,
    PeriodicFunction,
    algebra_diagonals,
    diagonal_elements,
    hermite_eval,
    hermite_rows,
    ladder_commutators,
    ladder_matrices,
    multiplication_matrix,
    represent,
    rieffel_projection,
    translation_matrix,
)
from nctorus.oscillator import SUBNORMAL_FLOOR, _floor, _hermite_iter, band_limit
from nctorus.periodic import trig_sum
from nctorus import multiply as alg_multiply

HBAR = 0.3


def test_ground_state_value():
    assert abs(hermite_eval(0, 0.0) - np.pi ** -0.25) < 1e-14


@pytest.mark.parametrize("n", [0, 5, 50])
def test_normalization_by_quadrature(n, basis200):
    row = basis200.rows[n]
    assert abs((row * row).sum() * basis200.weight - 1.0) < 1e-10


@pytest.mark.parametrize("n", [0, 5, 50])
def test_eigenvalue_by_finite_differences(n):
    # independent oracle: apply H with a 5-point Laplacian stencil
    h = 0.002
    half = np.sqrt(2 * n + 1.0) + 8.0
    x = np.arange(-half, half + h / 2, h)
    psi = hermite_eval(n, x)
    lap = (
        -np.roll(psi, 2) + 16 * np.roll(psi, 1) - 30 * psi
        + 16 * np.roll(psi, -1) - np.roll(psi, -2)
    ) / (12 * h * h)
    integrand = psi * (-lap + x * x * psi)
    value = integrand[2:-2].sum() * h
    assert abs(value - (2 * n + 1)) < 1e-6


def test_gram_orthonormality(basis200):
    assert basis200.gram_defect() < 1e-10


def test_ladder_matrix_entries(basis200):
    a, a_dag, h, d, grading = ladder_matrices(basis200)
    n = basis200.n_modes
    assert abs(a[0, 1] - np.sqrt(2.0)) < 1e-15
    interior = np.s_[: n - 1, : n - 1]
    assert np.abs((a @ a_dag - h - np.eye(n))[interior]).max() < 1e-12
    assert np.abs(a_dag @ a - h + np.eye(n)).max() < 1e-12
    comm = a @ a_dag - a_dag @ a
    assert np.abs((comm - 2.0 * np.eye(n))[interior]).max() < 1e-12
    d2 = d @ d
    expected = np.zeros_like(d2)
    expected[:n, :n] = h - np.eye(n)
    expected[n:, n:] = h + np.eye(n)
    assert np.abs((d2 - expected)[: 2 * n - 2, : 2 * n - 2][interior]).max() < 1e-12
    assert np.abs(grading @ d + d @ grading).max() < 1e-15


@pytest.mark.parametrize("alpha", [0.3, 1.0])
def test_translation_ground_state_overlap(alpha, basis200):
    # Gaussian integral oracle: <psi0, T_alpha psi0> = e^{-alpha^2/4}
    t = translation_matrix(alpha, basis200)
    assert abs(t[0, 0] - np.exp(-alpha * alpha / 4.0)) < 1e-10


def test_translation_identity_and_unitarity(basis200):
    n = basis200.n_modes
    t0 = translation_matrix(0.0, basis200)
    assert np.abs(t0 - np.eye(n)).max() < 1e-10
    t = translation_matrix(HBAR, basis200)
    defect = (t @ t.T - np.eye(n))[: n // 2, : n // 2]
    assert np.abs(defect).max() < 1e-10


def test_multiplication_ground_state_overlap(basis200):
    # Gaussian integral oracle: <psi0, e^{2 pi i x} psi0> = e^{-pi^2}
    u = multiplication_matrix(PeriodicFunction.exponential(1), basis200)
    assert abs(u[0, 0] - np.exp(-np.pi ** 2)) < 1e-12


def test_represent_identity(basis200):
    one = AlgebraElement.unit(HBAR)
    rep = represent(one, basis200)
    assert np.abs(rep - np.eye(basis200.n_modes)).max() < 1e-12


def test_represent_projection_is_a_compression(basis400):
    # P pi(e) P of a projection e is self-adjoint with spectrum in [0, 1],
    # up to the projection defect (measured min 2.5e-9, max 1 - 3.4e-4 at 0.3)
    for hbar in (0.3, 1.3, 2.6, -0.6):
        rep = represent(rieffel_projection(hbar), basis400)
        assert np.abs(rep - rep.conj().T).max() < 1e-12
        evals = np.linalg.eigvalsh(0.5 * (rep + rep.conj().T))
        assert evals.min() > -1e-10, hbar
        assert evals.max() < 1.0 + 1e-10, hbar


def test_represent_commutation_interior(basis400):
    u = represent(AlgebraElement.circle_generator(HBAR), basis400)
    v = represent(AlgebraElement.shift_generator(HBAR), basis400)
    half = basis400.n_modes // 2
    defect = (v @ u - np.exp(-2j * np.pi * HBAR) * u @ v)[:half, :half]
    assert np.abs(defect).max() < 1e-6


def test_represent_homomorphism_interior(basis400, rng):
    def element():
        x = np.arange(2048) / 2048
        coeffs = {}
        for n in (-1, 0, 1):
            c = rng.normal(size=3) + 1j * rng.normal(size=3)
            vals = (c[0] + c[1] * np.exp(2j * np.pi * x)
                    + c[2] * np.exp(-2j * np.pi * x)) / 3.0
            coeffs[n] = PeriodicFunction(vals)
        return AlgebraElement(HBAR, coeffs)

    a, b = element(), element()
    lhs = represent(a, basis400) @ represent(b, basis400)
    rhs = represent(alg_multiply(a, b), basis400)
    half = basis400.n_modes // 2
    assert np.abs((lhs - rhs)[:half, :half]).max() < 1e-6


def test_symbolic_vs_matrix_commutators(basis400):
    f = PeriodicFunction.exponential(1)
    family = [
        AlgebraElement(HBAR, {0: f}),
        AlgebraElement.shift_generator(HBAR),
        AlgebraElement(HBAR, {1: f}),
    ]
    a_mat, a_dag_mat, _, _, _ = ladder_matrices(basis400)
    half = basis400.n_modes // 2
    for elem in family:
        rep = represent(elem, basis400)
        plus, minus = ladder_commutators(elem)
        lhs_plus = a_mat @ rep - rep @ a_mat
        lhs_minus = a_dag_mat @ rep - rep @ a_dag_mat
        rhs_plus = represent(plus, basis400)
        rhs_minus = represent(minus, basis400)
        assert np.abs((lhs_plus - rhs_plus)[:half, :half]).max() < 1e-6
        assert np.abs((lhs_minus - rhs_minus)[:half, :half]).max() < 1e-6


def test_streaming_diagonals_orthonormality():
    d = diagonal_elements([(lambda x: np.ones_like(x), 0.0)], 60)[0]
    assert np.abs(d - 1.0).max() < 1e-10


def test_streaming_diagonals_translation_overlap():
    d = diagonal_elements([(lambda x: np.ones_like(x), 1.0)], 4)[0]
    assert abs(d[0] - np.exp(-0.25)) < 1e-10


def test_algebra_diagonals_unit():
    d = algebra_diagonals(AlgebraElement.unit(HBAR), 40)
    assert np.abs(d - 1.0).max() < 1e-10


def test_hermite_rows_match_eval():
    x = np.linspace(-30.0, 30.0, 7)
    rows = hermite_rows(120, x)
    assert np.abs(rows[100] - hermite_eval(100, x)).max() < 1e-13


def test_hermite_rows_have_no_entry_below_the_floor(basis400):
    for rows in (basis400.rows, hermite_rows(400, basis400.grid - 2.6)):
        kept = np.abs(rows[rows != 0.0])
        assert kept.min() >= SUBNORMAL_FLOOR
        assert (rows == 0.0).any()


def test_hermite_rows_match_a_guard_per_row(basis400):
    # one underflow guard per call, not per row, computes the same bits
    for x in (basis400.grid, basis400.grid - 0.7):
        it = _hermite_iter(x)
        per_row = []
        for _ in range(400):
            with np.errstate(under="ignore"):
                per_row.append(next(it))
        assert np.array_equal(hermite_rows(400, x), _floor(np.array(per_row)))


def test_suspended_hermite_iter_leaves_the_error_state_alone():
    with np.errstate(under="warn"):
        it = _hermite_iter(np.zeros(3))
        next(it)
        assert np.geterr()["under"] == "warn"


def _unfloored_section(a, basis):
    """P pi(a) P by the same quadrature as ``represent``, without the floor."""
    def rows(x):
        return np.array(list(itertools.islice(_hermite_iter(x), basis.n_modes)))

    base = rows(basis.grid)
    out = np.zeros((basis.n_modes, basis.n_modes))
    for n, f in a.items():
        k, c, _ = f.band(band_limit(basis.n_modes))
        weight = basis.weight * trig_sum(k, c, basis.grid)
        shifted = base if n == 0 else rows(basis.grid - n * a.hbar)
        term = (base * weight.real) @ shifted.T
        if f.samples.imag.any():
            term = term + 1j * ((base * weight.imag) @ shifted.T)
        out = out + term
    return out


@pytest.mark.parametrize("element", ["p03", "U"])
def test_represent_is_unchanged_by_the_floor(element, p03, basis400):
    # the dropped terms are below 2.8e-103 times O(1): no entry moves a bit
    a = p03 if element == "p03" else AlgebraElement.circle_generator(HBAR)
    assert np.array_equal(represent(a, basis400), _unfloored_section(a, basis400))


def test_represent_of_real_coefficients_is_real(p03, basis400):
    # the localizer's element: e_0 / 2 + e_1 [1], whose coefficients are real
    upper = AlgebraElement(p03.hbar, {n: 0.5 * f if n == 0 else f
                                      for n, f in p03.items() if n >= 0})
    section = represent(upper, basis400)
    assert section.dtype == np.float64
    # the complex quadrature, whose imaginary part is rounding only
    reference = np.zeros(section.shape, dtype=complex)
    for n, f in upper.items():
        k, c, _ = f.band(band_limit(basis400.n_modes))
        weight = basis400.weight * trig_sum(k, c, basis400.grid)
        shifted = (basis400.rows if n == 0
                   else hermite_rows(basis400.n_modes, basis400.grid - n * p03.hbar))
        reference += ((basis400.rows * _floor(weight.real)) @ shifted.T
                      + 1j * ((basis400.rows * _floor(weight.imag)) @ shifted.T))
    assert np.array_equal(section, reference.real)


def _band_values(f, kmax, x):
    """sum_{|k| <= kmax} c_k e^{2 pi i k x} from f's FFT coefficients."""
    k = f.modes
    keep = np.abs(k) <= kmax
    return np.exp(2j * np.pi * np.outer(x, k[keep])) @ f.coefficients[keep]


def _reference_diagonals(a, kmax, n_modes, density=64, chunk=4096):
    """sum_m quad(f_m(x) psi_n(x - m hbar) psi_n(x)) with f_m cut to |k| <= kmax.

    The quadrature is a uniform grid of its own, density points per mode,
    with the Hermite rows built chunk by chunk.
    """
    span = max(abs(m * a.hbar) for m, _ in a.items())
    half = np.sqrt(2.0 * n_modes + 3.0) + 6.0 + span
    x = np.linspace(-half, half, density * n_modes + 1)
    step = x[1] - x[0]
    out = np.zeros(n_modes, dtype=complex)
    for i in range(0, x.size, chunk):
        xs = x[i:i + chunk]
        base = hermite_rows(n_modes, xs)
        for m, f in a.items():
            shifted = base if m == 0 else hermite_rows(n_modes, xs - m * a.hbar)
            out += (base * shifted) @ (_band_values(f, kmax, xs) * step)
    return out


@pytest.mark.parametrize("hbar", [0.3, 2.05, 1.99878])
def test_algebra_diagonals_match_band_limited_quadrature(hbar):
    # independent reference: a density-64 quadrature over the first 600 modes
    e = rieffel_projection(hbar)
    d = algebra_diagonals(e, 2000)[:600]
    ref = _reference_diagonals(e, band_limit(2000), 600)
    assert np.abs(d - ref).max() < 1e-11


def test_algebra_diagonals_circle_generator_laguerre():
    # <psi_n, e^{2 pi i x} psi_n> = e^{-pi^2} L_n(2 pi^2)
    d = algebra_diagonals(AlgebraElement.circle_generator(HBAR), 2000)
    for n in (0, 7, 150, 1999):
        exact = complex(mpmath.exp(-mpmath.pi ** 2) * mpmath.laguerre(n, 0, 2 * mpmath.pi ** 2))
        assert abs(d[n] - exact) < 1e-13, n


@pytest.mark.parametrize("n_modes", [200, 400])
@pytest.mark.parametrize("offset", [1, 5])
def test_out_of_band_modes_couple_nothing(n_modes, offset):
    # band_limit's tail bound: the exact element is at most e^{-4N}, and a
    # K-point quadrature of it reads rounding of order sqrt(K) eps
    k = band_limit(n_modes) + offset
    half = np.sqrt(2.0 * n_modes + 3.0) + 6.0
    x = np.linspace(-half, half, 64 * n_modes + 1)
    rows = hermite_rows(n_modes, x)
    weight = (x[1] - x[0]) * np.exp(2j * np.pi * k * x)
    elements = (rows * weight.real) @ rows.T + 1j * ((rows * weight.imag) @ rows.T)
    bound = np.exp(-4.0 * n_modes) + np.sqrt(x.size) * np.finfo(float).eps
    assert np.abs(elements).max() < bound
    y = 2 * mpmath.pi ** 2 * k ** 2
    corner = mpmath.exp(-y / 2) * mpmath.laguerre(n_modes - 1, 0, y)
    assert abs(corner) < mpmath.exp(-4 * n_modes)


def _logged(caplog, call):
    caplog.clear()
    call()
    (record,) = [r for r in caplog.records if r.name == "nctorus.oscillator"]
    message = record.getMessage()
    kmax = int(re.search(r"kmax=(\d+)", message).group(1))
    mass = float(re.search(r"neglected coefficient mass=(\S+)", message).group(1))
    return kmax, mass


def test_band_limit_is_logged(caplog, p03, basis200):
    caplog.set_level(logging.DEBUG, logger="nctorus.oscillator")
    for n_modes, call in (
        (200, lambda: represent(p03, basis200)),
        (2000, lambda: algebra_diagonals(p03, 2000)),
    ):
        kmax, mass = _logged(caplog, call)
        assert kmax == band_limit(n_modes)
        expected = sum(
            np.abs(f.coefficients[np.abs(f.modes) > kmax]).sum() for _, f in p03.items()
        )
        assert abs(mass - expected) <= 1e-5 * expected
