import copy
import functools
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
    hermite_rows,
    ladder_commutators,
    ladder_matrices,
    multiplication_matrix,
    represent,
    rieffel_projection,
    translation_matrix,
)
from nctorus.oscillator import (
    _RESCALE_BITS,
    _RESCALE_EVERY,
    _RESCALE_LIMIT,
    SUBNORMAL_FLOOR,
    _floor,
    _hermite_iter,
    _laguerre_rows,
    _weyl_start,
    band_limit,
)
from nctorus import oscillator, pairing
from nctorus.periodic import trig_sum
from nctorus import adjoint as alg_adjoint
from nctorus import multiply as alg_multiply

HBAR = 0.3


def _parity_sections(a, n_modes, centre):
    """The two reflection-parity blocks of S + S^H, S the section of a on the
    window centred at centre, as ``pairing._localizer`` builds them."""
    displacements = oscillator._element_displacements(a, n_modes, centre)
    return oscillator._weyl_blocks(displacements, n_modes, step=2)


def test_ground_state_value():
    assert abs(hermite_rows(1, np.array([0.0]))[0, 0] - np.pi ** -0.25) < 1e-14


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
    psi = hermite_rows(n + 1, x)[n]
    lap = (
        -np.roll(psi, 2) + 16 * np.roll(psi, 1) - 30 * psi
        + 16 * np.roll(psi, -1) - np.roll(psi, -2)
    ) / (12 * h * h)
    integrand = psi * (-lap + x * x * psi)
    value = integrand[2:-2].sum() * h
    assert abs(value - (2 * n + 1)) < 1e-6


def test_gram_orthonormality():
    gram = translation_matrix(0.0, 200)
    assert np.abs(gram - np.eye(200)).max() < 1e-10


def test_ladder_matrix_entries():
    n = 200
    a, a_dag, h, d, grading = ladder_matrices(n)
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
def test_translation_ground_state_overlap(alpha):
    # Gaussian integral oracle: <psi0, T_alpha psi0> = e^{-alpha^2/4}
    t = translation_matrix(alpha, 200)
    assert abs(t[0, 0] - np.exp(-alpha * alpha / 4.0)) < 1e-10


def test_translation_identity_and_unitarity():
    n = 200
    t0 = translation_matrix(0.0, n)
    assert np.abs(t0 - np.eye(n)).max() < 1e-10
    t = translation_matrix(HBAR, n)
    defect = (t @ t.T - np.eye(n))[: n // 2, : n // 2]
    assert np.abs(defect).max() < 1e-10


def test_multiplication_ground_state_overlap():
    # Gaussian integral oracle: <psi0, e^{2 pi i x} psi0> = e^{-pi^2}
    u = multiplication_matrix(PeriodicFunction.exponential(1), 200)
    assert abs(u[0, 0] - np.exp(-np.pi ** 2)) < 1e-12


def test_represent_identity():
    one = AlgebraElement.unit(HBAR)
    rep = represent(one, 200)
    assert np.abs(rep - np.eye(200)).max() < 1e-12


@pytest.mark.parametrize("n_modes", [1, 0, -3])
def test_sections_take_at_least_two_modes(n_modes):
    for section in (lambda: represent(rieffel_projection(HBAR), n_modes),
                    lambda: multiplication_matrix(PeriodicFunction.exponential(1), n_modes),
                    lambda: translation_matrix(HBAR, n_modes),
                    lambda: ladder_matrices(n_modes)):
        with pytest.raises(ValueError, match="at least two modes"):
            section()


def _counted(monkeypatch, name):
    """The list of calls of oscillator.name while the test runs, one entry per call."""
    calls, original = [], getattr(oscillator, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(oscillator, name, counted)
    return calls


def test_each_section_runs_one_recurrence(monkeypatch, p03):
    # H(w) and H(-i w) come from one run over the stacked weight sets, and
    # the diagonals read both column-weight sets from one pass
    sums = _counted(monkeypatch, "_weyl_sums")
    for call in (lambda: represent(p03, 50),
                 lambda: represent(_section_case("UeU*"), 50),
                 lambda: multiplication_matrix(PeriodicFunction.exponential(1), 50),
                 lambda: translation_matrix(HBAR, 50)):
        sums.clear()
        call()
        assert len(sums) == 1
    columns = _counted(monkeypatch, "_column_weights")
    for a in (p03, _section_case("UeU*")):
        columns.clear()
        algebra_diagonals(a, 200)
        assert len(columns) == 1


def test_a_zero_coefficient_section_is_exactly_zero(p03):
    # modes whose coefficient is exactly 0 are skipped: an element of zero
    # coefficients has an exactly zero section and diagonal, and a zero
    # degree leaves the others' section with its bits
    zero = PeriodicFunction.constant(0.0)
    a = AlgebraElement(HBAR, {0: zero, 1: zero})
    assert not represent(a, 50).any() and represent(a, 50).dtype == np.float64
    assert not algebra_diagonals(a, 50).any()
    assert not any(block.any() for block in _parity_sections(a, 50, 0.25))
    padded = AlgebraElement(p03.hbar, {**dict(p03.items()), 2: zero})
    assert _bit_identical(represent(padded, 200), represent(p03, 200))
    assert _bit_identical(algebra_diagonals(padded, 2000), algebra_diagonals(p03, 2000))


def test_represent_projection_is_a_compression():
    # P pi(e) P of a projection e is self-adjoint with spectrum in [0, 1],
    # up to the projection defect (measured min 2.5e-9, max 1 - 3.4e-4 at 0.3)
    for hbar in (0.3, 1.3, 2.6, -0.6):
        rep = represent(rieffel_projection(hbar), 400)
        assert np.abs(rep - rep.conj().T).max() < 1e-12
        evals = np.linalg.eigvalsh(0.5 * (rep + rep.conj().T))
        assert evals.min() > -1e-10, hbar
        assert evals.max() < 1.0 + 1e-10, hbar


def test_represent_commutation_interior():
    u = represent(AlgebraElement.circle_generator(HBAR), 400)
    v = represent(AlgebraElement.shift_generator(HBAR), 400)
    half = 200
    defect = (v @ u - np.exp(-2j * np.pi * HBAR) * u @ v)[:half, :half]
    assert np.abs(defect).max() < 1e-6


def test_represent_homomorphism_interior(rng):
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
    lhs = represent(a, 400) @ represent(b, 400)
    rhs = represent(alg_multiply(a, b), 400)
    half = 200
    assert np.abs((lhs - rhs)[:half, :half]).max() < 1e-6


def test_symbolic_vs_matrix_commutators():
    f = PeriodicFunction.exponential(1)
    family = [
        AlgebraElement(HBAR, {0: f}),
        AlgebraElement.shift_generator(HBAR),
        AlgebraElement(HBAR, {1: f}),
    ]
    a_mat, a_dag_mat, _, _, _ = ladder_matrices(400)
    half = 200
    for elem in family:
        rep = represent(elem, 400)
        plus, minus = ladder_commutators(elem)
        lhs_plus = a_mat @ rep - rep @ a_mat
        lhs_minus = a_dag_mat @ rep - rep @ a_dag_mat
        rhs_plus = represent(plus, 400)
        rhs_minus = represent(minus, 400)
        assert np.abs((lhs_plus - rhs_plus)[:half, :half]).max() < 1e-6
        assert np.abs((lhs_minus - rhs_minus)[:half, :half]).max() < 1e-6


def test_streaming_diagonals_orthonormality():
    d = diagonal_elements([(lambda x: np.ones_like(x), 0.0)], 60)[0]
    assert np.abs(d - 1.0).max() < 1e-10


@pytest.mark.parametrize("shift", [1.0, -0.3, float("nan")])
def test_streaming_diagonals_reject_a_shift(shift):
    # off the diagonal the zeta values take the Mellin route, which needs
    # no diagonals; a shifted pair raises before any quadrature runs
    pairs = [(lambda x: np.ones_like(x), 0.0), (lambda x: np.ones_like(x), shift)]
    with pytest.raises(ValueError, match="Mellin route"):
        diagonal_elements(pairs, 4)


@pytest.mark.parametrize("n_modes", [1, 2, 4, 8, 16])
def test_streaming_diagonals_match_the_closed_form_at_few_modes(n_modes):
    # the quadrature grid is never coarser than at 2000 modes: on 8 n_modes + 1
    # points cos 6 pi x read 1.2 off at one mode and cos 20 pi x 0.30 at 16
    for k in (3, 10):
        weight = lambda x, k=k: np.cos(2.0 * np.pi * k * x)
        a = AlgebraElement(HBAR, {0: PeriodicFunction.from_callable(weight)})
        d = diagonal_elements([(weight, 0.0)], n_modes)[0]
        diff = np.abs(d - algebra_diagonals(a, n_modes)).max()
        assert diff < 1e-13, (k, diff)


def test_algebra_diagonals_unit():
    d = algebra_diagonals(AlgebraElement.unit(HBAR), 40)
    assert np.abs(d - 1.0).max() < 1e-10


def test_hermite_rows_match_mpmath_reference():
    # psi_n(x) = H_n(x) e^{-x^2/2} / sqrt(2^n n! sqrt(pi)) at 60 digits, far
    # beyond the turning point of psi_0 (x = 25, 36) and of psi_399 (x = 32),
    # at x whose binary exponent of e^{-x^2/2} is beyond an int64 (4e9), and
    # at x where the unscaled rows would overflow between two rescales (1e17
    # on): every row is exactly 0 once x^2 >= 2^60, and NaN stays NaN
    x = np.array([0.0, 1.7, -10.0, 25.0, 28.0, 32.0, -36.0, 4e9, -1e10,
                  1e17, 1e18, -1e30, np.inf, np.nan])
    rows = hermite_rows(400, x)
    assert not rows[:, x * x >= 2.0 ** 60].any()
    assert np.isnan(rows[:, np.isnan(x)]).all()
    with mpmath.workdps(60):
        for n in (0, 1, 100, 399):
            norm = mpmath.sqrt(mpmath.mpf(2) ** n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi))
            for j, xj in enumerate(x):
                if not np.isfinite(xj):
                    continue
                xm = mpmath.mpf(float(xj))
                psi = mpmath.hermite(n, xm) * mpmath.exp(-xm * xm / 2) / norm
                if abs(psi) > mpmath.mpf("1e-100"):
                    assert abs(rows[n, j] / psi - 1) < 1e-14, (n, xj)
                elif abs(psi) < mpmath.mpf("1e-110"):
                    assert rows[n, j] == 0.0, (n, xj)


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


@pytest.mark.parametrize("element", ["p03", "U"])
def test_represent_is_unchanged_by_the_floor(element, p03, monkeypatch):
    # the culled columns (band_limit's tail bound below SUBNORMAL_FLOOR) move
    # each entry by at most the floor times the coefficients' mass
    a = p03 if element == "p03" else AlgebraElement.circle_generator(HBAR)
    section = represent(a, 400)
    monkeypatch.setattr(oscillator, "_kept_columns", lambda y, n_modes: np.ones(y.size, bool))
    whole = represent(a, 400)
    mass = sum(np.abs(f.band(band_limit(400))[1]).sum() for _, f in a.items())
    assert section.dtype == whole.dtype
    assert np.abs(section - whole).max() <= SUBNORMAL_FLOOR * mass


def test_represent_of_real_coefficients_is_real(p03, basis400):
    # half the localizer's element e_0 + 2 e_1 [1], whose coefficients are real
    upper = AlgebraElement(p03.hbar, {n: 0.5 * f if n == 0 else f
                                      for n, f in p03.items() if n >= 0})
    section = represent(upper, 400)
    assert section.dtype == np.float64
    # the complex quadrature, whose imaginary part is rounding only
    reference = _reference_section(_grid_terms(upper, 400, real=False), basis400)
    assert np.iscomplexobj(reference)
    assert np.abs(reference.imag).max() < 1e-13
    assert np.abs(section - reference.real).max() < 1e-13


def _asymmetric_element(hbar, degrees, rng):
    """Random low-mode complex coefficients on the given degrees."""
    x = np.arange(2048) / 2048
    coeffs = {}
    for n in degrees:
        c = rng.normal(size=5) + 1j * rng.normal(size=5)
        coeffs[n] = PeriodicFunction(sum(c[j] * np.exp(2j * np.pi * (j - 2) * x)
                                         for j in range(5)) / 5.0)
    return AlgebraElement(hbar, coeffs)


def _linspace_section(a, n_modes, density=32):
    """sum_n quad(f_n psi_j psi_k(. - n hbar)) on a plain linspace, f_n band-limited.

    density points per mode over [-L - s, L + s], s the largest |n hbar|,
    independent of the centred grid, its reversed tables and its one GEMM.
    """
    span = max(abs(n * a.hbar) for n, _ in a.items())
    half = np.sqrt(2.0 * n_modes + 3.0) + 6.0 + span
    x = np.linspace(-half, half, density * n_modes + 1)
    base = hermite_rows(n_modes, x)
    out = np.zeros((n_modes, n_modes), dtype=complex)
    for n, f in a.items():
        k, c, _ = f.band(band_limit(n_modes))
        w = (x[1] - x[0]) * trig_sum(k, c, x)
        shifted = hermite_rows(n_modes, x - n * a.hbar)
        out += (base * w.real) @ shifted.T + 1j * ((base * w.imag) @ shifted.T)
    return out


def _section_case(case):
    rng = np.random.default_rng(20240817)
    if case == "UeU*":
        u = AlgebraElement.circle_generator(1.3)
        return alg_multiply(alg_multiply(u, rieffel_projection(1.3)), alg_adjoint(u))
    if case == "degrees -2..2":
        return _asymmetric_element(0.7, range(-2, 3), rng)
    if case == "upper -0.6":
        # the nonnegative degrees at negative hbar: centre -0.3, reversed left table
        e = rieffel_projection(-0.6)
        return AlgebraElement(-0.6, {n: f for n, f in e.items() if n >= 0})
    if case == "degrees -2, 1":
        return _asymmetric_element(2.6, (-2, 1), rng)
    return rieffel_projection(case)


SECTION_CASES = (-0.6, 0.3, 2.6, 6.88, "UeU*", "degrees -2..2", "upper -0.6", "degrees -2, 1")


@pytest.mark.parametrize("case", SECTION_CASES)
def test_centred_section_matches_a_dense_linspace_quadrature(case):
    a = _section_case(case)
    assert np.abs(represent(a, 200) - _linspace_section(a, 200)).max() < 1e-12


def refined(basis, factor=4):
    """A copy of basis whose grid has factor times as many intervals on [-L, L]."""
    dense = copy.copy(basis)
    half = factor * (basis.n_quad // 2)
    dense.n_quad, dense.weight = 2 * half + 1, basis.weight / factor
    dense.grid = dense.weight * np.arange(-half, half + 1)
    return dense


@pytest.mark.parametrize("n_modes", [8, 16, 32, 64, 200, 400, 800])
def test_grid_resolves_the_band_limited_section(n_modes):
    # the spacing is sized from band_limit(N): the trapezoid rule on the
    # basis grid reads the closed-form section up to rounding.  "degrees
    # -2..2" (shifts 0.7 and 1.4) read 3.1e-13 at 800 modes with the
    # three-term recurrence, whose coefficient 2n + d + 1 - y rounds y away
    basis = HermiteBasis(n_modes)
    for case in SECTION_CASES:
        a = _section_case(case)
        expected = _reference_section(_grid_terms(a, n_modes), basis)
        diff = np.abs(represent(a, n_modes) - expected).max()
        assert diff < 1e-13, (case, diff)


@pytest.mark.parametrize("shift", [0.01, 0.7, 6.0])
def test_translation_matches_the_laguerre_values_at_small_shifts(shift):
    # D(beta)[n + d, n] = e^{-y/2} y^{d/2} sqrt(n! / (n + d)!) L_n^(d)(y),
    # y = shift^2 / 2, against 30-digit values near the window's corner,
    # where the three-term recurrence read 4.4e-12 off at shift 0.01
    n_modes = 800
    section = translation_matrix(shift, n_modes)
    y = mpmath.mpf(shift) ** 2 / 2
    with mpmath.workdps(30):
        for n, d in ((566, 0), (799, 0), (776, 23), (700, 99), (400, 1), (0, 799)):
            exact = (mpmath.exp(-y / 2) * y ** (mpmath.mpf(d) / 2)
                     * mpmath.sqrt(mpmath.factorial(n) / mpmath.factorial(n + d))
                     * mpmath.laguerre(n, d, y))
            assert abs(section[n + d, n] - float(exact)) < 1e-14, (n, d)
            assert abs(section[n, n + d] - (-1) ** d * float(exact)) < 1e-14, (n, d)


def test_grid_is_sized_at_the_nyquist_rate():
    # h <= pi / (pi kmax + L), the fewest odd points h (-J..J) on [-L, L]:
    # the grid of HermiteBasis.rows and of the quadrature oracle below
    for n_modes, n_quad in ((8, 133), (32, 301), (64, 475), (300, 1575), (400, 2057),
                            (500, 2487)):
        basis = HermiteBasis(n_modes)
        bound = np.pi / (np.pi * band_limit(n_modes) + basis.half_width)
        assert basis.n_quad == n_quad
        assert basis.weight <= bound < basis.half_width / (basis.n_quad // 2 - 1)
        assert np.array_equal(basis.grid, -basis.grid[::-1])
        assert basis.grid[-1] == pytest.approx(basis.half_width, rel=1e-15)


def test_multiplication_and_translation_share_the_section():
    # both are single terms of the section: against the plain quadrature
    f = PeriodicFunction.exponential(3)
    mult = AlgebraElement(HBAR, {0: f})
    assert np.abs(multiplication_matrix(f, 200)
                  - _linspace_section(mult, 200)).max() < 1e-12
    for alpha in (0.45, -1.7):
        shift = AlgebraElement(alpha, {1: PeriodicFunction.constant(1.0)})
        assert np.abs(translation_matrix(alpha, 200)
                      - _linspace_section(shift, 200)).max() < 1e-12


def test_multiplication_matrix_drops_out_of_band_modes():
    # mode kmax + 5 couples nothing in the window (band_limit's tail bound),
    # but its raw samples alias into the grid: 0.14 at N = 200
    low = PeriodicFunction.exponential(3)
    f = low + PeriodicFunction.exponential(band_limit(200) + 5)
    assert np.abs(multiplication_matrix(f, 200)
                  - multiplication_matrix(low, 200)).max() < 1e-14


def _reference_rescale(step, prev, cur, exponent):
    if step % _RESCALE_EVERY == 0:
        big = np.abs(cur) > _RESCALE_LIMIT
        if big.any():
            bits = np.where(big, _RESCALE_BITS, 0)
            return np.ldexp(prev, -bits), np.ldexp(cur, -bits), exponent + bits
    return prev, cur, exponent


def _reference_hermite_iter(x):
    """The Hermite recurrence with the scale mantissa 2^exponent recomputed on every row."""
    split = (2.0 ** 27 + 1.0) * x
    high = split - (split - x)
    low = x - high
    square = x * x
    tail = ((high * high - square) + 2.0 * high * low) + low * low
    mantissa, exponent = _weyl_start(square, 0)
    mantissa, exponent = mantissa[0] * (np.pi ** -0.25 * (1.0 - 0.5 * tail)), exponent[0]
    u_prev = np.ones_like(x)
    u = np.sqrt(2.0) * x
    for m in itertools.count(1):
        yield u_prev * np.ldexp(mantissa, exponent)
        u_prev, u = u, np.sqrt(2.0 / (m + 1)) * x * u - np.sqrt(m / (m + 1.0)) * u_prev
        u_prev, u, exponent = _reference_rescale(m, u_prev, u, exponent)


def _reference_laguerre_rows(y, n_modes):
    """The Laguerre recurrence in difference form with every row's exponent
    stored and its scale applied to it at the end."""
    out = np.empty((n_modes, y.size))
    exponents = np.empty((n_modes, y.size), dtype=int)
    mantissa, exponent = _weyl_start(y, 0)
    diff, cur, exponent = np.zeros_like(y), np.ones_like(y), exponent[0]
    for n in range(n_modes):
        out[n] = cur
        exponents[n] = exponent
        diff = (n * diff - y * cur) / (n + 1)
        cur = cur + diff
        diff, cur, exponent = _reference_rescale(n + 1, diff, cur, exponent)
    return np.ldexp(out * mantissa[0], exponents)


def test_lean_recurrences_are_bit_identical(basis400):
    # far points (x = 45) and large y (3e4) both rescale many times
    x = np.concatenate([basis400.grid - 2.6, np.linspace(-45.0, 45.0, 301)])
    with np.errstate(under="ignore"):
        reference = np.array(list(itertools.islice(_reference_hermite_iter(x), 400)))
        assert np.array_equal(hermite_rows(400, x), _floor(reference))
        y = np.concatenate([np.linspace(0.0, 3.0e4, 300),
                            np.random.default_rng(0).uniform(0.0, 100.0, 50)])
        for n_modes in (1, 9, 2000):
            assert np.array_equal(_laguerre_rows(y, n_modes),
                                  _reference_laguerre_rows(y, n_modes))


@pytest.mark.parametrize("y, n", [(5e-5, 566), (5e-3, 799), (0.045, 1999),
                                  (2 * np.pi ** 2 * 15 ** 2, 1119),
                                  (2 * np.pi ** 2 * 20 ** 2, 1998)])
def test_laguerre_rows_match_mpmath(y, n):
    # e^{-y/2} L_n(y) against 40-digit values: the three-term recurrence
    # read 4.2e-12, 2.2e-12 and 7.6e-13 off at the three small y.  y = 0.045
    # is the degree +-1 column of the bump's diagonals at hbar = 0.3; the
    # large y, the circle generator's columns k = 15 and 20, are each at the
    # n of largest error in 0..1999, where a running log scale, its rounding
    # |ln| eps amplified by exp, read 2.6e-15 and 2.7e-14, and exact binary
    # exponents read 5.6e-16 and 1.0e-16, the recurrence's own rounding
    with mpmath.workdps(40):
        exact = mpmath.exp(-mpmath.mpf(y) / 2) * mpmath.laguerre(n, 0, mpmath.mpf(y))
        assert abs(_laguerre_rows(np.array([y]), n + 1)[n, 0] - float(exact)) < 1e-15


def _mpmath_weyl_column(d, y, n_max):
    """H_n^(d)(y) = e^{-y/2} y^{d/2} sqrt(n! / (n + d)!) L_n^(d)(y), n <= n_max, at 60 digits.

    L_n^(d) by its three-term recurrence in n, exact up to the working
    precision, so the reference shares no rounding with the kernel."""
    with mpmath.workdps(60):
        y = mpmath.mpf(y)
        scale = mpmath.exp(-y / 2) * y ** (mpmath.mpf(d) / 2) / mpmath.sqrt(mpmath.factorial(d))
        prev, cur, out = mpmath.mpf(0), mpmath.mpf(1), []
        for n in range(n_max + 1):
            out.append(float(scale * cur))
            prev, cur = cur, ((2 * n + d + 1 - y) * cur - (n + d) * prev) / (n + 1)
            scale *= mpmath.sqrt(mpmath.mpf(n + 1) / (n + d + 1))
        return np.array(out)


def _section_rescales(monkeypatch):
    """The masks ``_rescale`` returns on (degrees) x (y) arrays while the test runs."""
    masks, original = [], oscillator._rescale

    def counted(prev, cur, exponent):
        big = original(prev, cur, exponent)
        if big is not None and cur.ndim == 2:
            masks.append(big)
        return big

    monkeypatch.setattr(oscillator, "_rescale", counted)
    return masks


# the largest y that _kept_columns keeps at 800 modes is about 5335
WEYL_PIN_Y = (HBAR ** 2 / 2, 2.0, 97.3, 611.0, 1100.0, 1590.0, 2 * np.pi ** 2 * 15 ** 2, 5335.0)


def test_weyl_sums_match_mpmath_across_the_rescales(monkeypatch):
    # H_n^(d)(y) from one-hot weight sets, against 60-digit values over whole
    # columns in n, at 800 modes: from y = hbar^2 / 2 (the bump's degree +-1
    # column at hbar 0.3) to the largest kept y, whose columns rescale
    # seven times.  Each error is taken relative to the column's running
    # maximum |H_m|, m <= n, so the tiny values of the far columns, which
    # grow from e^{-y/2}, are held to their own scale; below 1e-200 a value
    # may read 0 (its scaled weight underflows), far under SUBNORMAL_FLOOR.
    # The worst reads 1.0e-14 (8.6e-15 for the form on H itself)
    n_modes, y = 800, np.array(WEYL_PIN_Y)
    masks = _section_rescales(monkeypatch)
    weights = np.zeros((y.size, n_modes, y.size))
    weights[np.arange(y.size), :, np.arange(y.size)] = 1.0
    with np.errstate(under="ignore"):
        table = list(oscillator._weyl_sums(y, np.arange(n_modes), weights, n_modes))
    rescaled = np.zeros((n_modes, y.size), dtype=int)
    for mask in masks:
        rescaled[:len(mask)] += mask
    # the most rescales of one (d, y) point, for the y above 555
    assert (rescaled.max(axis=0)[3:] >= [1, 1, 2, 7, 7]).all()
    for j, yj in enumerate(y):
        for d in (0, 1, 12, 99, 399, 700, 799):
            expected = _mpmath_weyl_column(d, yj, n_modes - 1 - d)
            got = np.array([table[n][j, d] for n in range(n_modes - d)])
            envelope = np.maximum.accumulate(np.abs(expected))
            kept = envelope > 1e-200
            error = np.abs(got - expected)[kept] / envelope[kept]
            assert error.max(initial=0.0) < 2.5e-14, (yj, d)


def _grid_terms(a, n_modes, centre=0.0, real=None):
    """The (shift, values) terms of a's section for ``_reference_section``.

    Each coefficient is cut to its modes |k| <= ``band_limit(N)`` and read at
    x + centre, and is taken as its real part when its samples are real
    (or when real says so).
    """
    def band_function(k, c, real_part):
        return lambda x: trig_sum(k, c, x).real if real_part else trig_sum(k, c, x)

    terms = []
    for n, f in a.items():
        k, c, _ = f.band(band_limit(n_modes))
        real_part = not f.samples.imag.any() if real is None else real
        terms.append((n * a.hbar, band_function(k, c * np.exp(2j * np.pi * centre * k),
                                                real_part)))
    return terms


@functools.lru_cache(maxsize=3)
def _hermite_table(n_modes, h, half, offset):
    """hermite_rows(n_modes, h (-half..half) + offset), read-only.

    The last three are kept: the oracles of one element's section and
    parity blocks, and of elements with the same shifts, read the same
    tables."""
    table = hermite_rows(n_modes, h * np.arange(-half, half + 1) + offset)
    table.flags.writeable = False
    return table


def _reference_section(terms, basis, parity_blocks=False):
    """The section by the trapezoid rule on the basis grid: the closed form's oracle.

    The grid keeps the basis spacing, is centred at the midpoint c of the
    shifts and is extended by their half-span, so every shifted factor
    keeps its window on it.  With x = sign (u + |c|), parity gives
    psi_n(x) = sign^n psi_n(u + |c|), and a table at a negative offset is a
    stored one read in reverse.  The section is one GEMM of the left table
    and the weighted right factor, per part of a complex weight; with
    parity_blocks, the two same-parity blocks, rows and columns p, p + 2, ...
    """
    n, h = basis.n_modes, basis.weight
    table = functools.partial(_hermite_table, n, h)
    shifts = [s for s, _ in terms]
    centre = 0.5 * (min(shifts) + max(shifts))
    extra = int(np.ceil(0.5 * (max(shifts) - min(shifts)) / h))
    half = basis.n_quad // 2 + extra
    u = h * np.arange(-half, half + 1)
    sign = -1.0 if centre < 0 else 1.0
    left = table(half, abs(centre))
    x = sign * (u + abs(centre))
    factors, values = [], []
    for s, f in terms:
        r = abs(centre) - sign * s
        factors.append((table(half, -r)[:, ::-1], True) if r < 0
                       else (table(half, r), False))
        values.append(h * np.broadcast_to(f(x), x.shape))
    parts = [np.real] + ([np.imag] if any(np.iscomplexobj(v) for v in values) else [])
    blocks = [slice(0, None, 2), slice(1, None, 2)] if parity_blocks else [slice(None)]
    sections = []
    for part in parts:
        kept = []
        for (rows, odd_flips), v in zip(factors, values):
            w = _floor(np.array(part(v), dtype=float))
            if w.any():
                kept.append((rows, w, -w if odd_flips else w))
        (first, even, odd), rest = kept[0], kept[1:]
        right = np.empty((n, u.size))
        for k in range(n):
            acc = np.multiply(first[k], odd if k & 1 else even, out=right[k])
            for rows, w, w_odd in rest:
                acc += rows[k] * (w_odd if k & 1 else w)
        sections.append([left[b] @ right[b].T for b in blocks])
    out = sections[0] if len(sections) == 1 else [re + 1j * im for re, im in zip(*sections)]
    if parity_blocks:
        return out
    (out,) = out
    if sign < 0:
        out[1::2] *= -1.0
        out[:, 1::2] *= -1.0
    return out


def _bit_identical(got, expected):
    return got.dtype == expected.dtype and np.array_equal(got, expected)


def _untrimmed(weyl_sums):
    """weyl_sums run on twice the window, so that no degree leaves it, cut to the window."""
    def run(y, degrees, weights, n_modes):
        counts = np.searchsorted(degrees, n_modes - np.arange(n_modes))
        for count, sums in zip(counts, weyl_sums(y, degrees, weights, 2 * n_modes)):
            yield sums[..., :count]
    return run


@pytest.mark.parametrize("n_modes", [200, 300, 500])
@pytest.mark.parametrize("case", ["bump", "UeU*"])
def test_trimmed_degrees_are_bit_identical_to_the_untrimmed_recurrence(case, n_modes,
                                                                       monkeypatch):
    # the recurrence drops each degree, with its slice of the weights (the
    # right factor of its sums), once it leaves the window; every degree
    # and y is its own column, so carrying the whole right factor through
    # all N steps gives every entry the same bits.  The real bump, half of
    # its localizer element and the complex U e U* (complex weights,
    # and represent's H(-i w) for all three)
    bump = rieffel_projection(1.3)
    elements = ([bump, AlgebraElement(1.3, {m: 0.5 * f if m == 0 else f
                                            for m, f in bump.items() if m >= 0})]
                if case == "bump" else [_section_case("UeU*")])
    centre = pairing._reflection_centre(bump)
    sections = [(represent(a, n_modes), _parity_sections(a, n_modes, centre)) for a in elements]
    monkeypatch.setattr(oscillator, "_weyl_sums", _untrimmed(oscillator._weyl_sums))
    for a, (section, blocks) in zip(elements, sections):
        assert _bit_identical(section, represent(a, n_modes))
        whole = _parity_sections(a, n_modes, centre)
        assert len(blocks) == 2 and all(map(_bit_identical, blocks, whole))


# the parity blocks and the whole section sum the modes that share y in
# another order: entries are O(1), so they agree to a few units of rounding
PANEL_TOL = 32 * np.finfo(float).eps


@pytest.mark.parametrize("n_modes", [400, 500, 800])
def test_parity_blocks_match_the_whole_section_of_the_centred_element(n_modes):
    # the two parity blocks of S + S^H, which the operator route builds
    # instead of the whole section, against both triangles of the whole
    # section of the centred element: half the localizer's element (real) and
    # U e U* (complex)
    bump = rieffel_projection(1.3)
    upper = AlgebraElement(1.3, {m: 0.5 * f if m == 0 else f for m, f in bump.items() if m >= 0})
    centre = pairing._reflection_centre(bump)
    for a in (upper, _section_case("UeU*")):
        centred = AlgebraElement(a.hbar, {m: f.shift(-centre) for m, f in a.items()})
        section = represent(centred, n_modes)
        section = section + section.conj().T
        blocks = _parity_sections(a, n_modes, centre)
        assert len(blocks) == 2
        for p, block in enumerate(blocks):
            assert block.dtype == (complex if a is not upper else float)
            assert np.abs(block - section[p::2, p::2]).max() < PANEL_TOL


def _oracle_elements(hbar):
    """The bump, half its localizer element, e_0 / 2 + e_1 [1], and the complex U e U*.

    ORACLE_TOL was measured on these weights; the localizer's own, e_0 + 2 e_1 [1],
    would double every entry and its rounding."""
    bump = rieffel_projection(hbar)
    u = AlgebraElement.circle_generator(hbar)
    return {
        "bump": bump,
        "localizer": AlgebraElement(hbar, {m: 0.5 * f if m == 0 else f
                                           for m, f in bump.items() if m >= 0}),
        "UeU*": alg_multiply(alg_multiply(u, bump), alg_adjoint(u)),
    }


ORACLE_HBARS = (1.3, -0.6, 6.88, -4.13, 9.78, -14.3)
# the worst case, the bump's parity blocks at 800 modes and hbar -14.3, reads
# 7.1e-15 at one and at two BLAS threads (2.44e-14 when the oracle's
# Hermite rows carried a running log scale)
ORACLE_TOL = 1.5e-14


@pytest.mark.parametrize("n_modes", [8, 50, 200, 400, 800])
def test_closed_form_sections_match_the_quadrature(n_modes):
    # represent and the parity blocks of S + S^H against the trapezoid rule
    # on the Nyquist grid, whose integrands are band-limited: rounding only.
    # At 800 modes the smallest and the largest translation only, since each
    # hbar there costs about 2 s of reference GEMMs
    basis = HermiteBasis(n_modes)
    for hbar in (1.3, -14.3) if n_modes == 800 else ORACLE_HBARS:
        centre = pairing._reflection_centre(rieffel_projection(hbar))
        for name, a in _oracle_elements(hbar).items():
            section = represent(a, n_modes)
            expected = _reference_section(_grid_terms(a, n_modes), basis)
            assert section.dtype == expected.dtype, (hbar, name)
            diff = np.abs(section - expected).max()
            assert diff < ORACLE_TOL, (hbar, name, diff)
            blocks = _parity_sections(a, n_modes, centre)
            expected = _reference_section(_grid_terms(a, n_modes, centre), basis,
                                          parity_blocks=True)
            for block, half in zip(blocks, expected, strict=True):
                assert block.dtype == half.dtype, (hbar, name)
                diff = np.abs(block - (half + half.conj().T)).max()
                assert diff < ORACLE_TOL, (hbar, name, diff)


def test_represent_matches_the_quadrature_where_columns_rescale(monkeypatch):
    # modes up to k = 9 put y up to 2 pi^2 81 = 1599 in the window, whose
    # H_0 = e^{-y/2} starts below 2^-400: their columns rescale, on both
    # stacked weight sets w and -i w, and still hold the oracle's bound
    masks = _section_rescales(monkeypatch)
    e = PeriodicFunction.exponential
    for n_modes in (200, 400):
        basis = HermiteBasis(n_modes)
        for hbar in (1.3, -0.6):
            a = AlgebraElement(hbar, {0: e(6) + 0.25 * e(-4), 3: 0.5j * e(-7),
                                      -2: e(9) - 0.3 * e(2)})
            masks.clear()
            section = represent(a, n_modes)
            assert masks, (n_modes, hbar)
            diff = np.abs(section - _reference_section(_grid_terms(a, n_modes), basis)).max()
            assert diff < ORACLE_TOL, (n_modes, hbar, diff)


def _reference_algebra_diagonals(a, n_modes):
    """rows @ (c * phase) with one Laguerre column per mode: no y merged, none culled."""
    ks, shifts, cs = [], [], []
    for m, f in a.items():
        k, c, _ = f.band(band_limit(n_modes))
        ks.append(k)
        shifts.append(np.full(k.shape, m * a.hbar))
        cs.append(c)
    k, shift = np.concatenate(ks), np.concatenate(shifts)
    y = 0.5 * (shift * shift + 4.0 * np.pi ** 2 * k * k)
    return _laguerre_rows(y, n_modes) @ (np.concatenate(cs) * np.exp(1j * np.pi * k * shift))


@pytest.mark.parametrize("n_modes", [257, 600, 2000])
def test_algebra_diagonals_match_one_laguerre_column_per_mode(n_modes):
    # the modes that share y summed into one column and the y culled by
    # their tail bound move each diagonal by rounding only
    for hbar in (0.3, 1.3, 2.05, -4.13, 9.78, -14.3):
        for a in (rieffel_projection(hbar), AlgebraElement.circle_generator(hbar)):
            d = algebra_diagonals(a, n_modes)
            diff = np.abs(d - _reference_algebra_diagonals(a, n_modes)).max()
            assert d.dtype == complex and diff < 2e-15, (hbar, diff)


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
    return message.split(":")[0], kmax, mass


def test_band_limit_is_logged(caplog, p03):
    caplog.set_level(logging.DEBUG, logger="nctorus.oscillator")
    for n_modes, call, caller in (
        (200, lambda: represent(p03, 200), "represent"),
        (2000, lambda: algebra_diagonals(p03, 2000), "algebra_diagonals"),
    ):
        name, kmax, mass = _logged(caplog, call)
        assert name == caller
        assert kmax == band_limit(n_modes)
        expected = sum(
            np.abs(f.coefficients[np.abs(f.modes) > kmax]).sum() for _, f in p03.items()
        )
        assert abs(mass - expected) <= 1e-5 * expected
