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
    translation_matrix,
)
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


def test_represent_projection_is_a_compression(p03, basis400):
    # P pi(e) P of a projection e is self-adjoint with spectrum in [0, 1]
    rep = represent(p03, basis400)
    assert np.abs(rep - rep.conj().T).max() < 1e-3
    evals = np.linalg.eigvalsh(0.5 * (rep + rep.conj().T))
    assert evals.min() > -1e-5
    assert evals.max() < 1.0 + 1e-5


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
