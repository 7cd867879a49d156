"""Truncated Hermite-basis model of L^2(R).

Provides stable evaluation of the orthonormal oscillator eigenfunctions,
dense matrices of the ladder operators, of multiplication and translation
operators, the line representation of rotation-algebra elements, and a
streaming routine for the diagonal matrix elements used by spectral zeta
sums.

Quadrature is a uniform grid on [-L, L] with L = sqrt(2N+3) + 6 and
K = 8N + 1 points: integrands are products of Hermite functions with
bounded smooth factors and decay like exp(-x^2/2) beyond the classical
turning point, so the trapezoid weights are spectrally accurate and the
shifted-grid samples needed by translation matrices can be reused.

Truncation-edge convention: homomorphism and commutation identities are
asserted on the top-left floor(N/2) block only; full-matrix violations near
the edge are expected and are not defects.
"""

from functools import cached_property

import numpy as np

_RESCALE_EVERY = 8
_RESCALE_LIMIT = 1e120
# quadrature half-width beyond the classical turning point sqrt(2N + 3)
QUAD_PAD = 6.0
# quadrature points per mode: K = QUAD_DENSITY * N + 1
QUAD_DENSITY = 8


def _hermite_iter(x):
    """Yield psi_0(x), psi_1(x), ... on an array, with per-point rescaling.

    The three-term recurrence is run on ratios u_n = psi_n * exp(-ln) with a
    per-point log offset ln, renormalized every few steps, so values stay
    representable far outside the classical region (where psi_0 underflows
    but high modes do not).
    """
    x = np.asarray(x, dtype=float)
    ln = -0.5 * x * x - 0.25 * np.log(np.pi)
    u_prev = np.ones_like(x)
    u = np.sqrt(2.0) * x
    n = 0
    while True:
        with np.errstate(under="ignore"):
            yield u_prev * np.exp(ln)
        m = n + 1
        u_next = np.sqrt(2.0 / (m + 1)) * x * u - np.sqrt(m / (m + 1.0)) * u_prev
        u_prev, u = u, u_next
        if m % _RESCALE_EVERY == 0:
            mag = np.abs(u)
            big = mag > _RESCALE_LIMIT
            if big.any():
                scale = np.where(big, 1.0 / _RESCALE_LIMIT, 1.0)
                u_prev = u_prev * scale
                u = u * scale
                ln = ln + np.where(big, np.log(_RESCALE_LIMIT), 0.0)
        n += 1


def hermite_eval(n, x):
    """Value of the nth orthonormal Hermite function at x (scalar or array)."""
    if n < 0:
        raise ValueError("mode index must be nonnegative")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    it = _hermite_iter(np.atleast_1d(x))
    for _ in range(n):
        next(it)
    row = next(it)
    return float(row[0]) if scalar else row


def hermite_rows(n_modes, x):
    """Matrix of psi_n(x_j) for n = 0..n_modes-1 over the points x."""
    x = np.asarray(x, dtype=float)
    rows = np.empty((n_modes, x.shape[0]))
    it = _hermite_iter(x)
    for n in range(n_modes):
        rows[n] = next(it)
    return rows


class HermiteBasis:
    """First N oscillator eigenfunctions with a shared uniform quadrature."""

    def __init__(self, n_modes):
        n_modes = int(n_modes)
        if n_modes < 2:
            raise ValueError("need at least two modes")
        self.n_modes = n_modes
        self.half_width = np.sqrt(2.0 * n_modes + 3.0) + QUAD_PAD
        self.n_quad = QUAD_DENSITY * n_modes + 1
        self.grid = np.linspace(-self.half_width, self.half_width, self.n_quad)
        self.weight = self.grid[1] - self.grid[0]

    @cached_property
    def rows(self):
        """psi_n on the quadrature grid, shape (N, K)."""
        return hermite_rows(self.n_modes, self.grid)

    def gram_defect(self):
        """Max deviation of the quadrature Gram matrix from the identity."""
        return float(np.abs(translation_matrix(0.0, self) - np.eye(self.n_modes)).max())

    def __repr__(self):
        return (
            f"HermiteBasis(N={self.n_modes}, L={self.half_width:.2f}, "
            f"K={self.n_quad})"
        )


def ladder_matrices(basis):
    """Ladder pair, oscillator, block Dirac matrix and grading.

    Returns (A, A*, H, D, grading) with A the lower shift of entries
    sqrt(2k), H = diag(2n+1), D the 2N x 2N block matrix [[0, A*], [A, 0]]
    and grading diag(I, -I).  The relations A A* = H + 1 and A* A = H - 1
    hold exactly away from the last mode.
    """
    n = basis.n_modes
    a = np.zeros((n, n))
    ks = np.arange(1, n)
    a[ks - 1, ks] = np.sqrt(2.0 * ks)
    h = np.diag(2.0 * np.arange(n) + 1.0)
    d = np.zeros((2 * n, 2 * n))
    d[:n, n:] = a.T
    d[n:, :n] = a
    grading = np.diag(np.concatenate([np.ones(n), -np.ones(n)]))
    return a, a.T, h, d, grading


def _matrix_elements(values, alpha, basis):
    """Quadrature matrix of int v psi_m psi_n(. - alpha), v sampled on the grid.

    A complex v runs as two real GEMMs, half the flops of the complex GEMM
    that numpy would upcast complex-by-real to.
    """
    weighted = basis.weight * np.asarray(values)
    shifted = basis.rows if alpha == 0 else hermite_rows(basis.n_modes, basis.grid - alpha)
    if np.iscomplexobj(weighted):
        return ((basis.rows * weighted.real) @ shifted.T
                + 1j * ((basis.rows * weighted.imag) @ shifted.T))
    return (basis.rows * weighted) @ shifted.T


def multiplication_matrix(f, basis):
    """Matrix of multiplication by f: entries quad(f psi_m psi_n)."""
    return _matrix_elements(f(basis.grid), 0.0, basis)


def translation_matrix(alpha, basis):
    """Matrix of the shift xi(x) -> xi(x - alpha); unitary up to the edge."""
    return _matrix_elements(1.0, alpha, basis)


def represent(a, basis):
    """Finite section P pi(a) P of pi(a) = sum_n f_n T(n hbar) on the basis.

    Each degree n is one quadrature of f_n psi_j psi_k(. - n hbar): a single
    translation by n*hbar of either sign, not a product P M_f P . P T P.
    """
    out = np.zeros((basis.n_modes, basis.n_modes), dtype=complex)
    for n, f in a.items():
        out += _matrix_elements(f(basis.grid), n * a.hbar, basis)
    return out


def diagonal_elements(weighted_shifts, n_modes):
    """Streaming diagonal matrix elements d_n = quad(w(x) psi_n(x-a) psi_n(x)).

    ``weighted_shifts`` is a sequence of (weight, shift) pairs where weight
    is a callable on real arrays; the result has one row per pair.  All
    pairs share one quadrature grid and one pass of the rescaled recurrence,
    so computing several weights at once is nearly free.
    """
    pairs = list(weighted_shifts)
    shifts = [float(a) for _, a in pairs]
    span = max([0.0] + [abs(a) for a in shifts])
    half_width = np.sqrt(2.0 * n_modes + 3.0) + QUAD_PAD + span
    x = np.linspace(-half_width, half_width, QUAD_DENSITY * n_modes + 1)
    step = x[1] - x[0]
    weights = [np.asarray(w(x)) * step for w, _ in pairs]

    iters = {0.0: _hermite_iter(x)}
    for a in shifts:
        if a not in iters:
            iters[a] = _hermite_iter(x - a)

    out = np.zeros((len(pairs), n_modes), dtype=complex)
    for n in range(n_modes):
        row = {a: next(it) for a, it in iters.items()}
        base = row[0.0]
        for i, (wv, a) in enumerate(zip(weights, shifts)):
            shifted = base if a == 0.0 else row[a]
            out[i, n] = (wv * shifted * base).sum()
    return out


def algebra_diagonals(a, n_modes):
    """Diagonal elements <pi(a) psi_n, psi_n> of a represented algebra element."""
    pairs = [(f, n * a.hbar) for n, f in a.items()]
    return diagonal_elements(pairs, n_modes).sum(axis=0)
