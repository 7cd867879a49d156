"""Truncated Hermite-basis model of L^2(R).

Provides stable evaluation of the orthonormal oscillator eigenfunctions
psi_n, dense matrices of the ladder operators and of multiplication and
translation operators, the finite section of the line representation of
rotation-algebra elements, and the diagonal matrix elements used by heat
traces and spectral zeta sums.

Matrices are quadratures on a uniform grid on [-L, L] with L = sqrt(2N+3) + 6
and K = 8N + 1 points: integrands are products of Hermite functions with
bounded smooth factors and decay like exp(-x^2/2) beyond the classical
turning point, so the trapezoid weights are spectrally accurate.

An algebra coefficient reaches the N-mode window only through its Fourier
modes |k| <= ``band_limit(N)``; the rest couple nothing there (the tail
bound is in ``band_limit``) and would only alias into the grid, so
``represent`` and ``algebra_diagonals`` drop them.  Diagonal elements of
algebra elements need no quadrature: in the Weyl (Laguerre) form

    <psi_n, e^{2 pi i k x} psi_n(. - a)> = e^{i pi k a} e^{-y/2} L_n(y),
    y = (a^2 + 4 pi^2 k^2) / 2.

``mode_diagonals`` is this closed form for any Fourier modes, of any
period; it serves ``algebra_diagonals`` and the periodic weights of
``heatzeta.spectral_diagonals``.  ``diagonal_elements`` keeps the
quadrature for weights with no Fourier data: callables on the line of
limit or generic type.

Hermite values and quadrature weights below ``SUBNORMAL_FLOOR`` =
cbrt(tiny) (about 2.8e-103) are stored as 0.  A product of three kept
factors, one entry of a quadrature GEMM, is then never subnormal, which
x86 computes in microcode at several times the cost.  Each dropped term is
below 2.8e-103 times a Hermite value and a weight, far under the rounding
of any entry of order 1e-100 or more, so the sections and the Gram matrix
are unchanged in practice.

Truncation-edge convention: homomorphism and commutation identities are
asserted on the top-left floor(N/2) block only; full-matrix violations near
the edge are expected and are not defects.
"""

import itertools
import logging
from functools import cached_property

import numpy as np

from .periodic import trig_sum

_RESCALE_EVERY = 8
_RESCALE_LIMIT = 1e120
# quadrature half-width beyond the classical turning point sqrt(2N + 3)
QUAD_PAD = 6.0
# quadrature points per mode: K = QUAD_DENSITY * N + 1
QUAD_DENSITY = 8
# kept Hermite values and quadrature weights are at least this in magnitude
SUBNORMAL_FLOOR = np.cbrt(np.finfo(float).tiny)

logger = logging.getLogger(__name__)


def _rescale(step, prev, cur, log_scale):
    """One rescale check of a three-term recurrence with a per-point log scale.

    Every ``_RESCALE_EVERY`` steps, prev and cur are divided by
    ``_RESCALE_LIMIT`` where |cur| exceeds it, and its log is added to
    log_scale there; returns the new (prev, cur, log_scale).
    """
    if step % _RESCALE_EVERY == 0:
        big = np.abs(cur) > _RESCALE_LIMIT
        if big.any():
            scale = np.where(big, 1.0 / _RESCALE_LIMIT, 1.0)
            return (prev * scale, cur * scale,
                    log_scale + np.where(big, np.log(_RESCALE_LIMIT), 0.0))
    return prev, cur, log_scale


def _hermite_iter(x):
    """Yield psi_0(x), psi_1(x), ... on an array, with per-point rescaling.

    The three-term recurrence is run on ratios u_n = psi_n * exp(-ln) with a
    per-point log offset ln, renormalized every few steps (``_rescale``),
    so values stay representable far outside the classical region (where
    psi_0 underflows but high modes do not).  ``exp(ln)`` underflows there: each consumer
    runs the whole iteration under one ``np.errstate(under="ignore")``,
    since a context entered here would be held across yields and its state
    would leak into the consumer while the generator is suspended.
    """
    x = np.asarray(x, dtype=float)
    ln = -0.5 * x * x - 0.25 * np.log(np.pi)
    u_prev = np.ones_like(x)
    u = np.sqrt(2.0) * x
    for m in itertools.count(1):
        yield u_prev * np.exp(ln)
        u_prev, u = u, np.sqrt(2.0 / (m + 1)) * x * u - np.sqrt(m / (m + 1.0)) * u_prev
        u_prev, u, ln = _rescale(m, u_prev, u, ln)


def _floor(values):
    """Set the entries of values below ``SUBNORMAL_FLOOR`` in magnitude to 0, in place."""
    values[(values < SUBNORMAL_FLOOR) & (values > -SUBNORMAL_FLOOR)] = 0.0
    return values


def hermite_rows(n_modes, x):
    """Matrix of psi_n(x_j) for n = 0..n_modes-1 over the points x.

    Values below ``SUBNORMAL_FLOOR`` in magnitude are stored as 0.
    """
    x = np.asarray(x, dtype=float)
    rows = np.empty((n_modes, x.shape[0]))
    it = _hermite_iter(x)
    with np.errstate(under="ignore"):
        for n in range(n_modes):
            rows[n] = next(it)
    return _floor(rows)


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
    that numpy would upcast complex-by-real to.  Weights below
    ``SUBNORMAL_FLOOR`` are dropped, as in ``hermite_rows``.
    """
    weighted = np.atleast_1d(basis.weight * np.asarray(values))
    shifted = basis.rows if alpha == 0 else hermite_rows(basis.n_modes, basis.grid - alpha)
    if np.iscomplexobj(weighted):
        return ((basis.rows * _floor(weighted.real)) @ shifted.T
                + 1j * ((basis.rows * _floor(weighted.imag)) @ shifted.T))
    return (basis.rows * _floor(weighted)) @ shifted.T


def multiplication_matrix(f, basis):
    """Matrix of multiplication by f: entries quad(f psi_m psi_n).

    f is evaluated on the whole quadrature grid, every Fourier mode of a
    ``PeriodicFunction`` included, unlike the band-limited ``represent``.
    No library code calls it: the tests check the shared quadrature of
    ``_matrix_elements`` through it against a Gaussian-integral oracle, and
    the benchmark's tracing hooks it.
    """
    return _matrix_elements(f(basis.grid), 0.0, basis)


def translation_matrix(alpha, basis):
    """Matrix of the shift xi(x) -> xi(x - alpha); unitary up to the edge.

    At alpha = 0 it is the quadrature Gram matrix.  No library code calls
    it: the tests check the Gram defect, unitarity and a Gaussian overlap
    through it, and the benchmark's tracing hooks it.
    """
    return _matrix_elements(1.0, alpha, basis)


def band_limit(n_modes):
    """Highest Fourier mode kmax = ceil(2 sqrt(2N) / pi) kept on N modes.

    psi_m psi_n with m, n < N carries frequencies up to about 2 sqrt(2N)
    radians, so e^{2 pi i k x} couples nothing in the window once
    |k| > sqrt(2N) / pi; kmax is twice that edge.

    Tail bound: for |k| > kmax, m, n < N and any shift a, y =
    (a^2 + 4 pi^2 k^2) / 2 exceeds 16N, and the displacement-operator series
    bounds the matrix element term by term:

        |<psi_m, e^{2 pi i k x} psi_n(. - a)>|
            <= e^{-y/2} y^{(m+n)/2} e^{mn/y} / sqrt(m! n!) <= e^{-4N}.

    Dropping the modes |k| > kmax of a coefficient c therefore moves each
    entry of an N-mode section by at most e^{-4N} sum_{|k|>kmax} |c_k|,
    which is zero in double precision: a K-point quadrature of such an
    element reads rounding only, of order sqrt(K) times the unit roundoff.
    """
    return int(np.ceil(2.0 * np.sqrt(2.0 * n_modes) / np.pi))


def _bands(a, n_modes, caller):
    """(degree, modes, coefficients) of each coefficient of a within the band limit.

    Logs kmax and the neglected-coefficient mass, summed over degrees, at
    DEBUG on the ``nctorus.oscillator`` logger.
    """
    kmax = band_limit(n_modes)
    bands, neglected = [], 0.0
    for n, f in a.items():
        k, c, tail = f.band(kmax)
        bands.append((n, k, c))
        neglected += tail
    logger.debug("%s: N=%d kmax=%d neglected coefficient mass=%.6g",
                 caller, n_modes, kmax, neglected)
    return bands


def represent(a, basis):
    """Finite section P pi(a) P of pi(a) = sum_n f_n T(n hbar) on the basis.

    Each degree n is one quadrature of f_n psi_j psi_k(. - n hbar): a single
    translation by n*hbar of either sign, not a product P M_f P . P T P.
    f_n is evaluated on the grid from its modes |k| <= ``band_limit(N)``,
    so no out-of-band mode aliases into the section.

    Multiplication by a real f_n and translation both map real functions to
    real functions, so a coefficient with real samples is taken as the real
    part of its band, and its degree is one real GEMM.  The section of an
    element whose coefficients are all real is a float64 array; any complex
    coefficient makes it complex.
    """
    out = np.zeros((basis.n_modes, basis.n_modes))
    for n, k, c in _bands(a, basis.n_modes, "represent"):
        values = trig_sum(k, c, basis.grid)
        if not a.coefficient(n).samples.imag.any():
            values = values.real
        out = out + _matrix_elements(values, n * a.hbar, basis)
    return out


def diagonal_elements(weighted_shifts, n_modes):
    """Diagonal matrix elements d_n = quad(w(x) psi_n(x - a) psi_n(x)), n < n_modes.

    For weights known only as callables on the line (periodic weights have
    the closed form of ``mode_diagonals``).  ``weighted_shifts`` is
    a sequence of (weight, shift) pairs; the result has one row per pair.
    The quadrature is the uniform (QUAD_DENSITY n_modes + 1)-point rule on
    [-L - s, L + s], s the largest |shift|, and the Hermite recurrence is
    streamed, so that no rows are stored.  The list-of-pairs form is the
    one the benchmark's tracing counts.
    """
    pairs = [(w, float(a)) for w, a in weighted_shifts]
    span = max([0.0] + [abs(a) for _, a in pairs])
    half_width = np.sqrt(2.0 * n_modes + 3.0) + QUAD_PAD + span
    x = np.linspace(-half_width, half_width, QUAD_DENSITY * n_modes + 1)
    step = x[1] - x[0]
    out = np.zeros((len(pairs), n_modes), dtype=complex)
    for i, (w, a) in enumerate(pairs):
        wv = np.asarray(w(x)) * step
        base = _hermite_iter(x)
        shifted = _hermite_iter(x - a) if a != 0.0 else None
        with np.errstate(under="ignore"):
            for n in range(n_modes):
                row = next(base)
                out[i, n] = (wv * (row if shifted is None else next(shifted)) * row).sum()
    return out


def _laguerre_rows(y, n_modes):
    """e^{-y/2} L_n(y) for n < n_modes at each y >= 0, shape (n_modes, len(y)).

    The three-term recurrence (n + 1) L_{n+1} = (2n + 1 - y) L_n - n L_{n-1}
    runs with a per-column log scale, so that large y neither overflows L_n
    nor underflows e^{-y/2}.  The scale is checked every ``_RESCALE_EVERY``
    steps by ``_rescale``, as in ``_hermite_iter``: one step grows |L_n| by
    at most about y + 2 (3.3e4 at 2000 modes), so 8 steps from 1e120 stay
    far below overflow.  Each row's log scale is kept and applied in one ``exp`` at
    the end.
    """
    out = np.empty((n_modes, y.size))
    logs = np.empty((n_modes, y.size))
    prev, cur, log_scale = np.zeros_like(y), np.ones_like(y), -0.5 * y
    with np.errstate(under="ignore"):
        for n in range(n_modes):
            out[n] = cur
            logs[n] = log_scale
            prev, cur = cur, ((2 * n + 1 - y) * cur - n * prev) / (n + 1)
            prev, cur, log_scale = _rescale(n + 1, prev, cur, log_scale)
        out *= np.exp(logs)
    return out


def mode_diagonals(k, shift, n_modes, period=1.0):
    """Closed-form diagonal elements of Fourier modes, as rows and phases.

    For the mode e^{i xi x}, xi = 2 pi k / period, and a shift a (arrays of
    one length, or a scalar shift),

        <e^{i xi x} psi_n(. - a), psi_n> = e^{i xi a / 2} e^{-y/2} L_n(y),
        y = (a^2 + xi^2) / 2.

    Returns (rows, phase): rows[n, j] = e^{-y_j/2} L_n(y_j) for n < n_modes
    by ``_laguerre_rows``, and phase[j] = e^{i xi_j a_j / 2}, so a weight
    with coefficients c_j on these modes has diagonals rows @ (c * phase).
    This is the one closed form behind ``algebra_diagonals`` and the
    periodic route of ``heatzeta.spectral_diagonals``.
    """
    y = 0.5 * (shift * shift + 4.0 * np.pi ** 2 * k * k / period ** 2)
    return _laguerre_rows(y, n_modes), np.exp(1j * np.pi * k * shift / period)


def algebra_diagonals(a, n_modes):
    """Diagonal elements <pi(a) psi_n, psi_n>, n < n_modes, in closed form.

    With c_k the modes |k| <= ``band_limit(n_modes)`` of the degree-m
    coefficient and s = m hbar,

        d_n = sum_m sum_k c_k e^{i pi k s} e^{-y/2} L_n(y),
        y = (s^2 + 4 pi^2 k^2) / 2,

    by ``mode_diagonals``; no quadrature, so nothing aliases.  The dropped
    modes move each d_n by at most e^{-4 n_modes} times their mass (see
    ``band_limit``).  n_modes < 1 raises ValueError.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    ks, shifts, cs = [], [], []
    for m, k, c in _bands(a, n_modes, "algebra_diagonals"):
        ks.append(k)
        shifts.append(np.full(k.shape, m * a.hbar))
        cs.append(c)
    rows, phase = mode_diagonals(np.concatenate(ks), np.concatenate(shifts), n_modes)
    return rows @ (np.concatenate(cs) * phase)
