"""Truncated Hermite-basis model of L^2(R).

Provides stable evaluation of the orthonormal oscillator eigenfunctions
psi_n, dense matrices of the ladder operators and of multiplication and
translation operators, the finite section of the line representation of
rotation-algebra elements, and the diagonal matrix elements used by heat
traces and spectral zeta sums.

Sections need no quadrature.  A coefficient acts by multiplication and
[1] by translation, so each Fourier mode of a degree-m coefficient is a
Weyl displacement operator (Cahill and Glauber, Phys. Rev. 177, 1969):

    <psi_i, e^{2 pi i k x} psi_j(. - s)> = e^{i pi k s} D(beta)[i, j],
    beta = (s + 2 pi i k) / sqrt 2,  y = |beta|^2 = (s^2 + 4 pi^2 k^2) / 2,

with s = m hbar, D(beta)[n + d, n] = (beta / |beta|)^d H_n^(d)(y) and
D(beta)[n, n + d] = (-conj(beta) / |beta|)^d H_n^(d)(y), H_n^(d)(y) =
e^{-y/2} y^{d/2} sqrt(n! / (n + d)!) L_n^(d)(y).  Every section and
diagonal comes from one Hermitian H(w) = S + S^H, S the sum of the
displacements with weights w: entry [n + d, n] is sum (w + (-1)^d conj w)
(beta / |beta|)^d H_n^(d)(y), and [n, n + d] its conjugate.
``_weyl_sums`` runs the Laguerre recurrence in n, in difference form,
once over every degree d and distinct y, modes that share y (k and -k,
degrees m and -m) summed first: N steps over a (degrees) x (distinct y)
array, the sections' only working set besides themselves.
``_parity_sections`` writes H(w) whole, or its even d as its two
reflection-parity blocks; ``represent`` is S = (H(w) + i H(-i w)) / 2,
and ``multiplication_matrix`` and ``translation_matrix`` are
``represent`` of f [0] and of 1 [1] at hbar = alpha.  Nothing aliases,
and a y whose tail bound (``band_limit``) is below ``SUBNORMAL_FLOOR`` on
the window is skipped.

A coefficient reaches the N-mode window only through its modes
|k| <= ``band_limit(N)``, so ``represent`` and ``algebra_diagonals`` drop
the rest.  The diagonal, d = 0, is ``algebra_diagonals``, d_n = sum_m
sum_k c_k e^{i pi k s} e^{-y/2} L_n(y): the same identity at d = 0, where
the column weights of H(w) and H(-i w) are 2 Re w and 2 Im w summed over
the modes that share y, on ``_laguerre_rows``, the d = 0 recurrence in
difference form.  ``diagonal_elements`` keeps a quadrature, on the
diagonal only, for callables on the line of limit or generic type
(periodic weights and every shift need no diagonals: their zeta values
are Mellin integrals of their heat traces in ``heatzeta``).

The recurrences ``_hermite_iter``, ``_laguerre_rows`` and ``_weyl_sums``
share one number format, no log scale: a row stands for row * m 2^e, m
and e from their start (``_weyl_start``), e raised exactly by ``_rescale``.

``HermiteBasis``' grid serves only its ``rows``; ``hermite_rows`` stores
values below ``SUBNORMAL_FLOOR`` = cbrt(tiny) (about 2.8e-103) as 0, so a
product of three kept factors is never subnormal, which x86 computes in
microcode at several times the cost.

Truncation-edge convention: homomorphism and commutation identities are
asserted on the top-left floor(N/2) block only; full-matrix violations near
the edge are expected and are not defects.
"""

import itertools
import logging
import math
import operator
from functools import cached_property

import numpy as np

from .algebra import AlgebraElement
from .periodic import PeriodicFunction

_RESCALE_EVERY = 8
_RESCALE_LIMIT = 1e120
# quadrature half-width beyond the classical turning point sqrt(2N + 3)
QUAD_PAD = 6.0
# quadrature points per mode of ``diagonal_elements``, whose weights have no
# band limit: K = QUAD_DENSITY max(N, 2000) + 1 (band_limit sets the basis')
QUAD_DENSITY = 8
# kept Hermite values are at least this in magnitude, and so is the tail
# bound of every distinct y a section keeps
SUBNORMAL_FLOOR = np.cbrt(np.finfo(float).tiny)
# _rescale divides by 2^_RESCALE_BITS, about _RESCALE_LIMIT
_RESCALE_BITS = 400
# ln 2 = _LN2_HI + _LN2_LO, _LN2_HI with 21 trailing zero bits (fdlibm's split)
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
# rows of sqrt(y / d) multiplied between exponent carries in _weyl_start
_START_ROWS = 16

logger = logging.getLogger(__name__)


def _rescale(prev, cur, exponent):
    """One exact rescale of a two-row recurrence with per-point binary exponents.

    Where |cur| exceeds ``_RESCALE_LIMIT``, prev and cur are divided by
    2^``_RESCALE_BITS`` and exponent is raised by as much; returns the new
    (prev, cur, exponent), the inputs themselves when no point exceeds it.
    The recurrences call it every ``_RESCALE_EVERY`` steps.
    """
    big = np.abs(cur) > _RESCALE_LIMIT
    if big.any():
        bits = np.where(big, _RESCALE_BITS, 0)
        return np.ldexp(prev, -bits), np.ldexp(cur, -bits), exponent + bits
    return prev, cur, exponent


def _hermite_iter(x):
    """Yield psi_0(x), psi_1(x), ... on a 1-D array, with per-point rescaling.

    The three-term recurrence runs on u_n = psi_n / (m 2^e), m 2^e =
    pi^{-1/4} e^{-x^2/2} at the start: x^2 = square + tail exactly (Dekker's
    split, Numer. Math. 18, 1971), ``_weyl_start`` of square, and
    e^{-tail/2} = 1 - tail/2 (|tail| <= eps x^2) and pi^{-1/4} folded into
    m.  ``_rescale`` keeps u representable far outside the classical region
    (where psi_0 underflows but high modes do not).  The rows are updated
    in place, with ``math.sqrt`` coefficients, and m 2^e is recomputed only
    on a rescale.  It underflows there: each consumer runs the whole
    iteration under one ``np.errstate(under="ignore")``, since a context
    entered here would be held across yields and its state would leak into
    the consumer while the generator is suspended.

    A point with x^2 >= 2^60, where ``_weyl_start`` clamps its exponent,
    starts from zero rows at x = 0: e^{-x^2/2} is 0 there and the
    recurrence, growing by about x per step, would overflow between two
    rescales.  NaN stays NaN.
    """
    x = np.asarray(x, dtype=float)
    far = x * x >= 2.0 ** 60
    x = np.where(far, 0.0, x)
    split = (2.0 ** 27 + 1.0) * x
    high = split - (split - x)
    low = x - high
    square = x * x
    tail = ((high * high - square) + 2.0 * high * low) + low * low
    (mantissa,), (exponent,) = _weyl_start(square, 0)
    mantissa = mantissa * (np.pi ** -0.25 * (1.0 - 0.5 * tail))
    scale = np.ldexp(mantissa, exponent)
    u_prev = np.where(far, 0.0, 1.0)
    u = math.sqrt(2.0) * x
    term = np.empty_like(x)
    for m in itertools.count(1):
        yield u_prev * scale
        # u_{m+1} = sqrt(2 / (m + 1)) x u_m - sqrt(m / (m + 1)) u_{m-1}, into u_prev
        np.multiply(math.sqrt(2.0 / (m + 1)), x, out=term)
        term *= u
        u_prev *= math.sqrt(m / (m + 1.0))
        np.subtract(term, u_prev, out=u_prev)
        u_prev, u = u, u_prev
        if m % _RESCALE_EVERY == 0:
            u_prev, u, rescaled = _rescale(u_prev, u, exponent)
            if rescaled is not exponent:
                exponent, scale = rescaled, np.ldexp(mantissa, rescaled)


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
    with np.errstate(under="ignore"):
        for row, values in zip(rows, _hermite_iter(x)):
            row[...] = values
    return _floor(rows)


class HermiteBasis:
    """First N oscillator eigenfunctions, with a uniform grid for their ``rows``.

    The sections read only ``n_modes``; the grid serves only ``rows``:
    h (-J..J) on [-L, L], exactly symmetric, ``weight`` h and ``n_quad``
    2J + 1, with J = ceil(L / h_max) and h_max = pi / (pi kmax + L),
    kmax = ``band_limit(N)``, the Nyquist spacing of f psi_j psi_k(. - s)
    for f cut to |k| <= kmax, so a trapezoid rule on it integrates such
    products up to rounding (Trefethen and Weideman, SIAM Rev. 56, 2014).
    n_modes is an integer, at least 2: TypeError or ValueError otherwise.
    """

    def __init__(self, n_modes):
        n_modes = operator.index(n_modes)
        if n_modes < 2:
            raise ValueError("need at least two modes")
        self.n_modes = n_modes
        self.half_width = np.sqrt(2.0 * n_modes + 3.0) + QUAD_PAD
        # the integrands' angular frequencies stay below 2 pi kmax + 2 L
        h_max = np.pi / (np.pi * band_limit(n_modes) + self.half_width)
        half = int(np.ceil(self.half_width / h_max))
        self.n_quad = 2 * half + 1
        self.weight = self.half_width / half
        self.grid = self.weight * np.arange(-half, half + 1)

    @cached_property
    def rows(self):
        """psi_n on the quadrature grid, shape (N, K).

        No library code reads it; the tests and the benchmark warm-up do."""
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


def multiplication_matrix(f, basis):
    """Matrix of multiplication by the ``PeriodicFunction`` f on the basis' window.

    ``represent`` of f [0], from f's modes |k| <= ``band_limit(N)``.  No
    library code calls it: the tests check it against Gaussian-integral
    and quadrature oracles, and the benchmark's tracing hooks it.
    """
    if not isinstance(f, PeriodicFunction):
        raise TypeError("multiplication_matrix takes a PeriodicFunction")
    return represent(AlgebraElement(0.0, {0: f}), basis)


def translation_matrix(alpha, basis):
    """Matrix of the shift xi(x) -> xi(x - alpha); unitary up to the edge.

    ``represent`` of 1 [1] at hbar = alpha, the displacement D(alpha /
    sqrt 2); alpha = 0 gives the identity exactly.  No library code calls
    it: the tests check it, and the benchmark's tracing hooks it.
    """
    return represent(AlgebraElement.shift_generator(alpha), basis)


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

    The sections cull the kept modes by the same bound: for y >= N it grows
    with m and n, so a distinct y where it is below ``SUBNORMAL_FLOOR`` at
    m = n = N - 1 is skipped (``_kept_columns``), moving an entry by at most
    the floor times the coefficients' mass: 28 of 44 y stay at N = 500.
    """
    return int(np.ceil(2.0 * np.sqrt(2.0 * n_modes) / np.pi))


def _element_displacements(a, n_modes, centre=0.0, caller="represent"):
    """The modes of a within the band limit as displacements: (y, weight, angle, real).

    On the window psi_n(x - centre) the mode e^{2 pi i k x} of the
    degree-m coefficient, c_k, translated by s = m hbar acts as weight
    D(beta), weight = c_k e^{2 pi i k centre} e^{i pi k s} and beta = (s +
    2 pi i k) / sqrt 2; y = |beta|^2 and angle = arg beta, concatenated over
    the degrees.  real: whether every coefficient of a has real samples, so
    that the section is real.  Logs kmax and the neglected-coefficient
    mass, summed over degrees, at DEBUG on the ``nctorus.oscillator``
    logger, under caller's name.
    """
    kmax = band_limit(n_modes)
    parts, neglected, real = [], 0.0, True
    for m, f in a.items():
        k, c, tail = f.band(kmax)
        shift, k = m * a.hbar, k.astype(float)
        weight = c * np.exp(1j * np.pi * k * shift)
        if centre:
            weight = weight * np.exp(2j * np.pi * centre * k)
        parts.append((0.5 * (shift * shift + 4.0 * np.pi ** 2 * k * k), weight,
                      np.arctan2(2.0 * np.pi * k, shift)))
        neglected += tail
        real = real and not f.samples.imag.any()
    logger.debug("%s: N=%d kmax=%d neglected coefficient mass=%.6g",
                 caller, n_modes, kmax, neglected)
    return (*(np.concatenate(column) for column in zip(*parts)), real)


def _times_minus_i(displacements):
    """The displacements with weights -i w, marked complex: H(-i w) = -i S + (-i S)^H."""
    y, weight, angle, _ = displacements
    return y, -1j * weight, angle, False


def _kept_columns(y, n_modes):
    """Whether each y couples the N-mode window above ``SUBNORMAL_FLOOR``.

    A y >= N is dropped when the tail bound of ``band_limit`` at
    m = n = N - 1, -y/2 + (N - 1) ln y + (N - 1)^2 / y - ln (N - 1)!, is
    below ln ``SUBNORMAL_FLOOR``: for y >= N that bound grows with m and n,
    so it bounds every entry of the window.
    """
    kept = y < n_modes
    far = y[~kept]
    m = n_modes - 1
    bound = -0.5 * far + m * np.log(far) + m * m / far - math.lgamma(n_modes)
    kept[~kept] = bound >= math.log(SUBNORMAL_FLOOR)
    return kept


def _column_weights(displacements, n_modes, degrees):
    """The kept distinct y and the weights of H(w) on them, shape (len(degrees), len(y)).

    The lower triangle of H(w) = S + S^H takes (w + (-1)^d conj w) (beta /
    |beta|)^d per mode at degree d; modes that share y share a column and
    are summed first.  The weights are real, the real part of the sums,
    when the displacements are marked real, and complex otherwise.
    """
    y, weight, angle, real = displacements
    distinct, column = np.unique(y, return_inverse=True)
    kept = np.flatnonzero(_kept_columns(distinct, n_modes))
    onehot = (column[:, None] == kept).astype(float)
    sign = (1 - 2 * (degrees & 1))[:, None]
    phase = np.exp(1j * np.outer(degrees, angle))
    weights = ((weight + sign * weight.conj()) * phase) @ onehot
    return distinct[kept], weights.real if real else weights


def _weyl_start(y, d_max):
    """Mantissas and binary exponents of H_0^(d)(y) = e^{-y/2} y^{d/2} / sqrt(d!), d <= d_max.

    A log scale L puts |L| eps into exp(L): 3e-14 in the sections at
    N = 400.  So e^{-y/2} = 2^{-q} e^r, q = rint(min(y, 2^60) / 2 ln 2) (an
    int64; beyond, e^r is 0; a NaN y takes 2^60, its e^r NaN), r reduced
    by ln 2 in two parts (Cody and Waite), and the factors sqrt(y / d) are
    multiplied ``_START_ROWS`` rows at a time, the exponent carried by
    ``np.frexp``: each value is rounded about d times, not |L| / eps.  Also
    the d = 0 start of ``_laguerre_rows`` and, at y = x^2, of
    ``_hermite_iter``.
    """
    q = np.rint(0.5 * np.fmin(y, 2.0 ** 60) / math.log(2.0))
    mantissa = np.empty((d_max + 1, y.size))
    exponent = np.empty((d_max + 1, y.size), dtype=int)
    mantissa[0], exponent[0] = np.frexp(np.exp((q * _LN2_HI - 0.5 * y) + q * _LN2_LO))
    exponent[0] -= q.astype(int)
    factors = np.sqrt(y / np.arange(1.0, d_max + 1.0)[:, None])
    for lo in range(1, d_max + 1, _START_ROWS):
        hi = min(lo + _START_ROWS, d_max + 1)
        mantissa[lo:hi], exponent[lo:hi] = np.frexp(
            np.cumprod(factors[lo - 1:hi - 1], axis=0) * mantissa[lo - 1])
        exponent[lo:hi] += exponent[lo - 1]
    return mantissa, exponent


def _weyl_sums(y, degrees, weights, n_modes):
    """Yield sum_j H_n^(d)(y_j) weights[d, j] for n < n_modes, over the degrees d < n_modes - n.

    H_n^(d) = e^{-y/2} y^{d/2} G_n^(d) / sqrt(d!), G_n^(d) = sqrt(n! d! /
    (n + d)!) L_n^(d)(y); degrees ascend from 0, weights has shape
    (len(degrees), len(y)) and each yield is 1-D, one sum per degree still
    in the window.  The recurrence

        G_{n+1} = ((2n + d + 1 - y) G_n - sqrt(n (n + d)) G_{n-1})
                  / sqrt((n + 1) (n + d + 1))

    runs over all degrees and y at once from the mantissas of
    ``_weyl_start``, in difference form: with F_n = (n + d) G_n -
    sqrt(n (n + d)) G_{n-1}, F_0 = d G_0,

        G_{n+1} = ((n + 1) G_n + F_n - y G_n) / sqrt((n + 1) (n + d + 1)),
        F_{n+1} = (F_n - y G_n) sqrt((n + 1) (n + d + 1)) / (n + 1).

    At d = 0, G_n = L_n and F_n = n (L_n - L_{n-1}): the difference form
    of ``_laguerre_rows``.

    The three-term form rounds y against 2n + d + 1, which at y << n
    carries the section's whole dependence on y: 4.4e-12 off the
    quadrature in translation_matrix(0.01) at N = 800, where this form
    reads the quadrature's own 2e-14.  Both divide by the root (a
    reciprocal multiply drifts) of the exact integer (n + 1) (n + d + 1).
    G and F share a binary exponent per degree and y (``_rescale``); the
    weights are rescaled when it moves.
    Consumers hold ``np.errstate(under="ignore")``, as for ``_hermite_iter``.
    """
    mantissa, exponent = _weyl_start(y, degrees[-1])
    d = degrees.astype(float)[:, None]
    cur, exponent = mantissa[degrees], exponent[degrees]
    scaled = weights * np.ldexp(1.0, exponent)
    diff, lower = d * cur, np.empty_like(cur)
    counts = np.searchsorted(degrees, n_modes - np.arange(n_modes)).tolist()
    for n, count in enumerate(counts):
        if count < d.size:
            cur, diff, lower = cur[:count], diff[:count], lower[:count]
            d, exponent = d[:count], exponent[:count]
            weights, scaled = weights[:count], scaled[:count]
        yield np.einsum("ij,ij->i", cur, scaled)
        np.multiply(y, cur, out=lower)
        diff -= lower
        cur *= n + 1.0
        cur += diff
        root = np.sqrt((n + 1.0) * (n + 1.0 + d))
        cur /= root
        diff *= root
        diff /= n + 1.0
        if (n + 1) % _RESCALE_EVERY == 0:
            diff, cur, rescaled = _rescale(diff, cur, exponent)
            if rescaled is not exponent:
                exponent, scaled = rescaled, weights * np.ldexp(1.0, rescaled)


def _weyl_blocks(displacements, n_modes, step=1):
    """H(w) = S + S^H, S the sum over displacements of w D(beta), from ``_weyl_sums``, as blocks.

    The blocks are H(w)'s rows and columns p, p + step, ... for p < step,
    whose entries are those of the degrees 0, step, 2 step, ...  Each n
    writes column n // step of block n mod step below the diagonal and its
    conjugate as the row right of it, so every block is Hermitian by
    construction.  float64 when the displacements are marked real.
    """
    degrees = np.arange(0, n_modes, step)
    y, weights = _column_weights(displacements, n_modes, degrees)
    blocks = [np.zeros((len(range(p, n_modes, step)),) * 2, dtype=weights.dtype)
              for p in range(step)]
    with np.errstate(under="ignore"):
        for n, sums in enumerate(_weyl_sums(y, degrees, weights, n_modes)):
            block, i = blocks[n % step], n // step
            block[i:, i] = sums
            block[i, i:] = sums.conj()
    return blocks


def represent(a, basis):
    """Finite section P pi(a) P of pi(a) = sum_n f_n T(n hbar) on the basis, in closed form.

    Each mode |k| <= ``band_limit(N)`` of f_n, translated by n hbar, is a
    displacement (module docstring), so S = (H(w) + i H(-i w)) / 2 from two
    Hermitian sections, each one recurrence in n over every degree d = i - j
    and distinct y (``_weyl_blocks``): no grid, nothing aliases.
    Multiplication by a real f_n and translation map real functions to real
    functions, so the section of an element whose coefficients all have
    real samples is real, (H(w) - Im H(-i w)) / 2, float64; any complex
    coefficient makes the whole section complex.
    """
    n_modes = basis.n_modes
    if not a.items():
        return np.zeros((n_modes, n_modes))
    displacements = _element_displacements(a, n_modes)
    (h,) = _weyl_blocks(displacements, n_modes)
    (h_rotated,) = _weyl_blocks(_times_minus_i(displacements), n_modes)
    if displacements[-1]:
        return 0.5 * (h - h_rotated.imag)
    return 0.5 * (h + 1j * h_rotated)


def _parity_sections(a, n_modes, centre, step=2):
    """The same-parity blocks of S + S^H, S the section of a on the window centred at centre.

    The window is psi_n(x - centre), n < N.  With step 2 the blocks are its
    rows and columns of parity p = 0 and 1 under the reflection x -> 2
    centre - x, the even degrees of ``_weyl_sums``; with step 1 the one
    block is the whole S + S^H, every degree.  Translating by centre
    rotates each kept Fourier mode by e^{2 pi i k centre}.  a has at least
    one degree.
    """
    return _weyl_blocks(_element_displacements(a, n_modes, centre), n_modes, step=step)


def diagonal_elements(weighted_shifts, n_modes):
    """Diagonal matrix elements d_n = quad(w(x) psi_n(x)^2), n < n_modes.

    For weights known only as callables on the line (Fourier modes have
    the closed form of ``algebra_diagonals``).  ``weighted_shifts`` is
    a sequence of (weight, 0) pairs, the form the benchmark's tracing
    counts; the result has one row per pair, and a nonzero shift raises
    ValueError.  The quadrature is the uniform (QUAD_DENSITY max(N, 2000)
    + 1)-point rule on [-L, L], never coarser than at 2000 modes (129
    points at N = 16 read cos 20 pi x 0.30 off), and the Hermite
    recurrence is streamed, so that no rows are stored.
    """
    pairs = list(weighted_shifts)
    if any(float(a) != 0.0 for _, a in pairs):
        raise ValueError("diagonal_elements takes shift 0 only: off the diagonal, "
                         "zeta_trace takes the Mellin route ('heat_mellin')")
    half_width = np.sqrt(2.0 * n_modes + 3.0) + QUAD_PAD
    x = np.linspace(-half_width, half_width, QUAD_DENSITY * max(n_modes, 2000) + 1)
    step = x[1] - x[0]
    out = np.zeros((len(pairs), n_modes), dtype=complex)
    for i, (w, _) in enumerate(pairs):
        wv = np.asarray(w(x)) * step
        with np.errstate(under="ignore"):
            for n, row in zip(range(n_modes), _hermite_iter(x)):
                out[i, n] = (wv * row * row).sum()
    return out


def _laguerre_rows(y, n_modes):
    """e^{-y/2} L_n(y) for n < n_modes at each y >= 0, shape (n_modes, len(y)).

    The recurrence (n + 1) L_{n+1} = (2n + 1 - y) L_n - n L_{n-1} runs in
    difference form, D_{n+1} = L_{n+1} - L_n:

        D_{n+1} = (n D_n - y L_n) / (n + 1),  L_{n+1} = L_n + D_{n+1}.

    The three-term form rounds y against 2n + 1, which at y << n carries
    the whole dependence on y: 4.2e-12 off mpmath at y = 5e-5, n = 566,
    where this form reads 3e-16.  L_0 = 1, e^{-y/2} = m 2^e (``_weyl_start``)
    and L and D share e per column, raised by ``_rescale``: one step grows
    |L_n| by at most about y + 2 (3.3e4 at 2000 modes), so 8 steps from
    1e120 stay far below overflow.  Each run of rows that shares an e is
    scaled once, at the end, as ``np.ldexp(rows * m, e)``; a log scale read
    3.5e-14 off mpmath at y = 2 pi^2 20^2, n < 2000, where this reads 1e-16.
    """
    out = np.empty((n_modes, y.size))
    out[0] = 1.0
    diff, lower = np.zeros_like(y), np.empty_like(y)
    (mantissa,), (exponent,) = _weyl_start(y, 0)
    runs = [(0, exponent)]
    with np.errstate(under="ignore"):
        for n in range(n_modes - 1):
            diff *= n
            np.multiply(y, out[n], out=lower)
            diff -= lower
            diff /= n + 1
            np.add(out[n], diff, out=out[n + 1])
            if (n + 1) % _RESCALE_EVERY == 0:
                diff, rescaled, raised = _rescale(diff, out[n + 1], exponent)
                if raised is not exponent:
                    out[n + 1], exponent = rescaled, raised
                    runs.append((n + 1, exponent))
        for (start, run), (end, _) in zip(runs, runs[1:] + [(n_modes, None)]):
            out[start:end] = np.ldexp(out[start:end] * mantissa, run)
    return out


def algebra_diagonals(a, n_modes):
    """Diagonal elements <pi(a) psi_n, psi_n>, n < n_modes, in closed form.

    The d = 0 case of the displacements (module docstring): with c_k the
    modes |k| <= ``band_limit(n_modes)`` of the degree-m coefficient and
    s = m hbar,

        d_n = sum_m sum_k c_k e^{i pi k s} e^{-y/2} L_n(y),
        y = (s^2 + 4 pi^2 k^2) / 2,

    so d = (rows @ W_w + i rows @ W_{-i w}) / 2, the diagonal of (H(w) +
    i H(-i w)) / 2: rows[n, j] = e^{-y_j/2} L_n(y_j) (``_laguerre_rows``) on
    the y ``_column_weights`` keeps (52 of 249 for the bump at 2000 modes),
    whose weights at d = 0 are 2 Re w and 2 Im w summed per y.  No
    quadrature, so nothing aliases; the dropped modes move each d_n by at
    most e^{-4 n_modes} times their mass (see ``band_limit``).  n_modes < 1
    raises ValueError.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    displacements = _element_displacements(a, n_modes, caller="algebra_diagonals")
    degree = np.zeros(1, dtype=int)
    y, weights = _column_weights(displacements, n_modes, degree)
    _, rotated = _column_weights(_times_minus_i(displacements), n_modes, degree)
    rows = _laguerre_rows(y, n_modes)
    return 0.5 * (rows @ weights[0].real + 1j * (rows @ rotated[0].real))
