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
degrees m and -m) summed first, modes of coefficient exactly 0 skipped:
N steps over a (weight sets) x (degrees) x (distinct y) array, the
sections' only working set besides themselves.  The recurrence runs on
H / rho_n, rho_n^2 = d! / (n! (n + d)!) a per-degree scale, so that each
step multiplies by the exact integers n + 1 and n + d + 1 only: no square
root and no division over the (degrees) x (y) array.
``_weyl_blocks`` writes H(w) whole, or its even d as its two
reflection-parity blocks; ``represent`` is S = (H(w) + i H(-i w)) / 2,
both from one run over the sets w and -i w, and ``multiplication_matrix``
and ``translation_matrix`` are ``represent`` of f [0] and of 1 [1] at
hbar = alpha.  Nothing aliases, and a y whose tail bound (``band_limit``)
is below ``SUBNORMAL_FLOOR`` on the window is skipped.

A coefficient reaches the N-mode window only through its modes
|k| <= ``band_limit(N)``, so ``represent`` and ``algebra_diagonals`` drop
the rest.  The diagonal, d = 0, is ``algebra_diagonals``, d_n = sum_m
sum_k c_k e^{i pi k s} e^{-y/2} L_n(y): the same identity at d = 0, where
the column weights of H(w) and H(-i w) are 2 Re w and 2 Im w summed over
the modes that share y, on ``_laguerre_rows``, the d = 0 recurrence in
difference form.  ``diagonal_elements`` keeps a quadrature, on the
diagonal only, for callables on the line; no library route calls it (every
zeta value is a Mellin integral of a heat trace in ``heatzeta``): it is
the tests' quadrature reference, and the benchmark traces it.

The recurrences ``_hermite_iter``, ``_laguerre_rows`` and ``_weyl_sums``
share one number format, no log scale: a row stands for row * m 2^e, m
and e from their start (``_weyl_start``), e raised exactly by ``_rescale``
at the points that exceed its limit, the others untouched; in
``_weyl_sums`` m is the mantissa of rho_n, a running product over the
degrees alone, whose exponent moves into the rows.

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
# half-width beyond the turning point sqrt(2N + 3) of the quadrature and heatzeta's window
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
    """One exact rescale of a two-row recurrence with per-point binary exponents, in place.

    The points where |cur| exceeds ``_RESCALE_LIMIT`` have prev and cur
    divided by 2^``_RESCALE_BITS`` and their exponent raised by as much,
    by ufuncs masked to them; no other point is touched.  Returns the mask
    of those points, or None when no point exceeds the limit.  The
    recurrences call it every ``_RESCALE_EVERY`` steps.
    """
    big = np.abs(cur) > _RESCALE_LIMIT
    if not big.any():
        return None
    np.ldexp(prev, -_RESCALE_BITS, out=prev, where=big)
    np.ldexp(cur, -_RESCALE_BITS, out=cur, where=big)
    np.add(exponent, _RESCALE_BITS, out=exponent, where=big)
    return big


def _hermite_iter(x):
    """Yield psi_0(x), psi_1(x), ... on a 1-D array, with per-point rescaling.

    The three-term recurrence runs on u_n = psi_n / (m 2^e), m 2^e =
    pi^{-1/4} e^{-x^2/2} at the start: x^2 = square + tail exactly (Dekker's
    split, Numer. Math. 18, 1971), ``_weyl_start`` of square, and
    e^{-tail/2} = 1 - tail/2 (|tail| <= eps x^2) and pi^{-1/4} folded into
    m.  ``_rescale`` keeps u representable far outside the classical region
    (where psi_0 underflows but high modes do not).  The rows are updated
    in place, with ``math.sqrt`` coefficients, and m 2^e is recomputed only
    at the points a rescale moves.  It underflows there: each consumer runs
    the whole iteration under one ``np.errstate(under="ignore")``, since a
    context entered here would be held across yields and its state would
    leak into the consumer while the generator is suspended.

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
            big = _rescale(u_prev, u, exponent)
            if big is not None:
                np.ldexp(mantissa, exponent, out=scale, where=big)


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


def _mode_count(n_modes):
    """n_modes as an int, at least 2: TypeError for a non-integer, ValueError below 2."""
    n_modes = operator.index(n_modes)
    if n_modes < 2:
        raise ValueError("need at least two modes")
    return n_modes


class HermiteBasis:
    """First N oscillator eigenfunctions, with a uniform grid for their ``rows``.

    No section takes it: they take N alone.  The grid serves only ``rows``:
    h (-J..J) on [-L, L], exactly symmetric, ``weight`` h and ``n_quad``
    2J + 1, with J = ceil(L / h_max) and h_max = pi / (pi kmax + L),
    kmax = ``band_limit(N)``, the Nyquist spacing of f psi_j psi_k(. - s)
    for f cut to |k| <= kmax, so a trapezoid rule on it integrates such
    products up to rounding (Trefethen and Weideman, SIAM Rev. 56, 2014).
    n_modes is an integer, at least 2: TypeError or ValueError otherwise.
    """

    def __init__(self, n_modes):
        self.n_modes = n_modes = _mode_count(n_modes)
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


def ladder_matrices(n_modes):
    """Ladder pair, oscillator, block Dirac matrix and grading on N = n_modes modes.

    Returns (A, A*, H, D, grading) with A the lower shift of entries
    sqrt(2k), H = diag(2n+1), D the 2N x 2N block matrix [[0, A*], [A, 0]]
    and grading diag(I, -I).  The relations A A* = H + 1 and A* A = H - 1
    hold exactly away from the last mode.  n_modes as for ``represent``.
    """
    n = _mode_count(n_modes)
    a = np.zeros((n, n))
    ks = np.arange(1, n)
    a[ks - 1, ks] = np.sqrt(2.0 * ks)
    h = np.diag(2.0 * np.arange(n) + 1.0)
    d = np.zeros((2 * n, 2 * n))
    d[:n, n:] = a.T
    d[n:, :n] = a
    grading = np.diag(np.concatenate([np.ones(n), -np.ones(n)]))
    return a, a.T, h, d, grading


def multiplication_matrix(f, n_modes):
    """Matrix of multiplication by the ``PeriodicFunction`` f on n_modes modes.

    ``represent`` of f [0], from f's modes |k| <= ``band_limit(N)``.  No
    library code calls it: the tests check it against Gaussian-integral
    and quadrature oracles, and the benchmark's tracing hooks it.
    """
    if not isinstance(f, PeriodicFunction):
        raise TypeError("multiplication_matrix takes a PeriodicFunction")
    return represent(AlgebraElement(0.0, {0: f}), n_modes)


def translation_matrix(alpha, n_modes):
    """Matrix of the shift xi(x) -> xi(x - alpha) on n_modes modes; unitary up to the edge.

    ``represent`` of 1 [1] at hbar = alpha, the displacement D(alpha /
    sqrt 2); alpha = 0 gives the identity exactly.  No library code calls
    it: the tests check it, and the benchmark's tracing hooks it.
    """
    return represent(AlgebraElement.shift_generator(alpha), n_modes)


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
    the degrees, modes with c_k exactly 0 skipped.  real: whether every
    coefficient of a has real samples, so that the section is real.  Logs
    kmax and the neglected-coefficient mass, summed over degrees, at DEBUG
    on the ``nctorus.oscillator`` logger, under caller's name.
    """
    kmax = band_limit(n_modes)
    parts, neglected, real = [], 0.0, True
    for m, f in a.items():
        k, c, tail = f.band(kmax)
        k, c = k[c != 0], c[c != 0]
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
    """The kept distinct y and the weights of H(w) on them, shape (..., len(degrees), len(y)).

    The lower triangle of H(w) = S + S^H takes (w + (-1)^d conj w) (beta /
    |beta|)^d per mode at degree d; modes that share y share a column and
    are summed first.  The weights are real, the real part of the sums,
    when the displacements are marked real, and complex otherwise.  Weight
    sets on leading axes of w, shape (..., modes), stay leading: one pass.
    """
    y, weight, angle, real = displacements
    distinct, column = np.unique(y, return_inverse=True)
    kept = np.flatnonzero(_kept_columns(distinct, n_modes))
    onehot = (column[:, None] == kept).astype(float)
    sign = (1 - 2 * (degrees & 1))[:, None]
    phase = np.exp(1j * np.outer(degrees, angle))
    weight = weight[..., None, :]
    weights = ((weight + sign * weight.conj()) * phase) @ onehot
    return distinct[kept], weights.real if real else weights


def _weyl_start(y, d_max):
    """Mantissas and binary exponents of H_0^(d)(y) = e^{-y/2} y^{d/2} / sqrt(d!), d <= d_max.

    A log scale L puts |L| eps into exp(L): 3e-14 in the sections at
    N = 400.  So e^{-y/2} = 2^{-q} e^r, q = rint(min(y, 2^60) / 2 ln 2)
    (beyond, e^r is 0; a NaN y takes 2^60, its e^r NaN), r reduced by ln 2
    in two parts (Cody and Waite), and the factors sqrt(y / d) are
    multiplied ``_START_ROWS`` rows at a time, the exponent carried by
    ``np.frexp``: each value is rounded about d times, not |L| / eps.  The
    exponents are int32, which ``np.ldexp`` takes about five times faster
    than int64, so 2^{-q} is stored as 2^{-min(q, 2^30)}: q > 2^30 only for
    y > 1.4e9, where either takes every finite value the recurrences scale
    by it to 0.
    Also the d = 0 start of ``_laguerre_rows`` and, at y = x^2, of
    ``_hermite_iter``.
    """
    q = np.rint(0.5 * np.fmin(y, 2.0 ** 60) / math.log(2.0))
    mantissa = np.empty((d_max + 1, y.size))
    exponent = np.empty((d_max + 1, y.size), dtype=np.int32)
    mantissa[0], exponent[0] = np.frexp(np.exp((q * _LN2_HI - 0.5 * y) + q * _LN2_LO))
    exponent[0] -= np.fmin(q, 2.0 ** 30).astype(np.int32)
    factors = np.sqrt(y / np.arange(1.0, d_max + 1.0)[:, None])
    for lo in range(1, d_max + 1, _START_ROWS):
        hi = min(lo + _START_ROWS, d_max + 1)
        mantissa[lo:hi], exponent[lo:hi] = np.frexp(
            np.cumprod(factors[lo - 1:hi - 1], axis=0) * mantissa[lo - 1])
        exponent[lo:hi] += exponent[lo - 1]
    return mantissa, exponent


def _weyl_sums(y, degrees, weights, n_modes):
    """Yield sum_j H_n^(d)(y_j) weights[..., d, j], n < n_modes, over the degrees d < n_modes - n.

    H_n^(d)(y) = e^{-y/2} y^{d/2} sqrt(n! / (n + d)!) L_n^(d)(y); degrees
    ascend from 0, weights has shape (..., len(degrees), len(y)), leading
    axes weight sets, and each yield is (..., count), one sum per set and
    degree in the window.  The recurrence runs on h_n = H_n / rho_n, rho_n
    = sqrt(d! / (n! (n + d)!)), so h_n = n! L_n^(d)(y) H_0^(d)(y), from the
    mantissas of ``_weyl_start``, over all degrees and y at once, in
    difference form: with f_n = (n + d) (h_n - n h_{n-1}), f_0 = d h_0,

        p = f_n - y h_n,  h_{n+1} = (n + 1) h_n + p,  f_{n+1} = (n + d + 1) p.

    Both multipliers are exact integers, so the (degrees) x (y) arrays
    take no square root and no division.  At d = 0, h_n = n! H_0 L_n and
    f_n = n! H_0 n (L_n - L_{n-1}): up to n! H_0, the difference form of
    ``_laguerre_rows``.

    The three-term form rounds y against 2n + d + 1, which at y << n
    carries the section's whole dependence on y: 4.4e-12 off the
    quadrature in translation_matrix(0.01) at N = 800, where the difference
    form reads the quadrature's own 2e-14.  The same form on H itself
    divides each step by the root of (n + 1) (n + d + 1) and multiplies the
    difference by it: two more roundings per step and point, which this
    form does not make.  Its scale rho_n^2 is a running product over the
    degrees alone, divided by the exact integers (n + 1) (n + d + 1): rho_n
    carries about n / 2 roundings, where a log scale would carry
    |ln rho_n| eps (|ln rho| is about 2600 at n = 500).  Against 60-digit
    mpmath values over whole columns at N = 800 the sums stay within
    1.0e-14 of each column's running maximum, and the sections within
    4.9e-15 of the form on H (4.0e-15 up to N = 500).

    The steps run in blocks of ``_RESCALE_EVERY``: each keeps its h_n, and
    its sums are one einsum over them, times sqrt(rho^2), whose block of
    values is rho^2 over the cumulative products of the integers.  A degree
    that leaves the window is dropped at the next block.  After a block
    ``np.frexp`` takes the binary exponent out of rho^2, and its even part,
    halved, goes into h and f exactly; h 2^e is then within a factor
    sqrt 2 of H_n, e the points' exponent, so h grows only as H_n / H_0
    does.  ``_rescale`` lowers the points above its limit and raises their
    e: within the window only a y whose H_0 starts below about 2^-400
    (y > 555 at d = 0) takes any, up to 7 at N = 800.  The weights of those points are
    derived again from weights, so that a scaled weight that underflowed is
    never scaled back up.  Consumers hold ``np.errstate(under="ignore")``,
    as for ``_hermite_iter``.
    """
    mantissa, exponent = _weyl_start(y, degrees[-1])
    d = degrees.astype(float)
    # h_n at the steps between two checks and the step after them
    rows = np.empty((_RESCALE_EVERY + 1, d.size, y.size))
    rows[0], exponent = mantissa[degrees], exponent[degrees]
    # n + d + 1 and y on h's (degrees) x (y) layout, so that every product is contiguous
    multiplier = np.add.outer(d + 1.0, np.zeros_like(y))
    ys = np.broadcast_to(y, rows[0].shape).copy()
    f, p = (multiplier - 1.0) * rows[0], np.empty_like(rows[0])
    scaled = weights * np.ldexp(1.0, exponent)
    norm = np.ones_like(d)
    counts = np.searchsorted(degrees, n_modes - np.arange(n_modes)).tolist()
    for start in range(0, n_modes, _RESCALE_EVERY):
        block = range(start, min(start + _RESCALE_EVERY, n_modes))
        count = counts[start]
        if count < d.size:
            rows, f, p, exponent = rows[:, :count], f[:count], p[:count], exponent[:count]
            multiplier, ys, d, norm = multiplier[:count], ys[:count], d[:count], norm[:count]
            weights, scaled = weights[..., :count, :], scaled[..., :count, :]
        # rho_{n+1}^2 for n in the block: divided by the exact integers (n + 1) (n + d + 1) in turn
        steps = np.arange(start + 1.0, block.stop + 1.0)[:, None]
        norms = norm / np.cumprod((d + steps) * steps, axis=0)
        for i, n in enumerate(block):
            h, following = rows[i], rows[i + 1]
            np.multiply(ys, h, out=p)
            np.subtract(f, p, out=p)
            np.multiply(h, n + 1.0, out=following)
            following += p
            np.multiply(p, multiplier, out=f)
            multiplier += 1.0
        roots = np.sqrt(np.concatenate([norm[None], norms[:-1]]))
        sums = np.einsum("bij,...ij->...bi", rows[:len(block)], scaled) * roots
        for i, n in enumerate(block):
            yield sums[..., i, :counts[n]]
        norm, twice = np.frexp(norms[-1])
        odd = twice & 1
        norm = np.ldexp(norm, odd)
        half = ((twice - odd) >> 1)[:, None]
        np.ldexp(rows[len(block)], half, out=rows[0])
        np.ldexp(f, half, out=f)
        big = _rescale(f, rows[0], exponent)
        if big is not None:
            big = np.nonzero(big)
            scaled[(..., *big)] = weights[(..., *big)] * np.ldexp(1.0, exponent[big])


def _weyl_blocks(displacements, n_modes, step=1):
    """H(w) = S + S^H, S the sum over displacements of w D(beta), from ``_weyl_sums``, as blocks.

    The blocks are H(w)'s rows and columns p, p + step, ... for p < step,
    whose entries are those of the degrees 0, step, 2 step, ...: at step 2,
    on the window centred at c (the displacements of
    ``_element_displacements`` at centre c), the two blocks of parity
    p = 0 and 1 under the reflection x -> 2c - x.  Each n
    writes column n // step of block n mod step below the diagonal and its
    conjugate as the row right of it, so every block is Hermitian by
    construction.  Weight sets on the displacements' leading axes
    (``_column_weights``) lead the blocks' axes too, all from one
    recurrence run.  float64 when the displacements are marked real.
    """
    degrees = np.arange(0, n_modes, step)
    y, weights = _column_weights(displacements, n_modes, degrees)
    blocks = [np.zeros(weights.shape[:-2] + (len(range(p, n_modes, step)),) * 2, weights.dtype)
              for p in range(step)]
    with np.errstate(under="ignore"):
        for n, sums in enumerate(_weyl_sums(y, degrees, weights, n_modes)):
            block, i = blocks[n % step], n // step
            block[..., i:, i] = sums
            block[..., i, i:] = sums.conj()
    return blocks


def represent(a, n_modes):
    """Finite section P pi(a) P of pi(a) = sum_n f_n T(n hbar) on n_modes modes, in closed form.

    Each mode |k| <= ``band_limit(N)`` of f_n, translated by n hbar, is a
    displacement (module docstring), so S = (H(w) + i H(-i w)) / 2, H(-i w)
    = -i S + (-i S)^H, the two Hermitian sections written by one recurrence
    in n over every degree d = i - j and distinct y for the stacked weight
    sets w and -i w (``_weyl_blocks``): no grid, nothing aliases.
    Multiplication by a real f_n and translation map real functions to real
    functions, so the section of an element whose coefficients all have
    real samples is real, (Re H(w) - Im H(-i w)) / 2, float64; any complex
    coefficient makes the whole section complex; n_modes >= 2 (``_mode_count``).
    """
    n_modes = _mode_count(n_modes)
    if not a.items():
        return np.zeros((n_modes, n_modes))
    y, weight, angle, real = _element_displacements(a, n_modes)
    stacked = (y, np.stack([weight, -1j * weight]), angle, False)
    ((h, h_rotated),) = _weyl_blocks(stacked, n_modes)
    return 0.5 * (h.real - h_rotated.imag) if real else 0.5 * (h + 1j * h_rotated)


def diagonal_elements(weighted_shifts, n_modes):
    """Diagonal matrix elements d_n = quad(w(x) psi_n(x)^2), n < n_modes.

    For weights known only as callables on the line (Fourier modes have
    the closed form of ``algebra_diagonals``), as the tests' reference.
    ``weighted_shifts`` is (weight, 0) pairs, the form the benchmark's
    tracing counts; the result has one row per pair, and a nonzero shift raises
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
    Against 60-digit mpmath recurrences the rows' own rounding reads at
    most 9.9e-16 absolute over 257 evenly spaced y in [0, 8000] and
    n < 2000 (at y = 6875, n = 1730).
    """
    out = np.empty((n_modes, y.size))
    out[0] = 1.0
    diff, lower = np.zeros_like(y), np.empty_like(y)
    (mantissa,), (exponent,) = _weyl_start(y, 0)
    runs = [(0, exponent.copy())]
    # row views, step counts as Python floats and the ufuncs, taken once:
    # the loop makes no view, converts no int and looks up no name
    rows, steps = list(out), np.arange(n_modes, dtype=float).tolist()
    multiply, subtract, divide, add = np.multiply, np.subtract, np.divide, np.add
    with np.errstate(under="ignore"):
        for n, row, following in zip(steps, rows, rows[1:]):
            multiply(diff, n, out=diff)
            multiply(y, row, out=lower)
            subtract(diff, lower, out=diff)
            divide(diff, n + 1.0, out=diff)
            add(row, diff, out=following)
            if (n + 1.0) % _RESCALE_EVERY == 0 and _rescale(diff, following, exponent) is not None:
                runs.append((int(n) + 1, exponent.copy()))
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
    whose weights at d = 0 are 2 Re w and 2 Im w summed per y (one pass).  No
    quadrature, so nothing aliases; the dropped modes move each d_n by at
    most e^{-4 n_modes} times their mass (see ``band_limit``).  n_modes < 1
    raises ValueError.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    y, weight, angle, _ = _element_displacements(a, n_modes, caller="algebra_diagonals")
    y, (weights, rotated) = _column_weights((y, np.stack([weight, -1j * weight]), angle, False),
                                            n_modes, np.zeros(1, dtype=int))
    rows = _laguerre_rows(y, n_modes)
    return 0.5 * (rows @ weights[0].real + 1j * (rows @ rotated[0].real))
