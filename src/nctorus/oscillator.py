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
e^{-y/2} y^{d/2} sqrt(n! / (n + d)!) L_n^(d)(y).  ``_weyl_sums`` runs the
Laguerre recurrence in n, in difference form, once over every degree d
and distinct y, modes that share y (k and -k, degrees m and -m) summed
first: N steps over a (degrees) x (distinct y) array, the sections' only
working set besides themselves.  ``represent`` takes every d and both
triangles; ``_parity_sections`` writes the lower triangle of S + S^H and
its conjugate, at every d (the whole S + S^H) or at the even d (its two
reflection-parity blocks); ``multiplication_matrix`` and
``translation_matrix`` are one-term sections.  Nothing aliases, and a y
whose tail bound (``band_limit``) is below ``SUBNORMAL_FLOOR`` on the
window is skipped.

A coefficient reaches the N-mode window only through its modes
|k| <= ``band_limit(N)``, so ``represent``, ``algebra_diagonals`` and
``multiplication_matrix`` drop the rest.  The diagonal, d = 0, is
``algebra_diagonals``, d_n = sum_m sum_k c_k e^{i pi k s} e^{-y/2} L_n(y),
from the same displacements (``_element_displacements``): the weights
that share y summed, the same y skipped, and ``_laguerre_rows``, the
d = 0 recurrence in difference form, on the rest.
``diagonal_elements`` keeps a quadrature for callables on the line of
limit or generic type (periodic weights need no diagonals: their zeta
values are Mellin integrals of their heat traces in ``heatzeta``).

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
from functools import cached_property

import numpy as np

from .periodic import PeriodicFunction

_RESCALE_EVERY = 8
_RESCALE_LIMIT = 1e120
# quadrature half-width beyond the classical turning point sqrt(2N + 3)
QUAD_PAD = 6.0
# quadrature points per mode of ``diagonal_elements``, whose weights have no
# band limit: K = QUAD_DENSITY * N + 1 (the basis grid is set by band_limit)
QUAD_DENSITY = 8
# kept Hermite values are at least this in magnitude, and so is the tail
# bound of every distinct y a section keeps
SUBNORMAL_FLOOR = np.cbrt(np.finfo(float).tiny)
# rows of a Hermite table floored at a time
_FLOOR_ROWS = 32
# the sections' recurrence divides by 2^_RESCALE_BITS (about _RESCALE_LIMIT)
_RESCALE_BITS = 400
# ln 2 = _LN2_HI + _LN2_LO, _LN2_HI with 21 trailing zero bits (fdlibm's split)
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
# rows of sqrt(y / d) multiplied between exponent carries in _weyl_start
_START_ROWS = 16

logger = logging.getLogger(__name__)


def _rescale(prev, cur, log_scale):
    """One rescale of a two-row recurrence with a per-point log scale.

    prev and cur are divided by ``_RESCALE_LIMIT`` where |cur| exceeds it,
    and its log is added to log_scale there; returns the new (prev, cur,
    log_scale), the inputs themselves when no point exceeds it.  The
    recurrences call it every ``_RESCALE_EVERY`` steps.
    """
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
    psi_0 underflows but high modes do not).  The two rows are updated in
    place, with the coefficients as ``math.sqrt`` scalars, and ``exp(ln)`` is
    recomputed only when a rescale moves ln.  It underflows there: each consumer
    runs the whole iteration under one ``np.errstate(under="ignore")``,
    since a context entered here would be held across yields and its state
    would leak into the consumer while the generator is suspended.
    """
    x = np.asarray(x, dtype=float)
    ln = -0.5 * x * x - 0.25 * np.log(np.pi)
    scale = np.exp(ln)
    u_prev = np.ones_like(x)
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
            u_prev, u, rescaled = _rescale(u_prev, u, ln)
            if rescaled is not ln:
                ln, scale = rescaled, np.exp(rescaled)


def _floor(values):
    """Set the entries of values below ``SUBNORMAL_FLOOR`` in magnitude to 0, in place."""
    values[(values < SUBNORMAL_FLOOR) & (values > -SUBNORMAL_FLOOR)] = 0.0
    return values


def hermite_rows(n_modes, x, out=None):
    """Matrix of psi_n(x_j) for n = 0..n_modes-1 over the points x.

    Values below ``SUBNORMAL_FLOOR`` in magnitude are stored as 0.  The
    floor runs on blocks of ``_FLOOR_ROWS`` rows as they are filled, so its
    masks are never the size of the table.  out, an (n_modes, len(x))
    array, is filled in place and returned instead of a new array.
    """
    x = np.asarray(x, dtype=float)
    rows = np.empty((n_modes, x.shape[0])) if out is None else out
    it = _hermite_iter(x)
    with np.errstate(under="ignore"):
        for start in range(0, n_modes, _FLOOR_ROWS):
            block = rows[start:start + _FLOOR_ROWS]
            for row in block:
                row[...] = next(it)
            _floor(block)
    return rows


class HermiteBasis:
    """First N oscillator eigenfunctions, with a uniform grid for their ``rows``.

    The sections read only ``n_modes``; the grid serves only ``rows``:
    h (-J..J) on [-L, L], exactly symmetric, ``weight`` h and ``n_quad``
    2J + 1, with J = ceil(L / h_max) and h_max = pi / (pi kmax + L),
    kmax = ``band_limit(N)``, the Nyquist spacing of f psi_j psi_k(. - s)
    for f cut to |k| <= kmax, so a trapezoid rule on it integrates such
    products up to rounding (Trefethen and Weideman, SIAM Rev. 56, 2014).
    """

    def __init__(self, n_modes):
        n_modes = int(n_modes)
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

    One term of ``represent`` at shift 0, from f's modes |k| <= ``band_limit(N)``.
    No library code calls it: the tests check it against Gaussian-integral
    and quadrature oracles, and the benchmark's tracing hooks it.
    """
    if not isinstance(f, PeriodicFunction):
        raise TypeError("multiplication_matrix takes a PeriodicFunction")
    k, c, _ = f.band(band_limit(basis.n_modes))
    (section,) = _weyl_blocks(_displacements(0.0, k, c, not f.samples.imag.any()), basis.n_modes)
    return section


def translation_matrix(alpha, basis):
    """Matrix of the shift xi(x) -> xi(x - alpha); unitary up to the edge.

    One term of ``represent``, the displacement D(alpha / sqrt 2); alpha = 0
    gives the identity exactly.  No library code calls it: the tests check
    it, and the benchmark's tracing hooks it.
    """
    (section,) = _weyl_blocks(_displacements(float(alpha), np.zeros(1), np.ones(1), True),
                              basis.n_modes)
    return section


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


def _displacements(shift, k, c, real, centre=0.0):
    """The modes k of one coefficient c at one shift as displacements: (y, weight, angle, real).

    On the window psi_n(x - centre) the mode e^{2 pi i k x} translated by
    shift acts as c e^{2 pi i k centre} e^{i pi k shift} D(beta), with
    beta = (shift + 2 pi i k) / sqrt 2; y = |beta|^2, angle = arg beta, and
    real (one flag for the coefficient) says its samples are real.
    """
    k = np.asarray(k, dtype=float)
    weight = c * np.exp(1j * np.pi * k * shift)
    if centre:
        weight = weight * np.exp(2j * np.pi * centre * k)
    return (0.5 * (shift * shift + 4.0 * np.pi ** 2 * k * k), weight,
            np.arctan2(2.0 * np.pi * k, shift), np.full(k.shape, bool(real)))


def _element_displacements(a, n_modes, centre=0.0, caller="represent"):
    """``_displacements`` of every degree of a within the band limit, concatenated.

    Logs kmax and the neglected-coefficient mass, summed over degrees, at
    DEBUG on the ``nctorus.oscillator`` logger, under caller's name.
    """
    kmax = band_limit(n_modes)
    parts, neglected = [], 0.0
    for m, f in a.items():
        k, c, tail = f.band(kmax)
        parts.append(_displacements(m * a.hbar, k, c, not f.samples.imag.any(), centre))
        neglected += tail
    logger.debug("%s: N=%d kmax=%d neglected coefficient mass=%.6g",
                 caller, n_modes, kmax, neglected)
    return [np.concatenate(column) for column in zip(*parts)]


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


def _column_weights(displacements, n_modes, degrees, hermitian):
    """The kept distinct y, the weights of ``_weyl_sums`` on them, and whether they are complex.

    Modes that share y share a column, their weights times the phase
    (beta / |beta|)^d of the lower triangle, or (-conj(beta) / |beta|)^d of
    the upper, summed first.  With hermitian, the lower triangle of S + S^H,
    whose entries take (weight + (-1)^d conj(weight)) (beta / |beta|)^d.  A
    coefficient with real samples adds the real part of its sums; complex
    weights come as a real and an imaginary part per triangle.
    """
    y, weight, angle, real = displacements
    distinct, column = np.unique(y, return_inverse=True)
    kept = np.flatnonzero(_kept_columns(distinct, n_modes))
    onehot = (column[:, None] == kept).astype(float)
    phase = np.exp(1j * np.outer(degrees, angle))
    sign = (1 - 2 * (degrees & 1))[:, None]
    if hermitian:
        sums = [(weight + sign * weight.conj()) * phase]
    else:
        sums = [weight * phase, weight * sign * phase.conj()]
    complex_ = not real.all()
    parts = []
    for terms in sums:
        if complex_:
            total = (terms[:, real] @ onehot[real]).real + terms[:, ~real] @ onehot[~real]
            parts += [total.real, total.imag]
        else:
            parts.append((terms @ onehot).real)
    return distinct[kept], np.stack(parts), complex_


def _weyl_start(y, d_max):
    """Mantissas and binary exponents of H_0^(d)(y) = e^{-y/2} y^{d/2} / sqrt(d!), d <= d_max.

    A log scale L puts |L| eps into exp(L): 3e-14 in the sections at
    N = 400.  So e^{-y/2} = 2^{-q} e^r, q = rint(y / 2 ln 2), r reduced by
    ln 2 in two parts (Cody and Waite), and the factors sqrt(y / d) are
    multiplied ``_START_ROWS`` rows at a time, the exponent carried by
    ``np.frexp``: each value is rounded about d times, not |L| / eps.
    """
    q = np.rint(0.5 * y / math.log(2.0))
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
    """Yield sum_j H_n^(d)(y_j) weights[:, d, j] for n < n_modes, over the degrees d < n_modes - n.

    H_n^(d) = e^{-y/2} y^{d/2} G_n^(d) / sqrt(d!), G_n^(d) = sqrt(n! d! /
    (n + d)!) L_n^(d)(y); degrees ascend from 0, weights has shape (K,
    len(degrees), len(y)) and each yield (K, count).  The recurrence

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
    reciprocal multiply drifts).  Every ``_RESCALE_EVERY`` steps a |G|
    above ``_RESCALE_LIMIT`` is divided, with its F, by 2^``_RESCALE_BITS``
    and its binary exponent raised, both exactly, and the weights are
    rescaled.  Consumers hold ``np.errstate(under="ignore")``, as for
    ``_hermite_iter``.
    """
    mantissa, exponent = _weyl_start(y, degrees[-1])
    d = degrees.astype(float)[:, None]
    cur, exponent = mantissa[degrees], exponent[degrees]
    scaled = weights * np.ldexp(1.0, exponent)
    diff, lower = d * cur, np.empty_like(cur)
    # n (n + d), an exact integer
    square = np.zeros_like(d)
    counts = np.searchsorted(degrees, n_modes - np.arange(n_modes)).tolist()
    for n, count in enumerate(counts):
        if count < d.size:
            cur, diff, lower = cur[:count], diff[:count], lower[:count]
            d, square, exponent = d[:count], square[:count], exponent[:count]
            weights, scaled = weights[:, :count], scaled[:, :count]
        yield np.einsum("ij,kij->ki", cur, scaled)
        np.multiply(y, cur, out=lower)
        diff -= lower
        cur *= n + 1.0
        cur += diff
        # (n + 1) (n + 1 + d) = n (n + d) + 2n + 1 + d
        square += d + (2.0 * n + 1.0)
        root = np.sqrt(square)
        cur /= root
        diff *= root
        diff /= n + 1.0
        if (n + 1) % _RESCALE_EVERY == 0:
            big = np.abs(cur) > _RESCALE_LIMIT
            if big.any():
                bits = np.where(big, _RESCALE_BITS, 0)
                diff, cur = np.ldexp(diff, -bits), np.ldexp(cur, -bits)
                exponent = exponent + bits
                scaled = weights * np.ldexp(1.0, exponent)


def _weyl_blocks(displacements, n_modes, hermitian=False, step=1):
    """The section S, the sum over displacements of weight D(beta), from ``_weyl_sums``, as blocks.

    The blocks are S's rows and columns p, p + step, ... for p < step, or
    S + S^H's with hermitian, whose entries are those of the degrees 0,
    step, 2 step, ...  Each n writes column n // step of block n mod step
    below the diagonal, and as the row right of it S's upper triangle, or
    with hermitian the column's conjugate, so those blocks are Hermitian by
    construction.  float64 when every coefficient has real samples.
    """
    degrees = np.arange(0, n_modes, step)
    y, weights, complex_ = _column_weights(displacements, n_modes, degrees, hermitian)
    blocks = [np.zeros((len(range(p, n_modes, step)),) * 2, dtype=complex if complex_ else float)
              for p in range(step)]
    with np.errstate(under="ignore"):
        for n, sums in enumerate(_weyl_sums(y, degrees, weights, n_modes)):
            if complex_:
                sums = sums[0::2] + 1j * sums[1::2]
            block, i = blocks[n % step], n // step
            block[i:, i] = sums[0]
            block[i, i:] = sums[0].conj() if hermitian else sums[1]
    return blocks


def represent(a, basis):
    """Finite section P pi(a) P of pi(a) = sum_n f_n T(n hbar) on the basis, in closed form.

    Each mode |k| <= ``band_limit(N)`` of f_n, translated by n hbar, is a
    displacement (module docstring), so the section is one recurrence in n
    over every degree d = i - j and distinct y (``_weyl_sums``): no grid,
    nothing aliases.  Multiplication by a real f_n and translation map real
    functions to real functions, so a coefficient with real samples is
    taken as the real part of its band; the section of an element whose
    coefficients are all real is float64, and any complex one makes it
    complex.
    """
    n_modes = basis.n_modes
    if not a.items():
        return np.zeros((n_modes, n_modes))
    (section,) = _weyl_blocks(_element_displacements(a, n_modes), n_modes)
    return section


def _parity_sections(a, n_modes, centre, step=2):
    """The same-parity blocks of S + S^H, S the section of a on the window centred at centre.

    The window is psi_n(x - centre), n < N.  With step 2 the blocks are its
    rows and columns of parity p = 0 and 1 under the reflection x -> 2
    centre - x, the even degrees of ``_weyl_sums``; with step 1 the one
    block is the whole S + S^H, every degree.  Translating by centre
    rotates each kept Fourier mode by e^{2 pi i k centre}.  a has at least
    one degree.
    """
    return _weyl_blocks(_element_displacements(a, n_modes, centre), n_modes,
                        hermitian=True, step=step)


def diagonal_elements(weighted_shifts, n_modes):
    """Diagonal matrix elements d_n = quad(w(x) psi_n(x - a) psi_n(x)), n < n_modes.

    For weights known only as callables on the line (Fourier modes have
    the closed form of ``algebra_diagonals``).  ``weighted_shifts`` is
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

    The recurrence (n + 1) L_{n+1} = (2n + 1 - y) L_n - n L_{n-1} runs in
    difference form, D_{n+1} = L_{n+1} - L_n:

        D_{n+1} = (n D_n - y L_n) / (n + 1),  L_{n+1} = L_n + D_{n+1}.

    The three-term form rounds y against 2n + 1, which at y << n carries
    the whole dependence on y: 4.2e-12 off mpmath at y = 5e-5, n = 566,
    where this form reads 3e-16.  L and D share a per-column log scale, so
    that large y neither overflows L_n nor underflows e^{-y/2}; it is
    checked every ``_RESCALE_EVERY`` steps by ``_rescale``, as in
    ``_hermite_iter``: one step grows |L_n| by at most about y + 2 (3.3e4 at
    2000 modes), so 8 steps from 1e120 stay far below overflow.  The log
    scale changes only at rescale steps, so each run of rows that shares
    one scale is multiplied by its ``exp`` once, at the end.
    """
    out = np.empty((n_modes, y.size))
    out[0] = 1.0
    diff, lower = np.zeros_like(y), np.empty_like(y)
    scales = [(0, -0.5 * y)]
    with np.errstate(under="ignore"):
        for n in range(n_modes - 1):
            diff *= n
            np.multiply(y, out[n], out=lower)
            diff -= lower
            diff /= n + 1
            np.add(out[n], diff, out=out[n + 1])
            if (n + 1) % _RESCALE_EVERY == 0:
                diff, rescaled, log_scale = _rescale(diff, out[n + 1], scales[-1][1])
                if log_scale is not scales[-1][1]:
                    out[n + 1] = rescaled
                    scales.append((n + 1, log_scale))
        for (start, log_scale), (end, _) in zip(scales, scales[1:] + [(n_modes, None)]):
            out[start:end] *= np.exp(log_scale)
    return out


def algebra_diagonals(a, n_modes):
    """Diagonal elements <pi(a) psi_n, psi_n>, n < n_modes, in closed form.

    The d = 0 case of the displacements (module docstring): with c_k the
    modes |k| <= ``band_limit(n_modes)`` of the degree-m coefficient and
    s = m hbar,

        d_n = sum_m sum_k c_k e^{i pi k s} e^{-y/2} L_n(y),
        y = (s^2 + 4 pi^2 k^2) / 2,

    so d = rows @ w with rows[n, j] = e^{-y_j/2} L_n(y_j) (``_laguerre_rows``)
    and w_j the summed weights of the modes that share y_j (k and -k,
    degrees m and -m); the y that ``_kept_columns`` drops are skipped (52
    of 249 columns kept for the bump at 2000 modes).  No quadrature, so
    nothing aliases; the dropped modes move each d_n by at most e^{-4
    n_modes} times their mass (see ``band_limit``).  n_modes < 1 raises
    ValueError.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    y, weight, _, _ = _element_displacements(a, n_modes, caller="algebra_diagonals")
    distinct, column = np.unique(y, return_inverse=True)
    kept = _kept_columns(distinct, n_modes)
    rows = _laguerre_rows(distinct[kept], n_modes)
    real, imag = (np.bincount(column, part, distinct.size)[kept]
                  for part in (weight.real, weight.imag))
    return rows @ real + 1j * (rows @ imag)
