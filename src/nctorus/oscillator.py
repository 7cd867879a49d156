"""Truncated Hermite-basis model of L^2(R).

Provides stable evaluation of the orthonormal oscillator eigenfunctions
psi_n, dense matrices of the ladder operators and of multiplication and
translation operators, the finite section of the line representation of
rotation-algebra elements, and the diagonal matrix elements used by heat
traces and spectral zeta sums.

Matrices are trapezoid quadratures on one exactly symmetric grid
u = h (-J..J): the basis' K = 2J + 1 points on [-L, L], L = sqrt(2N + 3) + 6,
extended by the half-span of the translations involved and centred at their
midpoint (``_section``).  The spacing is set by the band the integrands
carry, not by N alone: h = L / J with J = ceil(L / h_max) and
h_max = pi / (pi kmax + L), kmax = ``band_limit(N)``.  Each psi_n is its own
Fourier transform up to a phase, so for n < N it is band-limited by the
same L that bounds it in space, and a coefficient cut to |k| <= kmax
carries angular frequencies up to 2 pi kmax.  The integrand
f psi_j psi_k(. - s) then has its spectrum within 2 pi kmax + 2L, and a
trapezoid rule with 2 pi / h at least that is exact for it up to rounding
(Trefethen and Weideman, SIAM Rev. 56, 2014).  K is 133 at N = 8 and 1575,
2057 and 2487 at N = 300, 400 and 500: a fixed number of points per mode
would alias at small N and over-resolve at large N.

Every degree of a section shares the left Hermite table and one GEMM, and a
table at a negative offset is a stored one read in reverse,
psi_n(u - s) = (-1)^n psi_n(-u + s), so a section runs one Hermite
recurrence per distinct |offset|: one for the localizer's element
e_0 / 2 + e_1 [1], centred at hbar / 2.

An algebra coefficient reaches the N-mode window only through its Fourier
modes |k| <= ``band_limit(N)``; the rest couple nothing there (the tail
bound is in ``band_limit``) and would only alias into the grid, so
``represent``, ``algebra_diagonals`` and ``multiplication_matrix`` (of a
``PeriodicFunction``) drop them.  Diagonal elements of
algebra elements need no quadrature: in the Weyl (Laguerre) form

    <psi_n, e^{2 pi i k x} psi_n(. - a)> = e^{i pi k a} e^{-y/2} L_n(y),
    y = (a^2 + 4 pi^2 k^2) / 2.

``mode_diagonals`` is this closed form for any modes and shifts; it serves
``algebra_diagonals``.  ``diagonal_elements`` keeps the quadrature for
weights with no Fourier data: callables on the line of limit or generic
type (periodic weights need no diagonals: their zeta values are Mellin
integrals of their heat traces in ``heatzeta``).

Hermite values and quadrature weights below ``SUBNORMAL_FLOOR`` =
cbrt(tiny) (about 2.8e-103) are stored as 0.  A product of three kept
factors, a weight and two Hermite values as each quadrature GEMM forms
them, is then never subnormal, which
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

from .periodic import PeriodicFunction, trig_sum

_RESCALE_EVERY = 8
_RESCALE_LIMIT = 1e120
# quadrature half-width beyond the classical turning point sqrt(2N + 3)
QUAD_PAD = 6.0
# quadrature points per mode of ``diagonal_elements``, whose weights have no
# band limit: K = QUAD_DENSITY * N + 1 (the basis grid is set by band_limit)
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
    psi_0 underflows but high modes do not).  ``exp(ln)`` is recomputed only
    when a rescale moves ln.  It underflows there: each consumer
    runs the whole iteration under one ``np.errstate(under="ignore")``,
    since a context entered here would be held across yields and its state
    would leak into the consumer while the generator is suspended.
    """
    x = np.asarray(x, dtype=float)
    ln = -0.5 * x * x - 0.25 * np.log(np.pi)
    scale = np.exp(ln)
    u_prev = np.ones_like(x)
    u = np.sqrt(2.0) * x
    for m in itertools.count(1):
        yield u_prev * scale
        u_prev, u = u, np.sqrt(2.0 / (m + 1)) * x * u - np.sqrt(m / (m + 1.0)) * u_prev
        u_prev, u, rescaled = _rescale(m, u_prev, u, ln)
        if rescaled is not ln:
            ln, scale = rescaled, np.exp(rescaled)


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
    """First N oscillator eigenfunctions with a shared uniform quadrature.

    The grid is h (-J..J) on [-L, L], exactly symmetric so that it reads the
    same reversed; ``weight`` is h and ``n_quad`` is 2J + 1.  h = L / J with
    J = ceil(L / h_max) is the widest such spacing at or below the Nyquist
    spacing h_max = pi / (pi kmax + L), kmax = ``band_limit(N)``, of the
    band-limited integrands of ``represent`` (see the module docstring).
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


def _section(terms, basis):
    """Sum over (shift s, f) of the quadrature matrices of f psi_j psi_k(. - s).

    One grid serves every term: u = h (-J..J) with the basis spacing h,
    placed at x = u + c with c the midpoint of the shifts and J the basis'
    J plus the half-span of the shifts, so that every shifted factor keeps
    its whole window on the grid.  With x = sign (u + |c|) and r = |c| -
    sign s, parity gives psi_n(x) = sign^n psi_n(u + |c|) and psi_k(x - s) =
    sign^k psi_k(u + r), and psi_k(u + r) for r < 0 is (-1)^k psi_k(u - r)
    read in reverse (u is symmetric).  So one Hermite table per distinct
    |offset| is computed, and the section is one GEMM, left @ right.T, of
    the table at |c| with right = sum over terms of h f(x) times the table
    at |r|, accumulated row by row in place.  A complex f runs as two real
    GEMMs, one per part of right, half the flops of the complex GEMM that
    numpy would upcast complex-by-real to.

    Each f maps the points x to its values there.  Weights below
    ``SUBNORMAL_FLOOR`` are dropped, as in ``hermite_rows``: every term of
    right is a product of a kept weight and a kept Hermite value.
    """
    n, h = basis.n_modes, basis.weight
    shifts = [s for s, _ in terms]
    centre = 0.5 * (min(shifts) + max(shifts))
    extra = int(np.ceil(0.5 * (max(shifts) - min(shifts)) / h))
    u = h * np.arange(-(basis.n_quad // 2 + extra), basis.n_quad // 2 + extra + 1)
    sign = -1.0 if centre < 0 else 1.0
    tables = {}

    def table(offset):
        if offset not in tables:
            tables[offset] = hermite_rows(n, u + offset)
        return tables[offset]

    left = table(abs(centre))
    x = sign * (u + abs(centre))
    factors, values = [], []
    for s, f in terms:
        r = abs(centre) - sign * s
        # rows, and whether odd rows change sign (reversed tables only)
        factors.append((table(-r)[:, ::-1], True) if r < 0 else (table(r), False))
        values.append(h * np.broadcast_to(f(x), x.shape))
    parts = [np.real] + ([np.imag] if any(np.iscomplexobj(v) for v in values) else [])
    right = np.empty((n, u.size))
    sections = []
    for part in parts:
        kept = []
        for (rows, odd_flips), v in zip(factors, values):
            w = _floor(np.array(part(v), dtype=float))
            if w.any():
                kept.append((rows, w, -w if odd_flips else w))
        if not kept:
            sections.append(np.zeros((n, n)))
            continue
        (first, even, odd), rest = kept[0], kept[1:]
        for k in range(n):
            acc = np.multiply(first[k], odd if k & 1 else even, out=right[k])
            for rows, w, w_odd in rest:
                acc += rows[k] * (w_odd if k & 1 else w)
        sections.append(left @ right.T)
    out = sections[0] if len(sections) == 1 else sections[0] + 1j * sections[1]
    if sign < 0:
        out[1::2] *= -1.0
        out[:, 1::2] *= -1.0
    return out


def multiplication_matrix(f, basis):
    """Matrix of multiplication by f: entries quad(f psi_m psi_n).

    A ``PeriodicFunction`` is evaluated from its modes |k| <= ``band_limit(N)``,
    as in ``represent``: those are the modes the grid resolves and the only
    ones that couple the N-mode window, so none of the rest aliases into
    the matrix.  Any other callable is evaluated on the grid as it is, and
    is resolved when its Fourier transform lies within |xi| <= 2 pi kmax.
    No library code calls it: the tests check the shared quadrature of
    ``_section`` through it against a Gaussian-integral oracle, and
    the benchmark's tracing hooks it.
    """
    if isinstance(f, PeriodicFunction):
        k, c, _ = f.band(band_limit(basis.n_modes))
        f = _band_function(k, c, not f.samples.imag.any())
    return _section([(0.0, f)], basis)


def translation_matrix(alpha, basis):
    """Matrix of the shift xi(x) -> xi(x - alpha); unitary up to the edge.

    At alpha = 0 it is the quadrature Gram matrix.  No library code calls
    it: the tests check the Gram defect, unitarity and a Gaussian overlap
    through it, and the benchmark's tracing hooks it.
    """
    return _section([(float(alpha), lambda x: 1.0)], basis)


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


def _band_function(k, c, real):
    """x -> sum_k c_k e^{2 pi i k x} by ``trig_sum``, or its real part when real."""
    def values(x):
        v = trig_sum(k, c, x)
        return v.real if real else v
    return values


def represent(a, basis):
    """Finite section P pi(a) P of pi(a) = sum_n f_n T(n hbar) on the basis.

    Each degree n is one term f_n psi_j psi_k(. - n hbar) of ``_section``:
    a single translation by n*hbar of either sign, not a product
    P M_f P . P T P, and every degree shares one grid, one left Hermite
    table and one GEMM.  f_n is evaluated on the grid from its modes
    |k| <= ``band_limit(N)``, so no out-of-band mode aliases into the
    section.

    Multiplication by a real f_n and translation both map real functions to
    real functions, so a coefficient with real samples is taken as the real
    part of its band.  The section of an element whose coefficients are all
    real is a float64 array from one real GEMM; any complex coefficient
    makes it complex.
    """
    terms = [
        (n * a.hbar, _band_function(k, c, not a.coefficient(n).samples.imag.any()))
        for n, k, c in _bands(a, basis.n_modes, "represent")
    ]
    if not terms:
        return np.zeros((basis.n_modes, basis.n_modes))
    return _section(terms, basis)


def diagonal_elements(weighted_shifts, n_modes):
    """Diagonal matrix elements d_n = quad(w(x) psi_n(x - a) psi_n(x)), n < n_modes.

    For weights known only as callables on the line (Fourier modes have
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
    far below overflow.  Each row is computed in place into the output;
    the log scale changes only at rescale steps, so each run of rows that
    shares one scale is multiplied by its ``exp`` once, at the end.
    """
    out = np.empty((n_modes, y.size))
    prev, cur = np.zeros_like(y), np.ones_like(y)
    out[:1] = cur
    step, lower = np.empty_like(y), np.empty_like(y)
    scales = [(0, -0.5 * y)]
    with np.errstate(under="ignore"):
        for n in range(n_modes - 1):
            np.subtract(2 * n + 1, y, out=step)
            np.multiply(step, cur, out=step)
            np.multiply(n, prev, out=lower)
            np.subtract(step, lower, out=step)
            nxt = np.divide(step, n + 1, out=out[n + 1])
            prev, rescaled, log_scale = _rescale(n + 1, cur, nxt, scales[-1][1])
            if log_scale is not scales[-1][1]:
                nxt[...] = rescaled
                scales.append((n + 1, log_scale))
            cur = nxt
        for (start, log_scale), (end, _) in zip(scales, scales[1:] + [(n_modes, None)]):
            out[start:end] *= np.exp(log_scale)
    return out


def mode_diagonals(k, shift, n_modes):
    """Closed-form diagonal elements of Fourier modes, as rows and phases.

    For the mode e^{2 pi i k x} and a shift a (arrays of one length, or a
    scalar shift),

        <e^{2 pi i k x} psi_n(. - a), psi_n> = e^{i pi k a} e^{-y/2} L_n(y),
        y = (a^2 + 4 pi^2 k^2) / 2.

    Returns (rows, phase): rows[n, j] = e^{-y_j/2} L_n(y_j) for n < n_modes
    by ``_laguerre_rows``, and phase[j] = e^{i pi k_j a_j}, so a weight
    with coefficients c_j on these modes has diagonals rows @ (c * phase).
    This is the closed form behind ``algebra_diagonals``.
    """
    y = 0.5 * (shift * shift + 4.0 * np.pi ** 2 * k * k)
    return _laguerre_rows(y, n_modes), np.exp(1j * np.pi * k * shift)


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
