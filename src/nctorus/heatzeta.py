"""Oscillator heat kernel, heat traces, spectral zeta functions and means.

The closed-form Gaussian heat kernel of the oscillator drives everything:
heat traces and their alpha-shifted weighted variants come from its
diagonal, which by Mehler's formula is a Gaussian in x, so a weighted trace
is one Gaussian average of the weight, as is each inner average of the
Dixmier limit.  Each spectral zeta value has one route: the Mellin
integral of the weighted heat trace, as the paper computes it by Mehler's
formula, for a periodic weight at every shift and for every weight off the
diagonal.  On the diagonal the period mean's part of the trace is
transformed in closed form (the odd zeta), so the rest is entire.  Only
limit-type and generic weights on the diagonal, which the integral cannot
reach yet, take an eigenbasis diagonal sum with an asymptotic-mean tail
model.  Residues at the pole are extracted by polynomial extrapolation of
(s-1) times the on-diagonal zeta value.

A periodic weight carries its samples as one ``PeriodicFunction``
(``RealLineFunction.samples``): a ``PeriodicFunction`` of period 1 is its
own samples, any other callable is sampled once, at ``DEFAULT_SAMPLES``
points per period, on first read.  Their Fourier coefficients, memoised by
the ``PeriodicFunction``, serve every Gaussian average, which for a Fourier
series is a closed-form sum of its few modes the Gaussian does not
suppress, and the ``math.fsum`` mean of the samples, kept on the weight, is
its period mean.  So a periodic weight must be resolved by its samples.
Limit-type and generic weights take the quadrature stream of
``oscillator.diagonal_elements`` and the uniform rule below.

Asymptotic means of bounded functions, the Dixmier-trace double-integral
limit and the mean-subtracted antiderivative map complete the calculus.

Each quantity that several calls read is computed once, never keyed on
a weight's callable: a periodic weight's samples, coefficients and mean
on the weight itself; the odd zeta and 1/Gamma values per s, the weighted
traces on the Mellin nodes for the last two (weight object, alpha)
(``_mellin_trace``) and the quadrature diagonals of a limit-type or
generic weight for the last two (weight object, n_modes)
(``spectral_diagonals``) in memory.  Cached arrays are read-only.

Every other integral is a fixed rule, exponentially accurate for its
integrand class (Trefethen and Weideman, SIAM Review 56, 2014); nothing is
adaptive:

* Gaussian-suppressed integrands: the Gaussian averages of limit-type and
  generic weights on the 4096-point uniform rule of ``_gl_rule``; the
  Mellin integral as a uniform trapezoid in v = log t.
* Smooth integrands on a period or a finite interval: the period mean as
  the trapezoid rule on the weight's samples, the Dixmier levels and the
  antiderivative on 16-point Gauss-Legendre panels (``_gl_panels``).

mpmath (the odd zeta and 1/Gamma) and the Gauss-Legendre nodes are loaded on
first use, so importing the package costs neither.
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .oscillator import diagonal_elements, hermite_rows
from .periodic import DEFAULT_SAMPLES, PeriodicFunction

# e^{-(pi k / (P u))^2} stays a normal double while |k| <= _GAUSS_MODES * P u
_GAUSS_MODES = math.sqrt(-math.log(np.finfo(float).tiny)) / math.pi


def _finite(name, value):
    """The number value; NaN or infinite raises ValueError, as ``ktheory`` does for hbar."""
    if not cmath.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


class RealLineFunction:
    """A bounded callable on the line with declared asymptotic metadata.

    kind is one of 'periodic' (with a period), 'has_limits' (with declared
    values at -inf and +inf) or 'generic'.  A NaN or infinite period or
    limit raises ValueError naming it.  A periodic weight carries its
    samples (``samples``) and, once read, its period mean (``period_mean``).
    """

    __slots__ = ("func", "kind", "period", "limits", "_samples", "_mean")

    def __init__(self, func, kind="generic", period=None, limits=None):
        if kind not in ("periodic", "has_limits", "generic"):
            raise ValueError(f"unknown kind {kind!r}")
        if kind == "periodic" and (period is None or _finite("period", float(period)) <= 0):
            raise ValueError("periodic metadata requires a positive period")
        if kind == "has_limits" and limits is None:
            raise ValueError("has_limits metadata requires the two limits")
        self.func = func
        self.kind = kind
        self.period = float(period) if period is not None else None
        self.limits = (tuple(complex(_finite("limit", v)) for v in limits)
                       if limits is not None else None)
        given = kind == "periodic" and self.period == 1.0 and isinstance(func, PeriodicFunction)
        self._samples = func if given else None
        self._mean = None

    @classmethod
    def periodic_fn(cls, func, period=1.0):
        return cls(func, "periodic", period=period)

    @classmethod
    def with_limits(cls, func, at_minus, at_plus):
        return cls(func, "has_limits", limits=(at_minus, at_plus))

    @classmethod
    def generic(cls, func):
        return cls(func, "generic")

    def __call__(self, x):
        return self.func(x)

    def periodicity_defect(self):
        """Diagnostic max |f(x + period) - f(x)| over 16 points in [0, 2 period]."""
        if self.kind != "periodic":
            raise ValueError("periodicity_defect requires periodic metadata")
        xs = np.linspace(0.0, 2.0 * self.period, 16)
        return float(np.abs(np.asarray(self(xs + self.period)) - np.asarray(self(xs))).max())

    @property
    def samples(self):
        """A periodic weight's values at period * j / M, as one ``PeriodicFunction``.

        A ``PeriodicFunction`` given as a weight of period 1 is its own
        samples, at its own M.  Any other callable is evaluated once, on
        first read, at the M = ``DEFAULT_SAMPLES`` points
        period * j / DEFAULT_SAMPLES, and the result kept on the weight;
        two threads that race on the first read compute the same samples,
        and either is kept.
        """
        if self.kind != "periodic":
            raise ValueError("periodic metadata required")
        if self._samples is None:
            x = self.period * np.arange(DEFAULT_SAMPLES) / DEFAULT_SAMPLES
            self._samples = PeriodicFunction(self.func(x))
        return self._samples


ONE = RealLineFunction.periodic_fn(lambda x: np.ones_like(np.asarray(x, dtype=float)), 1.0)


@dataclass(frozen=True)
class MeanResult:
    """One-sided Cesaro means and their average."""

    mu_plus: complex
    mu_minus: complex
    mu: complex
    error_estimate: float = 0.0


@dataclass(frozen=True)
class ZetaEvaluation:
    """One spectral zeta value with its residue data and error estimate."""

    s: complex
    value: complex
    residue_at_1: complex | None
    error_estimate: float
    method: str


@dataclass(frozen=True)
class EntireZetaReport:
    """Samples of an off-diagonal zeta function near and right of s = 1."""

    alpha: float
    evaluations: tuple
    residue_proxies: tuple
    residue_extrapolated: float
    value_bound: float
    tolerance: float

    @property
    def passed(self):
        decreasing = all(
            a >= b - 1e-12 for a, b in zip(self.residue_proxies, self.residue_proxies[1:])
        )
        return decreasing and abs(self.residue_extrapolated) <= self.tolerance


def _read_only(*arrays):
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@lru_cache(maxsize=1)
def _gl16():
    """Nodes and weights of the 16-point Gauss-Legendre rule on [-1, 1], read-only."""
    return _read_only(*np.polynomial.legendre.leggauss(16))


def _gl_panels(a, b, n_panels):
    """Nodes and weights of n_panels equal 16-point Gauss-Legendre panels on [a, b].

    For b < a the weights are negative, so the sum is the oriented integral.
    """
    nodes, weights = _gl16()
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    return (edges[:-1, None] + half * (1.0 + nodes)).ravel(), (half * weights).ravel()


def _integral_from_zero(f, x):
    """int_0^x f on one Gauss-Legendre panel per unit length."""
    nodes, weights = _gl_panels(0.0, x, max(1, math.ceil(abs(x))))
    return complex(weights @ f(nodes))


# ---------------- heat kernel ----------------


def mehler_kernel(t, x, y):
    """Oscillator heat kernel, symmetric form.

    exp(-tanh(t) (x+y)^2/4 - coth(t) (x-y)^2/4) / sqrt(2 pi sinh 2t).
    """
    t = float(t)
    if t <= 0:
        raise ValueError("time must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    th, ch = np.tanh(t), 1.0 / np.tanh(t)
    with np.errstate(under="ignore"):
        out = np.exp(-th * (x + y) ** 2 / 4.0 - ch * (x - y) ** 2 / 4.0)
        out = out / np.sqrt(2.0 * np.pi * np.sinh(2.0 * t))
    return float(out) if out.ndim == 0 else out


def mehler_kernel_classical(t, x, y):
    """Oscillator heat kernel in the coth/cosech form of the double angle.

    exp((-(x^2+y^2) coth 2t + 2 x y cosech 2t)/2) / sqrt(2 pi sinh 2t);
    equal to ``mehler_kernel`` to machine precision.  No library code calls
    it: it is the independent form the tests compare ``mehler_kernel``
    against.
    """
    t = float(t)
    if t <= 0:
        raise ValueError("time must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    c2, s2 = 1.0 / np.tanh(2.0 * t), 1.0 / np.sinh(2.0 * t)
    with np.errstate(under="ignore"):
        out = np.exp((-(x * x + y * y) * c2 + 2.0 * x * y * s2) / 2.0)
        out = out / np.sqrt(2.0 * np.pi * np.sinh(2.0 * t))
    return float(out) if out.ndim == 0 else out


def mehler_eigen_sum(t, x, y):
    """Eigenfunction sum  sum_{n<200} e^{-(2n+1)t} psi_n(x) psi_n(y)  (elementwise).

    The result has the broadcast shape of x and y; as in ``mehler_kernel``,
    only 0-d x and y give a float.
    """
    n_modes = 200
    t = float(t)
    if t <= 0:
        raise ValueError("time must be positive")
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    rx = hermite_rows(n_modes, x.ravel())
    ry = rx if np.array_equal(x, y) else hermite_rows(n_modes, y.ravel())
    w = np.exp(-(2.0 * np.arange(n_modes) + 1.0) * t)
    out = (w[:, None] * rx * ry).sum(axis=0).reshape(x.shape)
    return float(out) if out.ndim == 0 else out


def heat_trace(t):
    """Trace of the heat semigroup at time t: ``heat_trace_weighted(ONE, 0, t)``.

    The same Mehler diagonal on the same rule, 1/(2 sinh t) in closed form.
    """
    return heat_trace_weighted(ONE, 0.0, t).real


def heat_trace_weighted(f, alpha, t):
    """int f(x) k_t(x - alpha, x) dx: the weighted, alpha-shifted heat trace.

    By Mehler's formula the shifted diagonal k_t(x - alpha, x) is
    e^{-alpha^2 coth(t)/4} / (2 sinh t) times a normalized Gaussian centred
    at alpha/2 of width 1/sqrt(tanh t), so the trace is that factor times
    ``_gaussian_average(f, sqrt(tanh t), alpha/2)``.

    Finite t > 0 is a scalar or a 1-D array, all of it in one Gaussian
    average call; each entry has the scalar call's bits.  alpha is finite.

    Resolution limit: for a periodic f the average is the closed form
    sum_k c_k e^{i pi k alpha} e^{-pi^2 k^2 / tanh t} over the modes of its
    samples, so the trace is f's Fourier closed form up to rounding and to
    the aliasing of its samples.
    Measured for cos 2 pi x, the 2048-mode hbar = 0.3 bump coefficient and
    its real part (its real samples are the CLI's riesz-ramp weight), alpha in {0, 0.3, 0.7, 1}
    and t from 1e-5 to 3: within 1e-11 of that closed form relative to
    max(1, |value|) (the uniform rule that served periodic weights before
    was 2.1e-6 off on the bump).  A limit-type or generic f is averaged on
    the uniform rule of ``_gl_rule``, whose error is set by how fast
    f(alpha/2 + x / sqrt(tanh t)) varies on its node spacing 17/4095.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    alpha = _finite("alpha", float(alpha))
    if not np.isfinite(ts).all():
        _finite("t", ts[~np.isfinite(ts)][0])
    if (ts <= 0).any():
        raise ValueError("time must be positive")
    th = np.tanh(ts)
    scale = np.exp(-alpha * alpha / (4.0 * th)) / (2.0 * np.sinh(ts))
    out = scale * _gaussian_average(f, np.sqrt(th), alpha / 2.0)
    return complex(out[0]) if np.ndim(t) == 0 else out.astype(complex)


# ---------------- zeta machinery ----------------


@lru_cache(maxsize=256)
def _odd_zeta(s):
    """sum_{n>=0} (2n+1)^{-s} = (1 - 2^{-s}) zeta(s), meromorphically continued."""
    from mpmath import zeta

    return complex(zeta(s)) * (1.0 - 2.0 ** (-complex(s)))


@lru_cache(maxsize=256)
def _rgamma(s):
    """1/Gamma(s) of the Mellin route, by mpmath: entire, 0 at s = 0, -1, -2, ..."""
    from mpmath import rgamma

    return complex(rgamma(s))


def period_mean(f):
    """Ordinary mean of a periodic weight over one period, computed once and kept on f.

    The ``math.fsum`` mean of f's samples (``RealLineFunction.samples``),
    the M-point trapezoid rule: exact for every Fourier mode |k| < M, so
    exponentially accurate for smooth f.  Precondition: f is resolved by
    its samples.  The correctly rounded sums run over Python lists of the
    parts, which ``math.fsum`` reads faster than numpy arrays.  The
    imaginary sum is taken only when some sample has a nonzero imaginary
    part; otherwise it is 0.0, which is also what ``math.fsum`` gives for
    zeros of either sign.
    """
    if f._mean is None:
        vals = f.samples.samples
        im = math.fsum(vals.imag.tolist()) if vals.imag.any() else 0.0
        f._mean = complex(math.fsum(vals.real.tolist()), im) / len(vals)
    return f._mean


@lru_cache(maxsize=2)
def spectral_diagonals(f, n_modes):
    """Diagonal elements int f(x) psi_n(x)^2 dx, n < n_modes, of a limit-type or generic f.

    These feed the on-diagonal eigen-sum of ``zeta_trace``, by the
    quadrature stream of ``oscillator.diagonal_elements``.  The read-only
    result is cached for the last two (weight object, n_modes), as
    ``_mellin_trace`` is, so the values of one weight at several s share
    one stream.  A periodic f raises ValueError: its zeta values are Mellin
    integrals of its heat trace and need no diagonals, and the fixed grid
    of ``diagonal_elements`` would alias its modes.  n_modes < 1 raises
    ValueError.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    if f.kind == "periodic":
        raise ValueError("a periodic weight's zeta values take the Mellin route")
    return _read_only(diagonal_elements([(f, 0.0)], n_modes)[0])[0]


def _tail_mean(f):
    """Limit of the diagonal elements of a limit-type or generic weight.

    The mean of the two declared limits, or None for a generic weight.
    """
    if f.kind == "has_limits":
        return 0.5 * (f.limits[0] + f.limits[1])
    return None


def _eigen_sum_tail(f, s, d):
    """The 'eigen_sum_tail' value of ``zeta_trace`` at complex s from the diagonals d."""
    mu = _tail_mean(f)
    powers = np.power(2.0 * np.arange(len(d)) + 1.0, -s)
    value = complex((d * powers).sum())
    if mu is None:
        # no tail model available: the unmodelled tail scales with the
        # continued odd zeta remainder at the last diagonal's size, where
        # |(2n+1)^{-s}| = (2n+1)^{-Re s}
        err = abs(d[-1]) * abs(_odd_zeta(s.real) - np.abs(powers).sum())
        return ZetaEvaluation(s, value, None, float(err), "eigen_sum_tail")
    tail = _odd_zeta(s) - powers.sum()
    value += complex(mu) * tail
    drift = float(np.abs(d[-(len(d) // 4):] - complex(mu)).mean())
    err = abs(d[-1] * powers[-1]) + drift * abs(tail)
    return ZetaEvaluation(s, value, residue_at_1(f), float(err), "eigen_sum_tail")


_MELLIN_STEP = 0.2


@lru_cache(maxsize=2)
def _mellin_trace(f, alpha):
    """Nodes v = log t of the Mellin rule at shift alpha and the weighted traces there.

    On the diagonal the traces are those of f minus the period mean times
    1/(2 sinh t), whose Mellin transform is the odd zeta in closed form.
    Both arrays read-only; cached for the last two (weight object, alpha),
    so the zeta values of one weight and shift at several s share one
    ``heat_trace_weighted`` call.
    """
    # the traces decay like e^{-a/t} as t -> 0: a = alpha^2/4 off the
    # diagonal, (pi/P)^2 for the mean-free part of a periodic weight on it
    a = alpha * alpha / 4.0 if alpha else (math.pi / f.period) ** 2
    v_min, v_max = math.log(a / 40.0), math.log(60.0)
    v = v_min + _MELLIN_STEP * np.arange(math.ceil((v_max - v_min) / _MELLIN_STEP) + 1)
    t = np.exp(v)
    mean = 0.0 if alpha else period_mean(f)
    return _read_only(v, heat_trace_weighted(f, alpha, t) - mean / (2.0 * np.sinh(t)))


def zeta_trace(f, alpha, s, method=None, n_modes=2000):
    """One value of the spectral zeta function Tr(f T_alpha H^{-s}).

    A periodic weight, at every shift, and every weight off the diagonal
    take the Mellin integral of the weighted heat trace ('heat_mellin').
    Only a limit-type or generic weight on the diagonal takes the eigen-sum
    ('eigen_sum_tail'), which the integral cannot reach yet.
    ``ZetaEvaluation.method`` names the route taken.  The method argument
    only names the shift class: None, 'eigen_sum_tail' at alpha = 0 or
    'heat_mellin' at alpha != 0; any other name raises ValueError.
    ``bench/tracing.py`` passes 'eigen_sum_tail' on every on-diagonal
    traced call, so the parameter stays until the benchmark stops passing
    it.  n_modes < 1 or a non-finite alpha or s raises ValueError.

    The Mellin route is Gamma(s)^{-1} int t^{s-1} Tr(f T_alpha e^{-tH}) dt.
    Off the diagonal the trace decays like e^{-a/t} as t -> 0 with
    a = alpha^2/4, so the zeta function is entire and ``residue_at_1`` is 0.
    On the diagonal the trace of the period mean c_0 (``period_mean``,
    kept on f), c_0/(2 sinh t), is subtracted (``_mellin_trace``) and its
    transform c_0 (1 - 2^{-s}) zeta(s) added in closed form; the rest
    decays like e^{-a/t} with a = (pi/P)^2, so it is entire too, and
    ``residue_at_1`` is ``residue_at_1(f)`` = c_0/2.
    At s = 1 itself the odd zeta has its pole: a weight with
    |c_0| <= eps max|samples| (``PeriodicFunction.sup_norm`` of its
    samples), whose mean is zero up to the rounding of its samples, as
    cos 2 pi x's fsum mean of -1.9e-17 is, has an entire zeta function and
    the c_0 term is dropped; any other weight raises ValueError naming
    s = 1 and the residue c_0/2.
    In v = log t the integrand decays double-exponentially as v -> -inf and
    exponentially in t, so it is one uniform trapezoid of step 0.2 from
    t = a/40 (factor e^{-40}) to t = 60: 36-77 nodes for alpha in
    [0.05, 3] and 29 on the diagonal at P = 1, whose traces come from one
    ``heat_trace_weighted`` call on the array of t.  1/Gamma is entire
    (``mpmath.rgamma``), so s = 0, -1, -2, ... need no special case: off
    the diagonal the value there is 0.  The nodes and traces depend on f
    and alpha only, so ``_mellin_trace`` keeps them for the last two
    (weight object, alpha): the values of one weight and shift at several s
    share one trace call.  n_modes is not read.  Its ``error_estimate`` is
    |T_h - T_2h| / |Gamma(s)|, the change from the same sum on every other
    node, so it bounds the coarser rule; the rule at step h is far more
    accurate.  Measured against 30-digit mpmath quadratures of the Mehler
    closed form: for ``ONE`` at (alpha, s) = (0.05, 1.1), (0.05, 3),
    (0.3, 1.01), (1, 1.5) and (3, 2) within 4e-15 relative, while the
    estimate reads 2e-11 to 3e-8; on the diagonal for 1 + cos 2 pi x at
    s = 1.01, 1.1, 1.5, 2, 3, 0.5, 0.25, -0.5, -2.5, 0.5 + 3i and 1.2 + 3i
    within 2e-15 relative.  For ``ONE`` on the diagonal the subtracted
    trace is 0, so the value is the odd zeta to the bit.

    The eigen-sum route sums the first n_modes diagonal elements of
    ``spectral_diagonals(f, n_modes)`` against (2n+1)^{-s} and models the
    tail by the asymptotic mean mu times the continued odd zeta.  Its
    ``residue_at_1`` is ``residue_at_1(f)``, half that mean, or None for a
    generic weight, which has no tail model and for which Re(s) <= 1
    raises ValueError.  At s = 1 the odd zeta of the tail model has its
    pole, so a limit-type weight raises ValueError there, naming its kind
    and the residue mu/2, before any diagonal is computed; that holds for
    mu = 0 too (arctan), whose value at s = 1 would rest on the decay of
    its diagonals, which the tail model does not know.
    """
    alpha = _finite("alpha", float(alpha))
    s = complex(_finite("s", s))
    if method not in (None, "eigen_sum_tail", "heat_mellin"):
        raise ValueError(f"unknown method {method!r}")
    if method not in (None, "eigen_sum_tail" if alpha == 0.0 else "heat_mellin"):
        raise ValueError(f"{method} names the other shift class: 'eigen_sum_tail' is "
                         "on-diagonal only, 'heat_mellin' off-diagonal only")
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")

    if alpha == 0.0 and f.kind != "periodic":
        if f.kind == "generic" and s.real <= 1.0:
            raise ValueError(
                "generic weight with Re(s) <= 1 is outside the continued region"
            )
        if s == 1.0:
            residue = residue_at_1(f)
            raise ValueError(
                f"the eigen-sum of a limit-type ({f.kind}) weight has no value at s = 1: "
                f"the odd zeta of its tail model has a pole there, with residue mu/2 = "
                f"{residue.real if residue.imag == 0 else residue:.6g}")
        return _eigen_sum_tail(f, s, spectral_diagonals(f, n_modes))

    v, trace = _mellin_trace(f, alpha)
    # the end nodes carry below e^{-40} of the sum: trapezoid = plain sum
    terms = np.exp(s * v) * trace
    fine, coarse = _MELLIN_STEP * terms.sum(), 2.0 * _MELLIN_STEP * terms[::2].sum()
    rg = _rgamma(s)
    value, residue = fine * rg, 0.0
    if alpha == 0.0:
        mean = period_mean(f)
        if s != 1.0:
            # the transform of the mean's trace that _mellin_trace subtracted
            value += mean * _odd_zeta(s)
        elif abs(mean) > np.finfo(float).eps * f.samples.sup_norm():
            raise ValueError(f"the zeta function has a pole at s = 1, with residue "
                             f"c_0/2 = {mean / 2.0:.6g}")
        residue = residue_at_1(f)
    return ZetaEvaluation(s, value, residue, abs(fine - coarse) * abs(rg), "heat_mellin")


def residue_at_1(f):
    """Residue of the on-diagonal zeta at s = 1: half the asymptotic mean.

    The mean is the period mean of a periodic weight and the average of the
    two declared limits of a limit-type one.  A generic weight has no tail
    model, so ValueError.
    """
    mu = period_mean(f) if f.kind == "periodic" else _tail_mean(f)
    if mu is None:
        raise ValueError("residue_at_1 requires periodic or limit metadata")
    return mu / 2.0


def _intercept(x, y):
    """Value at 0 of the polynomial through the points (x, y), y complex.

    The real and imaginary parts are fitted separately, each by one
    ``np.polyfit`` of degree len(x) - 1.
    """
    y = np.asarray(y)
    deg = len(x) - 1
    return complex(np.polyfit(x, y.real, deg)[-1], np.polyfit(x, y.imag, deg)[-1])


def residue_by_extrapolation(f):
    """Extrapolate (s-1) Tr(f H^{-s}) to s -> 1+ through s = 1.1, 1.01, 1.001.

    The three values are on-diagonal values of ``zeta_trace``, whose caches
    share one computation among them: for a periodic weight its Mellin
    values, on one trace, and otherwise its eigen-sum values on 2000 modes,
    from one ``spectral_diagonals`` stream.  The extrapolation is the
    quadratic through them (``_intercept``).
    """
    hs = np.array([0.1, 0.01, 0.001])
    return _intercept(hs, [h * zeta_trace(f, 0.0, 1.0 + h).value for h in hs])


# ---------------- asymptotic means ----------------


def asymptotic_mean(f, x_max=32.0):
    """One-sided Cesaro means mu_plus, mu_minus and their average.

    Periodic metadata short-circuits to the exact period mean.  Otherwise
    the running means at x_max/4, x_max/2 and x_max are fitted to the model
    mu + (a + b log x)/x on each side, which captures both O(1/x) tails and
    the log x/x tails of limit-type functions.  A non-finite or
    nonpositive x_max raises ValueError.
    """
    _finite("x_max", x_max)
    if x_max <= 0:
        raise ValueError("x_max must be positive")
    if f.kind == "periodic":
        mu = period_mean(f)
        return MeanResult(mu, mu, mu, 0.0)

    def one_side(sign):
        xs = np.array([x_max / 4.0, x_max / 2.0, x_max])
        rs = np.array([_integral_from_zero(f, sign * x) / (sign * x) for x in xs])
        design = np.column_stack(
            [np.ones(3), 1.0 / xs, np.log(xs) / xs]
        )
        sol_re = np.linalg.solve(design, rs.real)
        sol_im = np.linalg.solve(design, rs.imag)
        mu = sol_re[0] + 1j * sol_im[0]
        two_point = 2.0 * rs[2] - rs[1]
        return mu, abs(mu - two_point)

    mu_plus, err_p = one_side(+1.0)
    mu_minus, err_m = one_side(-1.0)
    return MeanResult(
        mu_plus, mu_minus, 0.5 * (mu_plus + mu_minus), float(err_p + err_m)
    )


# ---------------- Dixmier-trace limit ----------------


@lru_cache(maxsize=1)
def _gl_rule():
    """Nodes x, equal weight h and e^{-x^2} of the 4096-point uniform rule on [-8.5, 8.5].

    Built once, read-only.  For Gaussian-decaying integrands the uniform
    rule is exponentially accurate (Trefethen and Weideman, SIAM Review 56,
    2014); the neglected tails are below e^{-72}.  It serves the Gaussian
    averages of limit-type and generic weights (the weighted heat trace and
    the inner averages of ``dixmier_limit``); periodic weights are averaged
    in closed form from their samples' coefficients.  The name is kept from the
    Gauss-Legendre rule it replaced because ``bench/workloads.py`` calls it.
    """
    x = np.linspace(-8.5, 8.5, 4096)
    gauss = np.exp(-x * x)
    _read_only(x, gauss)
    return x, x[1] - x[0], gauss


def _rule_average(f, u, center):
    x, h, gauss = _gl_rule()
    return (h * f(center + x / u) * gauss).sum() / np.sqrt(np.pi)


def _gaussian_average(f, u, center=0.0):
    """(1/sqrt(pi)) int f(center + x/u) e^{-x^2} dx, elementwise over u in (0, 1].

    A periodic f, sum_k c_k e^{2 pi i k x / P}, averages in closed form to
    sum_{|k| <= K} c_k e^{2 pi i k center / P} e^{-(pi k / (P u))^2}, with
    the coefficients of its samples.  K is the last mode whose Gaussian
    factor at u = 1 stays a normal double (about 8.5 P), capped at M / 2 - 1
    for M samples, and each u takes its own dot product over them, so no
    entry depends on the others.  A weight with real samples returns the
    real part.  Other weights take the uniform rule of ``_gl_rule``, one
    weight evaluation of 4096 points per u.
    """
    u = np.asarray(u, dtype=float)
    if f.kind != "periodic":
        return np.array([_rule_average(f, v, center) for v in u.ravel()]).reshape(u.shape)
    samples = f.samples
    kmax = min(int(_GAUSS_MODES * f.period), samples.n_samples // 2 - 1)
    k = np.arange(-kmax, kmax + 1)
    xi = (np.pi / f.period) * k
    terms = samples.coefficients[k] * np.exp((2j * center) * xi)
    with np.errstate(under="ignore"):
        gauss = np.exp(-np.square(xi / u[..., None]))
    # a stack of 1 x K by K x 1 products: one dot product per u
    out = (gauss[..., None, :] @ terms[:, None])[..., 0, 0]
    return out if samples.samples.imag.any() else out.real


def dixmier_limit(f):
    """Limit of (1/2 sqrt(pi)) int_0^1 int f(x/t^a) e^{-x^2} dx dt as a grows.

    Evaluated at a = 4 and a = 8 with the substitution u = t^a concentrating
    the measure away from t = 0, then Richardson extrapolated in 1/a.  The
    outer integral over u runs in log u on 16-point Gauss-Legendre panels of
    length at most 1 (``_gl_panels``), and both levels share one set of
    inner Gaussian averages at those nodes, taken in one
    ``_gaussian_average`` call: in closed form from the samples of a
    periodic weight, on the uniform rule of ``_gl_rule`` otherwise.  Below
    a metadata-dependent floor in u the inner average has converged to its
    limit and is frozen there: the rescaled argument x/u oscillates too fast
    for honest quadrature but the averaged value no longer moves (this is
    the same mechanism that produces the limit).  For a function with the
    asymptotic mean property the result is mu(f)/2.
    """
    u_floor = 0.05 if f.kind == "periodic" else 1e-5
    # int_{u_floor}^1 g(u) u^{1/a - 1} du = int g(e^w) e^{w/a} dw over w = log u
    w, weights = _gl_panels(math.log(u_floor), 0.0, math.ceil(-math.log(u_floor)))
    averages = _gaussian_average(f, np.concatenate(([u_floor], np.exp(w))))
    g_floor, g = averages[0], averages[1:]

    def level(a):
        inner = (weights * np.exp(w / a)) @ g
        closure = g_floor * u_floor ** (1.0 / a)
        return 0.5 * (inner / a + closure)

    i_half = level(4.0)
    i_full = level(8.0)
    out = 2.0 * i_full - i_half
    return out if abs(out.imag) > 1e-15 else complex(out.real)


# ---------------- the antiderivative map ----------------


def delta_map(f):
    """Mean-subtracted antiderivative: int_0^x f minus mu_plus x or mu_minus x.

    Periodic input gives periodic output of the same period; declared limits
    are used directly for limit-type input.  Generic input must have
    numerically converged one-sided means (``asymptotic_mean`` with
    x_max = 64, error below 1e-6).
    """
    if f.kind == "periodic":
        mu_p = mu_m = period_mean(f)
        out_kind = ("periodic", f.period)
    elif f.kind == "has_limits":
        mu_m, mu_p = f.limits
        out_kind = ("generic", None)
    else:
        means = asymptotic_mean(f, 64.0)
        if means.error_estimate > 1e-6:
            raise ValueError(
                "one-sided means did not converge; no asymptotic mean available"
            )
        mu_p, mu_m = means.mu_plus, means.mu_minus
        out_kind = ("generic", None)

    def value(x):
        x = float(x)
        if x == 0.0:
            return 0.0 + 0.0j
        slope = mu_p if x >= 0 else mu_m
        return _integral_from_zero(f, x) - slope * x

    def func(x):
        xs = np.asarray(x, dtype=float)
        if xs.ndim == 0:
            return value(float(xs))
        return np.array([value(v) for v in xs.ravel()]).reshape(xs.shape)

    kind, period = out_kind
    if kind == "periodic":
        return RealLineFunction.periodic_fn(func, period)
    return RealLineFunction.generic(func)


# ---------------- entire off-diagonal check ----------------


def entire_check(f, alpha):
    """Probe the off-diagonal zeta near s = 1 for the absence of a pole.

    Evaluates the zeta values at s = 1.5, 1.1 and 1.01 (three
    ``zeta_trace`` calls on the Mellin route, which share one weighted heat
    trace on the Mellin nodes), reports the proxies |(s-1) value|,
    extrapolates them to s = 1 by a quadratic and checks the extrapolation
    vanishes within 1e-3 while the values themselves stay bounded.
    """
    alpha = float(alpha)
    if alpha == 0.0:
        raise ValueError("entire_check requires a nonzero translation")
    evals = tuple(zeta_trace(f, alpha, s) for s in (1.5, 1.1, 1.01))
    proxies = tuple(abs((ev.s - 1.0) * ev.value) for ev in evals)
    hs = np.array([ev.s.real - 1.0 for ev in evals])
    extrap = _intercept(hs, [(ev.s - 1.0) * ev.value for ev in evals]).real
    bound = max(abs(ev.value) for ev in evals)
    return EntireZetaReport(alpha, evals, proxies, extrap, float(bound), 1e-3)
