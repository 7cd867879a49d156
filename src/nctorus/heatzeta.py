"""Oscillator heat kernel, heat traces, spectral zeta functions and means.

The closed-form Gaussian heat kernel of the oscillator drives everything:
heat traces and their alpha-shifted weighted variants come from its
diagonal, which by Mehler's formula is a Gaussian in x, so a weighted trace
is one Gaussian average of the weight, as is each inner average of the
Dixmier limit.  Every spectral zeta value is assembled one way, as the paper
computes it by Mehler's formula: the Mellin integral of one trace record per
weight, shift and window (``_mellin_trace``), plus the closed-form transforms
of its singular parts on the diagonal (``zeta_trace``).  Off the diagonal
there is no singular part, so ``entire_check`` reads s = 1 itself; on it,
residues at s = 1 are also extrapolated from (s-1) times its values.

A periodic weight carries its samples as one ``PeriodicFunction``
(``RealLineFunction.samples``): a ``PeriodicFunction`` of period 1 is its
own samples, any other callable is sampled once, at ``DEFAULT_SAMPLES``
points per period, on first read (at period 1 these are nodes of any
``PeriodicFunction`` whose M is a multiple of ``DEFAULT_SAMPLES``, where its
evaluation is a gather of its samples).  Their memoised Fourier coefficients
serve every Gaussian average, a closed-form sum of the few modes the
Gaussian does not suppress, and the ``math.fsum`` mean of the samples is
its period mean.  So a periodic weight must be resolved by its samples.
Limit-type and generic weights are read on fixed rules in x.

Asymptotic means of bounded functions, the Dixmier-trace double-integral
limit and the mean-subtracted antiderivative map complete the calculus.

Each quantity that several calls read is computed once, never keyed on a
weight's callable: a periodic weight's samples, coefficients and mean, and
every weight's Mellin trace record of the last shift and window, on the weight;
the odd zeta and 1/Gamma values per s in memory.  Cached arrays are
read-only.  Every integral is a fixed rule, exponentially accurate for its
integrand class (Trefethen and Weideman, SIAM Review 56, 2014); nothing is
adaptive:

* Gaussian-suppressed integrands: the Gaussian averages of limit-type and
  generic weights on the 4096-point uniform rule of ``_gl_rule``; the
  Mellin integral as a uniform trapezoid in v = log t.
* Smooth integrands on a period or a finite interval: the period mean as
  the trapezoid rule on the weight's samples; the diagonal heat trace of a
  limit-type or generic weight, the Dixmier levels and the antiderivative
  on 16-point Gauss-Legendre panels (``_gl_panels``).

mpmath (the odd zeta and 1/Gamma) and the Gauss-Legendre nodes are loaded on
first use, so importing the package costs neither.
"""

import cmath
import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# diagonal_elements has no caller here: bench/tracing.py wraps heatzeta's name
from .oscillator import QUAD_PAD, diagonal_elements, hermite_rows  # noqa: F401
from .periodic import DEFAULT_SAMPLES, PeriodicFunction, sample_values

logger = logging.getLogger(__name__)

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
    samples (``samples``) and, once read, its period mean (``period_mean``);
    every weight, its Mellin trace record of the last shift and window.
    """

    __slots__ = ("func", "kind", "period", "limits", "_samples", "_mean", "_traces")

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
        self._traces = None

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
        period * j / DEFAULT_SAMPLES, and the result kept on the weight; a
        scalar result, as of a constant callable, is broadcast to the
        points.  Two threads that race on the first read compute the same
        samples, and either is kept.

        At period 1 these points are the nodes of any ``PeriodicFunction``
        whose M is a multiple of ``DEFAULT_SAMPLES``, so a callable that
        evaluates one, such as ``lambda x: np.real(coeff(x))``, reads its
        samples by a gather and runs no trigonometric sum.
        """
        if self.kind != "periodic":
            raise ValueError("periodic metadata required")
        if self._samples is None:
            x = self.period * np.arange(DEFAULT_SAMPLES) / DEFAULT_SAMPLES
            self._samples = PeriodicFunction(sample_values(self.func, x))
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
    """An off-diagonal zeta function at s = 1.5, 1.1 and 1.01, and at s = 1.

    ``evaluations`` holds the first three, ``at_1`` the value at s = 1.  It
    passes when the value at s = 1 is finite and its error estimate is at
    most ``tolerance`` max(1, |value|).  ``residue_extrapolated`` is the
    residue the assembly reports at s = 1, 0.0 off the diagonal, and
    ``value_bound`` the largest |value| of the four.
    """

    alpha: float
    evaluations: tuple
    at_1: ZetaEvaluation
    residue_extrapolated: float
    value_bound: float
    tolerance: float

    @property
    def passed(self):
        value = self.at_1.value
        return (cmath.isfinite(value)
                and self.at_1.error_estimate <= self.tolerance * max(1.0, abs(value)))


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


_MELLIN_STEP = 0.2


def _subtracted_kernel(t, x):
    """K_t(x, x) - e^{-t} / sqrt(4 pi t), K_t(x, x) = e^{-tanh(t) x^2} / sqrt(2 pi sinh 2t).

    One row per t, one column per x.  Below t = 1e-2 it is
    (4 pi t)^{-1/2} [e^{-t x^2} expm1((t - tanh t) x^2 + log(2t / sinh 2t) / 2)
    + e^{-t} expm1(t - t x^2)], with t - tanh t and log(2t / sinh 2t) from
    their Taylor series (through t^9 and t^8), so nothing cancels.
    """
    x2, out = x * x, np.empty((t.size, x.size))
    small = t < 1e-2
    ts, tl = t[small, None], t[~small, None]
    tt, u = ts * ts, 4.0 * ts * ts
    lag = ts * tt * (1.0 / 3.0 + tt * (-2.0 / 15.0 + tt * (17.0 / 315.0 - tt * 62.0 / 2835.0)))
    log_ratio = -u * (1.0 / 6.0 + u * (-1.0 / 180.0 + u * (1.0 / 2835.0 - u / 37800.0)))
    with np.errstate(under="ignore"):
        out[small] = (np.exp(-ts * x2) * np.expm1(lag * x2 + 0.5 * log_ratio)
                      + np.exp(-ts) * np.expm1(ts - ts * x2)) / np.sqrt(4.0 * np.pi * ts)
        out[~small] = (np.exp(-np.tanh(tl) * x2) / np.sqrt(2.0 * np.pi * np.sinh(2.0 * tl))
                       - np.exp(-tl) / np.sqrt(4.0 * np.pi * tl))
    return out


def _show(z):
    """z, or its real part when its imaginary part is 0: for messages."""
    return z.real if complex(z).imag == 0 else z


def _mellin_trace(f, alpha, mu, half_width=None):
    """The Mellin record of f at shift alpha: nodes v = log t, traces, c and edge.

    The nodes run from v_min in steps of ``_MELLIN_STEP`` past log 60.  With no
    window they start at log(a/40) (``zeta_trace``), the traces are f's weighted
    traces less mu/(2 sinh t), and c = edge = 0.  With the window [-X, X],
    X = half_width, they start at -80 and are int g (K_t - e^{-t}/sqrt(4 pi t)),
    g = (f(x) + f(-x))/2 - mu read once on 16-point Gauss-Legendre panels of
    length at most 1, c = int g / sqrt(4 pi), edge max |g| on the last panel;
    one DEBUG line is logged.  Read-only, kept on f for the last (alpha, X).
    """
    held = f._traces
    if held is None or held[0] != (alpha, half_width):
        v_min = -80.0
        if half_width is None:
            # the traces decay like e^{-a/t}: a = alpha^2/4 off the diagonal, (pi/P)^2 on it
            a = alpha * alpha / 4.0 if alpha else (math.pi / f.period) ** 2
            if a / 40.0 < (tiny := np.finfo(float).tiny):  # t = alpha^2/160 subnormal
                raise ValueError(f"alpha = {alpha:g} is too small: the Mellin nodes are normal "
                                 f"doubles only for |alpha| >= {math.sqrt(160.0 * tiny):.4g}")
            v_min = math.log(a / 40.0)
        v = v_min + _MELLIN_STEP * np.arange(
            math.ceil((math.log(60.0) - v_min) / _MELLIN_STEP) + 1)
        t = np.exp(v)
        if half_width is None:
            traces, c, edge = heat_trace_weighted(f, alpha, t) - mu / (2.0 * np.sinh(t)), 0.0, 0.0
        else:
            x, w = _gl_panels(0.0, half_width, math.ceil(half_width))
            values = np.asarray(f(np.concatenate((x, -x))))
            g = 0.5 * (values[:x.size] + values[x.size:]) - mu
            wg = 2.0 * w * g  # K_t(x, x) is even in x
            c = complex(wg.sum()) / math.sqrt(4.0 * math.pi)
            traces = _subtracted_kernel(t, x) @ wg
            edge = float(np.abs(g[-16:]).max())
            logger.debug("window_trace: %s weight mu=%s c=%s X=%.4g x_nodes=%d t_nodes=%d "
                         "head_trace=%.3g edge_g=%.3g", f.kind, _show(mu), _show(c), half_width,
                         2 * x.size, v.size, abs(traces[0]), edge)
        held = f._traces = ((alpha, half_width), (*_read_only(v, traces), c, edge))
    return held[1]


def zeta_trace(f, alpha, s, method=None, n_modes=2000):
    """One value of the spectral zeta function Tr(f T_alpha H^{-s}).

    Every value ('heat_mellin', its ``ZetaEvaluation.method``) is assembled
    one way from the trace record of (f, alpha, window) that
    ``_mellin_trace`` keeps on f, so values at several s share one trace:

        zeta(s) = Gamma(s)^{-1} sum_v 0.2 e^{s v} trace(v)
                  + mu (1 - 2^{-s}) zeta(s) + c Gamma(s - 1/2)/Gamma(s),

    the trapezoid of step 0.2 in v = log t up to t = 60 of the Mellin
    integral of Tr(f T_alpha e^{-tH}) less mu/(2 sinh t) and c t^{-1/2} e^{-t},
    plus their transforms.  Off the diagonal mu = c = 0: the zeta function is
    entire.  On it mu is the period mean c_0 of a periodic weight (c = 0),
    the limits' mean of a limit-type one and 0 for a generic one;
    ``residue_at_1`` is mu/2 (None if generic).  1/Gamma is entire
    (``mpmath.rgamma``): s = 0, -1, -2, ... need no special case.  The
    ``error_estimate`` |T_h - T_2h| / |Gamma(s)|, the change from the sum on
    every other node, bounds the coarser rule; a window adds its head's and
    edge's bounds.  Before any trace, s = 1 raises ValueError, "the zeta
    function has a pole at s = 1, with residue mu/2 = ...", if mu != 0; a
    periodic weight with |mu| <= eps max|samples| (cos 2 pi x: -1.9e-17)
    drops the term instead.  The method argument only names the shift class:
    None, 'eigen_sum_tail' at alpha = 0 or 'heat_mellin' at alpha != 0, as
    ``bench/tracing.py`` passes it; any other name raises ValueError, as do
    n_modes < 1, a non-finite alpha or s, and a Mellin sum that overflows
    (``ONE`` at alpha = 1e-150, Re(s) < 0).

    Off the diagonal, and for a periodic weight on it, the trace decays like
    e^{-a/t} as t -> 0, a = alpha^2/4 or (pi/P)^2, so the rule starts at
    t = a/40: 36-77 nodes for alpha in [0.05, 3], 29 on the diagonal at
    P = 1, one ``heat_trace_weighted`` call.  That start is a normal double
    for |alpha| >= sqrt(160 tiny) = 1.887e-153; a smaller alpha raises
    ValueError naming that bound.  Measured against 30-digit mpmath
    quadratures of the Mehler closed form: ``ONE`` at (alpha, s) =
    (0.05, 1.1), (0.05, 3), (0.3, 1.01), (1, 1.5) and (3, 2) within 4e-15
    relative (estimate 2e-11 to 3e-8); 1 + cos 2 pi x on the diagonal at
    s = 1.01, 1.1, 1.5, 2, 3, 0.5, 0.25, -0.5, -2.5, 0.5 + 3i and 1.2 + 3i
    within 2e-15; ``ONE`` on the diagonal is the odd zeta to the bit.

    A limit-type or generic weight on the diagonal is read on the window
    [-X, X], X = sqrt(2 n_modes + 3) + ``QUAD_PAD``, the only use of n_modes.
    With g = (f(x) + f(-x))/2 - mu, int g K_t(x, x) dx -> c t^{-1/2},
    c = int g / sqrt(4 pi), so c t^{-1/2} e^{-t} is subtracted termwise
    (``_subtracted_kernel``) and the O(t^{1/2}) rest integrated from
    t = e^{-80} (422 nodes).  Below, where the rest is C t^{1/2}, both sums
    run on over its geometric terms, and its departure from that law over
    the first step, times the head, bounds the head's error.  So the zeta
    function is meromorphic on Re(s) > -1/2 with poles at s = 1 (residue
    mu/2) and 1/2 (c/sqrt(pi) = int g / 2 pi).  Re(s) <= -1/2 raises
    ValueError, as does a pole of nonzero residue, naming it (arctan's zeta
    function is 0); a generic weight raises for Re(s) <= 1.  The edge bound
    models the weight beyond the window as mass 2 X |g| at its edge (|g| the
    largest on the last panel; a tail decaying like 1/x^2 has no more):
    |g| X^{2 - 2 Re s} |Gamma(s - 1/2)/Gamma(s)| / sqrt(pi).  Measured for
    (1 + tanh x)/2 + sech x at s = 1.5, 0.75, 0.6, 0.52 and 0.8 + 2i and a
    generic sech x at s = 1.5 and 1.1: within 1e-15 relative of 20-digit
    mpmath quadratures, the estimate 6e-11 to 6e-9; at s = -0.25 and -0.45
    within 3e-14 of 40-digit ones, the estimate 1.8e-12 and 3.4e-13.
    """
    alpha = _finite("alpha", float(alpha))
    s = complex(_finite("s", s))
    if method not in (None, "eigen_sum_tail" if alpha == 0.0 else "heat_mellin"):
        raise ValueError(f"unknown method {method!r} at alpha = {alpha:g}: 'eigen_sum_tail' "
                         "names the on-diagonal only, 'heat_mellin' the off-diagonal only")
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")

    window = alpha == 0.0 and f.kind != "periodic"
    if window and s.real <= (floor := 1.0 if f.kind == "generic" else -0.5):
        raise ValueError(f"a {f.kind} weight's zeta function is continued to Re(s) > "
                         f"{floor:g} only")
    residue = 0.0 if alpha else None if f.kind == "generic" else residue_at_1(f)
    mu = 0.0 if residue is None else 2.0 * residue
    # a periodic weight whose mean is rounding of its samples (cos) has no pole
    if s == 1.0 and mu and (f.kind != "periodic"
                            or abs(mu) > np.finfo(float).eps * f.samples.sup_norm()):
        raise ValueError(f"the zeta function has a pole at s = 1, with residue mu/2 = "
                         f"{_show(residue):.6g}")
    half_width = math.sqrt(2.0 * n_modes + 3.0) + QUAD_PAD if window else None
    v, trace, c, edge = _mellin_trace(f, alpha, mu, half_width)
    if s == 0.5 and c:
        raise ValueError(f"the zeta function has a pole at s = 1/2, with residue "
                         f"c/sqrt(pi) = int g / 2 pi = {_show(c / math.sqrt(math.pi)):.6g}")
    # the end nodes carry below e^{-40} of the sum: trapezoid = plain sum; a
    # window's sums run on below t = e^{-80} over the C t^{1/2} rest's terms.
    # A sum that overflows is named by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.exp(s * v) * trace
        fine, coarse = _MELLIN_STEP * terms.sum(), 2.0 * _MELLIN_STEP * terms[::2].sum()
    head_err = 0.0
    if window and trace[0]:
        q = cmath.exp(-(s + 0.5) * _MELLIN_STEP)
        head = _MELLIN_STEP * terms[0] * q / (1.0 - q)
        fine, coarse = fine + head, coarse + 2.0 * _MELLIN_STEP * terms[0] * q * q / (1.0 - q * q)
        head_err = abs(head) * abs(trace[1] / (trace[0] * math.exp(0.5 * _MELLIN_STEP)) - 1.0)
    if not cmath.isfinite(fine):
        raise ValueError(f"the Mellin sum at alpha = {alpha:g}, s = {_show(s)} is {_show(fine)}, "
                         "not a finite double")
    rg = _rgamma(s)
    value, err = fine * rg, (abs(fine - coarse) + head_err) * abs(rg)
    if mu and s != 1.0:
        value += mu * _odd_zeta(s)
    if c:
        value += c * rg / _rgamma(s - 0.5)
    if edge:
        err += math.inf if s == 0.5 else (edge * half_width ** (2.0 - 2.0 * s.real)
                                          * abs(rg / _rgamma(s - 0.5)) / math.sqrt(math.pi))
    return ZetaEvaluation(s, value, residue, float(err), "heat_mellin")


def residue_at_1(f):
    """Residue of the on-diagonal zeta at s = 1: half the asymptotic mean.

    The mean is the period mean of a periodic weight and the average of the
    two declared limits of a limit-type one.  A generic weight declares no
    mean, so ValueError.
    """
    if f.kind == "generic":
        raise ValueError("residue_at_1 requires periodic or limit metadata")
    mu = period_mean(f) if f.kind == "periodic" else 0.5 * (f.limits[0] + f.limits[1])
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

    The three values are on-diagonal values of ``zeta_trace``, Mellin
    integrals of the one trace record ``_mellin_trace`` keeps on the weight
    (for a limit-type weight one pass over the window's x-rule).  The
    extrapolation is the quadratic through them (``_intercept``).
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
    # a tiny u squares to inf, whose Gaussian factor e^{-inf} = 0 is right
    with np.errstate(under="ignore", over="ignore"):
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

    out = 2.0 * level(8.0) - level(4.0)
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
    elif f.kind == "has_limits":
        mu_m, mu_p = f.limits
    else:
        means = asymptotic_mean(f, 64.0)
        if means.error_estimate > 1e-6:
            raise ValueError(
                "one-sided means did not converge; no asymptotic mean available"
            )
        mu_p, mu_m = means.mu_plus, means.mu_minus

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

    if f.kind == "periodic":
        return RealLineFunction.periodic_fn(func, f.period)
    return RealLineFunction.generic(func)


# ---------------- entire off-diagonal check ----------------


def entire_check(f, alpha):
    """The off-diagonal zeta at s = 1.5, 1.1, 1.01 and at s = 1, where it is entire.

    Off the diagonal the Mellin assembly has no pole term, so s = 1 is read
    directly: four ``zeta_trace`` values of one Mellin record, one
    ``heat_trace_weighted`` call.  The report passes when the value at s = 1
    is finite and its error estimate is at most 1e-3 max(1, |value|).
    """
    alpha = float(alpha)
    if alpha == 0.0:
        raise ValueError("entire_check requires a nonzero translation")
    evals = tuple(zeta_trace(f, alpha, s) for s in (1.5, 1.1, 1.01))
    at_1 = zeta_trace(f, alpha, 1.0)
    bound = max(abs(ev.value) for ev in (*evals, at_1))
    return EntireZetaReport(alpha, evals, at_1, at_1.residue_at_1, float(bound), 1e-3)
