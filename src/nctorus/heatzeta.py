"""Oscillator heat kernel, heat traces, spectral zeta functions and means.

The closed-form Gaussian heat kernel of the oscillator drives everything:
heat traces and their alpha-shifted weighted variants come from its
diagonal, spectral zeta values are computed either from eigenbasis
diagonal sums with an asymptotic-mean tail model (on-diagonal) or through
the Mellin integral of the weighted heat trace (off-diagonal, where the
zeta function is entire), and residues at the pole are extracted by
polynomial extrapolation of (s-1) times the zeta value.

Asymptotic means of bounded functions, the Dixmier-trace double-integral
limit and the mean-subtracted antiderivative map complete the calculus.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from mpmath import zeta as _mp_zeta
from scipy.integrate import quad
from scipy.special import gamma as _gamma

from .oscillator import diagonal_elements, hermite_rows

_MELLIN_TMAX = 60.0


class RealLineFunction:
    """A bounded callable on the line with declared asymptotic metadata.

    kind is one of 'periodic' (with a period), 'has_limits' (with declared
    values at -inf and +inf) or 'generic'.
    """

    __slots__ = ("func", "kind", "period", "limits")

    def __init__(self, func, kind="generic", period=None, limits=None):
        if kind not in ("periodic", "has_limits", "generic"):
            raise ValueError(f"unknown kind {kind!r}")
        if kind == "periodic" and (period is None or period <= 0):
            raise ValueError("periodic metadata requires a positive period")
        if kind == "has_limits" and limits is None:
            raise ValueError("has_limits metadata requires the two limits")
        self.func = func
        self.kind = kind
        self.period = float(period) if period is not None else None
        self.limits = tuple(complex(v) for v in limits) if limits is not None else None

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

    def periodicity_defect(self, n_points=16):
        """Diagnostic max |f(x + period) - f(x)| over sample points."""
        if self.kind != "periodic":
            raise ValueError("periodicity_defect requires periodic metadata")
        xs = np.linspace(0.0, 2.0 * self.period, n_points)
        return float(np.abs(np.asarray(self(xs + self.period)) - np.asarray(self(xs))).max())


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


def _quad_complex(func, a, b, **kw):
    """quad of a complex integrand as two real quads; (value, error bound)."""
    re, re_err = quad(lambda t: np.real(func(t)), a, b, **kw)
    im, im_err = quad(lambda t: np.imag(func(t)), a, b, **kw)
    return re + 1j * im, re_err + im_err


def _integral_from_zero(f, x):
    """int_0^x f, with a subinterval limit that grows with |x|."""
    value, _ = _quad_complex(f, 0.0, x, limit=200 + int(8 * abs(x)))
    return value


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
    equal to ``mehler_kernel`` to machine precision.
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


def mehler_eigen_sum(t, x, y, n_modes=200):
    """Eigenfunction sum  sum_n e^{-(2n+1)t} psi_n(x) psi_n(y)  (elementwise)."""
    t = float(t)
    if t <= 0:
        raise ValueError("time must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    x, y = np.broadcast_arrays(x, y)
    rx = hermite_rows(n_modes, x.ravel())
    ry = rx if np.array_equal(x, y) else hermite_rows(n_modes, y.ravel())
    w = np.exp(-(2.0 * np.arange(n_modes) + 1.0) * t)
    out = (w[:, None] * rx * ry).sum(axis=0).reshape(x.shape)
    return out.item() if out.size == 1 else out


def heat_trace(t):
    """Trace of the heat semigroup at time t by quadrature of the diagonal."""
    t = float(t)
    if t <= 0:
        raise ValueError("time must be positive")
    val, _ = quad(lambda x: mehler_kernel(t, x, x), -np.inf, np.inf,
                  epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def heat_trace_weighted(f, alpha, t):
    """quad of f(x) k_t(x - alpha, x): the weighted, alpha-shifted heat trace."""
    t = float(t)
    if t <= 0:
        raise ValueError("time must be positive")
    alpha = float(alpha)
    # the diagonal is a Gaussian of width 1/sqrt(tanh t) centred at alpha/2
    width = abs(alpha) / 2.0 + 12.0 / np.sqrt(np.tanh(t))
    value, _ = _quad_complex(lambda x: f(x) * mehler_kernel(t, x - alpha, x),
                             -width, width, epsabs=1e-13, epsrel=1e-12, limit=400)
    return value


# ---------------- zeta machinery ----------------


@lru_cache(maxsize=256)
def _odd_zeta(s):
    """sum_{n>=0} (2n+1)^{-s} = (1 - 2^{-s}) zeta(s), meromorphically continued."""
    return complex(_mp_zeta(s)) * (1.0 - 2.0 ** (-complex(s)))


def _partial_odd_sum(s, n):
    k = 2.0 * np.arange(n) + 1.0
    return np.power(k, -complex(s)).sum()


def period_mean(f):
    """Ordinary mean of a periodic callable over one period."""
    if f.kind != "periodic":
        raise ValueError("period_mean requires periodic metadata")
    value, _ = _quad_complex(f, 0.0, f.period, limit=200)
    return value / f.period


def spectral_diagonals(f, alpha, n_modes):
    """Diagonal elements quad(f(x) psi_n(x - alpha) psi_n(x)) for n < n_modes."""
    return diagonal_elements([(f, float(alpha))], n_modes)[0]


def _tail_mean(f, alpha):
    """Limit of the diagonal elements: the asymptotic mean on, zero off diagonal."""
    if alpha != 0.0:
        return 0.0
    if f.kind == "periodic":
        return period_mean(f)
    if f.kind == "has_limits":
        return 0.5 * (f.limits[0] + f.limits[1])
    return None


def zeta_trace(f, alpha, s, method=None, n_modes=2000, diagonals=None):
    """One value of the spectral zeta function Tr(f T_alpha H^{-s}).

    method 'eigen_sum_tail' sums diagonal elements against (2n+1)^{-s} and
    models the tail by the asymptotic mean times the continued odd zeta; it
    is the on-diagonal default.  method 'heat_mellin' integrates the
    weighted heat trace against t^{s-1}/Gamma(s); it is the off-diagonal
    default, where the zeta function is entire and the small-t integrand is
    Gaussian-suppressed.
    """
    alpha = float(alpha)
    s = complex(s)
    if method is None:
        method = "eigen_sum_tail" if alpha == 0.0 else "heat_mellin"

    if method == "eigen_sum_tail":
        mu = _tail_mean(f, alpha)
        if alpha == 0.0 and mu is None and s.real <= 1.0:
            raise ValueError(
                "generic weight with Re(s) <= 1 is outside the continued region"
            )
        d = spectral_diagonals(f, alpha, n_modes) if diagonals is None else diagonals
        n = np.arange(len(d))
        powers = np.power(2.0 * n + 1.0, -s)
        value = complex((d * powers).sum())
        quarter = len(d) // 4
        mu_val = 0.0 if mu is None else complex(mu)
        drift = float(np.abs(d[-quarter:] - mu_val).mean())
        if alpha == 0.0 and mu is not None:
            tail = _odd_zeta(s) - _partial_odd_sum(s, len(d))
            value += complex(mu) * tail
            err = abs(d[-1] * powers[-1]) + drift * abs(tail)
        elif alpha == 0.0:
            # no tail model available: the unmodelled tail scales with the
            # continued odd zeta remainder at the last diagonal's size
            err = abs(d[-1]) * abs(_odd_zeta(s.real) - _partial_odd_sum(s.real, len(d)))
        else:
            # oscillatory partial sums; the envelope of the neglected tail
            # scales like |d_N| N^{1/4 - Re s} by stationary phase
            err = abs(d[-1]) * len(d) ** max(0.0, 1.25 - s.real)
        residue = None
        if alpha != 0.0:
            residue = 0.0
        elif f.kind == "periodic":
            residue = period_mean(f) / 2.0
        return ZetaEvaluation(s, value, residue, float(err), "eigen_sum_tail")

    if method == "heat_mellin":
        if alpha == 0.0 and s.real <= 1.0:
            raise ValueError("the on-diagonal zeta has its pole at s = 1")

        def integrand(t):
            return t ** (s - 1.0) * heat_trace_weighted(f, alpha, t)

        head, err1 = _quad_complex(integrand, 0.0, 1.0, epsabs=1e-12, limit=200)
        tail, err2 = _quad_complex(integrand, 1.0, _MELLIN_TMAX, epsabs=1e-12, limit=200)
        g = complex(_gamma(s))
        value = (head + tail) / g
        residue = 0.0 if alpha != 0.0 else None
        return ZetaEvaluation(s, value, residue, float((err1 + err2) / abs(g)), "heat_mellin")

    raise ValueError(f"unknown method {method!r}")


def residue_at_1(f):
    """Residue of the on-diagonal zeta at s = 1: half the period mean."""
    if f.kind != "periodic":
        raise ValueError("residue_at_1 requires periodic metadata")
    return period_mean(f) / 2.0


def residue_by_extrapolation(f, n_modes=2000, diagonals=None, steps=(0.1, 0.01, 0.001)):
    """Extrapolate (s-1) Tr(f H^{-s}) to s -> 1+ through s = 1 + steps."""
    if diagonals is None:
        diagonals = spectral_diagonals(f, 0.0, n_modes)
    hs = np.asarray(steps, dtype=float)
    vals = []
    for h in hs:
        ev = zeta_trace(f, 0.0, 1.0 + h, method="eigen_sum_tail", diagonals=diagonals)
        vals.append(h * ev.value)
    coeffs = np.polyfit(hs, np.real(vals), len(hs) - 1)
    coeffs_im = np.polyfit(hs, np.imag(vals), len(hs) - 1)
    return complex(coeffs[-1] + 1j * coeffs_im[-1])


# ---------------- asymptotic means ----------------


def asymptotic_mean(f, x_max=32.0):
    """One-sided Cesaro means mu_plus, mu_minus and their average.

    Periodic metadata short-circuits to the exact period mean.  Otherwise
    the running means at x_max/4, x_max/2 and x_max are fitted to the model
    mu + (a + b log x)/x on each side, which captures both O(1/x) tails and
    the log x/x tails of limit-type functions.
    """
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

_GL_NODES = 4096


@lru_cache(maxsize=1)
def _gl_rule():
    nodes, weights = np.polynomial.legendre.leggauss(_GL_NODES)
    half = 8.5
    return half * nodes, half * weights


def _gaussian_average(f, u):
    """(1/sqrt(pi)) int f(x/u) e^{-x^2} dx by a fixed Gauss-Legendre rule."""
    x, w = _gl_rule()
    vals = f(x / u)
    return (w * vals * np.exp(-x * x)).sum() / np.sqrt(np.pi)


def dixmier_limit(f, alpha_max=8.0):
    """Limit of (1/2 sqrt(pi)) int_0^1 int f(x/t^a) e^{-x^2} dx dt as a grows.

    Evaluated at a = alpha_max/2 and alpha_max with the substitution
    u = t^a concentrating the measure away from t = 0, then Richardson
    extrapolated in 1/a.  Below a metadata-dependent floor in u the inner
    average has converged to its limit and is frozen there: the rescaled
    argument x/u oscillates too fast for honest quadrature but the averaged
    value no longer moves (this is the same mechanism that produces the
    limit).  For a function with the asymptotic mean property the result is
    mu(f)/2.
    """
    u_floor = 0.05 if f.kind == "periodic" else 1e-5
    g_floor = _gaussian_average(f, u_floor)

    def level(a):
        inner, _ = _quad_complex(
            lambda u: _gaussian_average(f, u) * u ** (1.0 / a - 1.0),
            u_floor, 1.0, limit=400,
        )
        closure = g_floor * u_floor ** (1.0 / a)
        return 0.5 * (inner / a + closure)

    i_half = level(alpha_max / 2.0)
    i_full = level(alpha_max)
    out = 2.0 * i_full - i_half
    return out if abs(out.imag) > 1e-15 else complex(out.real)


# ---------------- the antiderivative map ----------------


def delta_map(f, x_max=64.0):
    """Mean-subtracted antiderivative: int_0^x f minus mu_plus x or mu_minus x.

    Periodic input gives periodic output of the same period; declared limits
    are used directly for limit-type input.  Generic input must have
    numerically converged one-sided means (error below 1e-6).
    """
    if f.kind == "periodic":
        mu_p = mu_m = period_mean(f)
        out_kind = ("periodic", f.period)
    elif f.kind == "has_limits":
        mu_m, mu_p = f.limits
        out_kind = ("generic", None)
    else:
        means = asymptotic_mean(f, x_max)
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


def entire_check(f, alpha, s_list=(1.5, 1.1, 1.01), tolerance=1e-3):
    """Probe the off-diagonal zeta near s = 1 for the absence of a pole.

    Evaluates the zeta values at the given s (always including 1.5, 1.1 and
    1.01), reports the proxies |(s-1) value|, extrapolates them to s = 1 and
    checks the extrapolation vanishes within the tolerance while the values
    themselves stay bounded.
    """
    alpha = float(alpha)
    if alpha == 0.0:
        raise ValueError("entire_check requires a nonzero translation")
    points = sorted(set(float(s) for s in s_list) | {1.5, 1.1, 1.01}, reverse=True)
    evals = tuple(zeta_trace(f, alpha, s) for s in points)
    proxies = tuple(abs((ev.s - 1.0) * ev.value) for ev in evals)
    hs = np.array([ev.s.real - 1.0 for ev in evals if ev.s.real > 1.0][-3:])
    vs = np.array(
        [((ev.s - 1.0) * ev.value).real for ev in evals if ev.s.real > 1.0][-3:]
    )
    extrap = float(np.polyfit(hs, vs, len(hs) - 1)[-1]) if len(hs) >= 2 else float(vs[-1])
    bound = max(abs(ev.value) for ev in evals)
    return EntireZetaReport(alpha, evals, proxies, extrap, float(bound), tolerance)
