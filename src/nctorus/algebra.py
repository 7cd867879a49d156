"""The smooth rotation algebra as finitely supported twisted Laurent series.

An element is a finite sum  a = sum_n f_n [n]  with 1-periodic coefficient
functions f_n and a real deformation parameter hbar attached.  On the line,
[1] acts as translation by hbar and the circle generator e^{2 pi i x}[0]
acts by multiplication, so coefficients twist under the product:

    (f[n]) (g[m]) = (f * g(. - n hbar)) [n + m].

With U = e^{2 pi i x}[0] and V = 1[1] this gives V U = e^{-2 pi i hbar} U V,
the phase orientation fixed by direct computation with the covariant pair.

The two canonical derivations act by delta1(f[n]) = f'[n] and
delta2(f[n]) = -2 pi i n f[n]; the sign of delta2 fixes the orientation of
the gauge circle action and is chosen so the bump projection built by
``rieffel_projection`` has first Chern number +1.
"""

from functools import lru_cache

import numpy as np

from .periodic import DEFAULT_SAMPLES, PeriodicFunction, smooth_step

_HBAR_TOL = 1e-12
# both defects of a projection, in the coefficient sup-norm, are at most this
PROJECTION_TOL = 1e-8


class AlgebraElement:
    """Finitely supported series sum_n f_n [n] over the rotation algebra."""

    __slots__ = ("_hbar", "_coeffs")

    def __init__(self, hbar, coeffs):
        """coeffs maps integer degree n to the PeriodicFunction coefficient f_n."""
        items = {}
        n_samples = None
        for n, f in coeffs.items():
            if not isinstance(f, PeriodicFunction):
                raise TypeError("coefficients must be PeriodicFunction values")
            if n_samples is None:
                n_samples = f.n_samples
            elif f.n_samples != n_samples:
                raise ValueError("all coefficients must share one sample grid")
            items[int(n)] = f
        object.__setattr__(self, "_hbar", float(hbar))
        object.__setattr__(self, "_coeffs", items)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    # ---------------- constructors ----------------

    @classmethod
    def unit(cls, hbar, n_samples=DEFAULT_SAMPLES):
        return cls(hbar, {0: PeriodicFunction.constant(1.0, n_samples)})

    @classmethod
    def circle_generator(cls, hbar, n_samples=DEFAULT_SAMPLES):
        """U = e^{2 pi i x} [0]."""
        return cls(hbar, {0: PeriodicFunction.exponential(1, n_samples)})

    @classmethod
    def shift_generator(cls, hbar, n_samples=DEFAULT_SAMPLES):
        """V = 1 [1], translation by hbar in the line representation."""
        return cls(hbar, {1: PeriodicFunction.constant(1.0, n_samples)})

    # ---------------- basic data ----------------

    @property
    def hbar(self):
        return self._hbar

    @property
    def support(self):
        return tuple(sorted(self._coeffs))

    @property
    def n_samples(self):
        for f in self._coeffs.values():
            return f.n_samples
        return DEFAULT_SAMPLES

    def coefficient(self, n):
        """The coefficient of [n] (a zero function if n is outside the support)."""
        f = self._coeffs.get(int(n))
        if f is None:
            return PeriodicFunction.constant(0.0, self.n_samples)
        return f

    def items(self):
        return tuple((n, self._coeffs[n]) for n in sorted(self._coeffs))

    # ---------------- linear structure ----------------

    def _check_hbar(self, other):
        if abs(self._hbar - other._hbar) > _HBAR_TOL:
            raise ValueError(
                f"mismatched deformation parameters {self._hbar} and {other._hbar}"
            )

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_hbar(other)
        out = dict(self._coeffs)
        for n, f in other._coeffs.items():
            out[n] = out[n] + f if n in out else f
        return AlgebraElement(self._hbar, out)

    def __sub__(self, other):
        return self.__add__(-other)

    def __neg__(self):
        return AlgebraElement(self._hbar, {n: -f for n, f in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return AlgebraElement(
            self._hbar, {n: f * other for n, f in self._coeffs.items()}
        )

    def __rmul__(self, other):
        if isinstance(other, AlgebraElement):
            return NotImplemented
        return self.__mul__(other)

    def __repr__(self):
        return f"AlgebraElement(hbar={self._hbar}, support={self.support})"


def multiply(a, b):
    """Twisted product: (f[n])(g[m]) = (f * shift(g, n*hbar))[n+m]."""
    a._check_hbar(b)
    hbar = a.hbar
    out = {}
    for n, f in a.items():
        for m, g in b.items():
            term = f * (g.shift(n * hbar) if n else g)
            key = n + m
            out[key] = out[key] + term if key in out else term
    return AlgebraElement(hbar, out)


def adjoint(a):
    """(f[n])* = conj(shift(f, -n*hbar)) [-n]."""
    out = {}
    for n, f in a.items():
        out[-n] = f.shift(-n * a.hbar).conjugate() if n else f.conjugate()
    return AlgebraElement(a.hbar, out)


def trace(a):
    """The canonical trace: the mean of the degree-zero coefficient."""
    return a.coefficient(0).mean()


def delta1(a):
    """Derivation along the circle: delta1(f[n]) = f'[n]."""
    return AlgebraElement(a.hbar, {n: f.derivative() for n, f in a.items()})


def delta2(a):
    """Gauge derivation: delta2(f[n]) = -2 pi i n * f[n].

    The orientation (sign of the circle action on [n]) is fixed so that the
    bump projection of ``rieffel_projection`` has first Chern number +1; with
    this choice the index pairing staircase comes out as the integers
    trace(p) - hbar, matching the operator index.
    """
    return AlgebraElement(
        a.hbar, {n: f * (-2j * np.pi * n) for n, f in a.items() if n != 0}
        or {0: PeriodicFunction.constant(0.0, a.n_samples)}
    )


def sup_norm(a):
    """Largest coefficient sample magnitude over the whole support."""
    return max(f.sup_norm() for _, f in a.items()) if a.items() else 0.0


@lru_cache(maxsize=2)
def projection_defect(e):
    """Pair (||e^2 - e||, ||e* - e||) in the coefficient sup-norm, memoised by identity."""
    return sup_norm(multiply(e, e) - e), sup_norm(adjoint(e) - e)


def _require_projection(e):
    """Raise ValueError unless both defects of e are within PROJECTION_TOL (NaN is not)."""
    d_idem, d_adj = projection_defect(e)
    if not (d_idem <= PROJECTION_TOL and d_adj <= PROJECTION_TOL):
        raise ValueError(
            f"not a projection: ||e^2-e||={d_idem:.2e}, ||e*-e||={d_adj:.2e}"
        )


def _trace_product(a, b):
    """trace(multiply(a, b)) from the degree-0 terms alone.

    The terms f_n shift(g_{-n}, n hbar) are summed in ``multiply``'s order,
    so the value has the same bits as the full product's trace.
    """
    a._check_hbar(b)
    total = None
    for n, f in a.items():
        g = b._coeffs.get(-n)
        if g is not None:
            term = f * (g.shift(n * a.hbar) if n else g)
            total = term if total is None else total + term
    return 0j if total is None else total.mean()


@lru_cache(maxsize=2)
def _curvature_products(a1, a2):
    """The products delta1(a1) delta2(a2) and delta2(a1) delta1(a2), memoised by identity."""
    return multiply(delta1(a1), delta2(a2)), multiply(delta2(a1), delta1(a2))


def chern_number(e):
    """First Chern number (1 / 2 pi i) tr(e [delta1(e), delta2(e)]), from ``cyclic_cocycle``.

    Requires e to be a projection within ``PROJECTION_TOL`` in both the
    idempotent and self-adjointness defects; the value is then an integer up
    to numerical error, with imaginary part at the same scale.
    """
    _require_projection(e)
    return cyclic_cocycle(e, e, e) / (2j * np.pi)


def cyclic_cocycle(a0, a1, a2):
    """The fundamental cyclic 2-cocycle tr(a0 d1(a1) d2(a2) - a0 d2(a1) d1(a2)).

    ``chern_number`` is its value on (e, e, e) over 2 pi i.
    """
    a0._check_hbar(a1)
    a0._check_hbar(a2)
    d12, d21 = _curvature_products(a1, a2)
    return _trace_product(a0, d12) - _trace_product(a0, d21)


def ladder_commutators(a):
    """Commutators of a with the ladder generators x + d/dx and x - d/dx.

    Returns the pair ([x + d/dx, a], [x - d/dx, a]) as algebra elements:
    degree n contributes (n hbar f + f')[n] and (n hbar f - f')[n].  The
    rule [x, f[n]] = n hbar f[n] is the one obtained by direct computation
    with the translation operators.
    """
    hbar = a.hbar
    plus, minus = {}, {}
    for n, f in a.items():
        df = f.derivative()
        nh = n * hbar
        plus[n] = f * nh + df
        minus[n] = f * nh - df
    return AlgebraElement(hbar, plus), AlgebraElement(hbar, minus)


def rieffel_projection(hbar, n_samples=DEFAULT_SAMPLES):
    """The canonical bump projection with trace frac(hbar).

    Uses frac = hbar - floor(hbar) in (0, 1) and the C-infinity ramp s of
    ``smooth_step`` at width eps = min(frac, 1 - frac) / 3:
    f(x) = s(x / eps) (1 - s((x - frac) / eps)) on [0, 1) rises 0 to 1 on
    [0, eps], is 1 on [eps, frac], falls on [frac, frac + eps] and is 0
    after; g = sqrt(f - f^2) on the falling ramp x >= frac, 0 before.  The
    result p = f[0] + g[1] + (g[1])* (``adjoint``) is self-adjoint up to the
    Nyquist mode of the sampled shift, which does not commute with
    conjugation.  Both defects grow as the ramps narrow.  On the default
    grid ||p* - p|| is about 5e-12 at hbar = 0.3 and 1e-8 at 0.05, and
    ||p^2 - p|| is about 2e-11 at 0.3, 3e-10 at 0.15, 1e-8 at 0.1 and 6e-6
    at 0.05: for frac(hbar) within about 0.1 of an integer the default grid
    misses ``PROJECTION_TOL`` (1e-8), which ``index_pairing`` requires.

    Raises ValueError for a non-finite hbar, and for hbar within 1e-3 of an
    integer, where the width degenerates and no such representative exists.
    """
    hbar = float(hbar)
    if not np.isfinite(hbar):
        raise ValueError(f"hbar must be finite, got {hbar}")
    frac = hbar - np.floor(hbar)
    if min(frac, 1.0 - frac) <= 1e-3:
        raise ValueError(
            f"no Rieffel representative: hbar={hbar} is within 1e-3 of an integer"
        )
    eps = min(frac, 1.0 - frac) / 3.0
    x = np.arange(n_samples) / n_samples
    f = smooth_step(x / eps) * (1.0 - smooth_step((x - frac) / eps))
    g = AlgebraElement(hbar, {1: PeriodicFunction(
        np.where(x >= frac, np.sqrt(np.clip(f - f * f, 0.0, None)), 0.0))})
    return AlgebraElement(hbar, {0: PeriodicFunction(f)}) + g + adjoint(g)


# ---------------- serialization ----------------


def to_json_dict(a):
    """JSON-ready dict {hbar, entries: [{n, samples_re, samples_im}]}."""
    entries = []
    for n, f in a.items():
        entries.append(
            {
                "n": int(n),
                "samples_re": f.samples.real.tolist(),
                "samples_im": f.samples.imag.tolist(),
            }
        )
    return {"hbar": a.hbar, "entries": entries}


def from_json_dict(data):
    coeffs = {}
    for entry in data["entries"]:
        samples = np.asarray(entry["samples_re"], dtype=float) + 1j * np.asarray(
            entry["samples_im"], dtype=float
        )
        coeffs[int(entry["n"])] = PeriodicFunction(samples)
    return AlgebraElement(float(data["hbar"]), coeffs)
