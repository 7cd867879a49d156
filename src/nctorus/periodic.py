"""Spectral calculus for smooth 1-periodic functions.

A function is stored as M uniform complex samples at the points j/M and is
identified with its trigonometric interpolant.  Derivatives and real shifts
act diagonally on the Fourier coefficients (so an irrational shift is exact
on the interpolant), products act pointwise on samples, and the mean is the
zeroth coefficient.  The Nyquist coefficient of the even-length transform is
carried at mode -M/2.

Instances are immutable after construction and all operations are pure, so
values can be shared freely across threads.
"""

import numpy as np

DEFAULT_SAMPLES = 2048

# relative floor below which Fourier modes are dropped during point evaluation
_EVAL_CUTOFF = 1e-17
# points per block of point evaluation: 1024 x 2048 complex modes is 32 MiB
_EVAL_BLOCK = 1024


def smooth_step(u):
    """C-infinity ramp: 0 for u <= 0, 1 for u >= 1, flat to all orders at both ends.

    Built from sigma(u) = exp(-1/u) as sigma(u) / (sigma(u) + sigma(1-u)).
    """
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(u > 0, np.exp(-1.0 / np.where(u > 0, u, 1.0)), 0.0)
        b = np.where(u < 1, np.exp(-1.0 / np.where(u < 1, 1.0 - u, 1.0)), 0.0)
    out = a / (a + b)
    return out[0] if scalar else out


def trig_sum(k, c, x):
    """The trigonometric sum  sum_j c_j e^{2 pi i k_j x}  at real points x.

    The result has the shape of ``x``.  Points are taken in blocks of
    ``_EVAL_BLOCK``, so the points-by-modes exponential matrix never holds
    more than one block.
    """
    x = np.asarray(x, dtype=float)
    xs = np.atleast_1d(x).ravel()
    vals = np.empty(xs.shape, dtype=complex)
    for i in range(0, xs.size, _EVAL_BLOCK):
        block = xs[i:i + _EVAL_BLOCK]
        vals[i:i + _EVAL_BLOCK] = np.exp(2j * np.pi * np.outer(block, k)) @ c
    return vals[0] if x.ndim == 0 else vals.reshape(x.shape)


class PeriodicFunction:
    """A smooth function on R/Z held as uniform samples with trig interpolation."""

    __slots__ = ("_samples", "_coeffs")

    def __init__(self, samples):
        samples = np.asarray(samples, dtype=complex)
        if samples.ndim != 1:
            raise ValueError("samples must be a one-dimensional sequence")
        m = samples.shape[0]
        if m < 4 or m % 2:
            raise ValueError("sample count must be an even integer >= 4")
        samples = samples.copy()
        samples.flags.writeable = False
        object.__setattr__(self, "_samples", samples)
        coeffs = np.fft.fft(samples) / m
        coeffs.flags.writeable = False
        object.__setattr__(self, "_coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("PeriodicFunction is immutable")

    # ---------------- constructors ----------------

    @classmethod
    def from_callable(cls, func, n_samples=DEFAULT_SAMPLES):
        """Sample ``func`` on the uniform grid j/M."""
        x = np.arange(n_samples) / n_samples
        values = np.asarray(func(x), dtype=complex)
        if values.shape != x.shape:
            values = np.broadcast_to(values, x.shape).astype(complex)
        return cls(values)

    @classmethod
    def constant(cls, value, n_samples=DEFAULT_SAMPLES):
        return cls(np.full(n_samples, complex(value)))

    @classmethod
    def exponential(cls, mode=1, n_samples=DEFAULT_SAMPLES):
        """The character e^{2 pi i * mode * x}."""
        x = np.arange(n_samples) / n_samples
        return cls(np.exp(2j * np.pi * mode * x))

    # ---------------- basic data ----------------

    @property
    def samples(self):
        return self._samples

    @property
    def n_samples(self):
        return self._samples.shape[0]

    @property
    def grid(self):
        return np.arange(self.n_samples) / self.n_samples

    @property
    def coefficients(self):
        """Fourier coefficients c_k in FFT order (mode k at index k mod M)."""
        return self._coeffs

    @property
    def modes(self):
        """Signed integer mode of each coefficient slot; Nyquist slot is -M/2."""
        m = self.n_samples
        return np.fft.fftfreq(m, d=1.0 / m).astype(np.int64)

    # ---------------- evaluation ----------------

    def __call__(self, x):
        """Evaluate the trig interpolant at arbitrary real points (1-periodic).

        Every mode above ``_EVAL_CUTOFF`` relative to the largest is kept;
        the result has the shape of ``x`` (see ``trig_sum``).
        """
        c = self._coeffs
        keep = np.abs(c) > _EVAL_CUTOFF * max(1.0, float(np.abs(c).max()))
        return trig_sum(self.modes[keep], c[keep], x)

    def band(self, kmax):
        """Modes |k| <= kmax with their coefficients, and the dropped mass.

        Returns (k, c_k, tail) with tail = sum over |k| > kmax of |c_k|; a
        kmax of M/2 or more keeps every slot, the Nyquist one included.
        """
        k = self.modes
        keep = np.abs(k) <= kmax
        return k[keep], self._coeffs[keep], float(np.abs(self._coeffs[~keep]).sum())

    # ---------------- diagonal operations ----------------

    def _from_coeffs(self, coeffs):
        return PeriodicFunction(np.fft.ifft(coeffs * self.n_samples))

    def derivative(self):
        """d/dx on the interpolant: mode k times 2 pi i k; Nyquist mode dropped."""
        factor = 2j * np.pi * self.modes.astype(float)
        factor[self.n_samples // 2] = 0.0
        return self._from_coeffs(self._coeffs * factor)

    def shift(self, alpha):
        """The translate x -> f(x - alpha): mode k times e^{-2 pi i k alpha}."""
        phase = np.exp(-2j * np.pi * self.modes * float(alpha))
        return self._from_coeffs(self._coeffs * phase)

    def mean(self):
        """Mean over one period (the zeroth Fourier coefficient)."""
        return complex(self._coeffs[0])

    # ---------------- pointwise operations ----------------

    def conjugate(self):
        return PeriodicFunction(np.conj(self._samples))

    def sqrt_nonneg(self):
        """Pointwise square root of a nonnegative real function.

        Values in [-1e-10, 0) are clamped to 0 (floating-point noise at bump
        edges); values below -1e-10 or a non-real input raise ValueError.
        """
        floor = -1e-10
        s = self._samples
        if np.abs(s.imag).max() > 1e-12:
            raise ValueError("sqrt_nonneg requires real samples")
        re = s.real
        if re.min() < floor:
            raise ValueError(
                f"sqrt_nonneg: samples reach {re.min():.3e}, below the {floor:.0e} floor"
            )
        return PeriodicFunction(np.sqrt(np.clip(re, 0.0, None)))

    def sup_norm(self):
        return float(np.abs(self._samples).max())

    # ---------------- arithmetic ----------------

    def _check_compatible(self, other):
        if self.n_samples != other.n_samples:
            raise ValueError("sample grids differ")

    def __add__(self, other):
        if isinstance(other, PeriodicFunction):
            self._check_compatible(other)
            return PeriodicFunction(self._samples + other._samples)
        return PeriodicFunction(self._samples + complex(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(-other)

    def __neg__(self):
        return PeriodicFunction(-self._samples)

    def __mul__(self, other):
        if isinstance(other, PeriodicFunction):
            self._check_compatible(other)
            return PeriodicFunction(self._samples * other._samples)
        return PeriodicFunction(self._samples * complex(other))

    __rmul__ = __mul__

    def __repr__(self):
        return f"PeriodicFunction(M={self.n_samples}, sup={self.sup_norm():.3g})"
