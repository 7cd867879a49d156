"""Spectral calculus for smooth 1-periodic functions.

A function is stored as M uniform complex samples at the points j/M and is
identified with its trigonometric interpolant.  Derivatives and real shifts
act diagonally on the Fourier coefficients (so an irrational shift is exact
on the interpolant), products act pointwise on samples, and the mean is the
zeroth coefficient.  The Nyquist coefficient of the even-length transform is
carried at mode -M/2.

Point evaluation on the function's own grid, or on any coarser grid nested
in it (x * M integral at every point), is a gather of the samples, where
the interpolant equals them exactly (Trefethen and Weideman, SIAM Rev. 56,
2014).  Point evaluation at other real points, of an interpolant or of any
integer-mode trigonometric sum, is ``trig_sum``: an exact reduction of each
point mod 1, then a two-level (baby-step / giant-step) factorisation of the
phases, about 2 sqrt(S) exponentials per point and one complex GEMM for a
span of S modes (cf. Dutt and Rokhlin, SIAM J. Sci. Comput. 14, 1993).

The samples are fixed at construction and all operations are pure, so
values can be shared freely across threads.  The Fourier coefficients are
computed once, by one FFT on their first read (through ``coefficients``,
which ``mean``, ``band``, ``shift``, ``derivative`` and point evaluation
off the grid use), and kept.  Pointwise arithmetic, ``conjugate``,
``sup_norm`` and evaluation on the grid never need them, so an intermediate
product that is only multiplied on costs no transform.  Two threads that
race on the first read compute the same array, and either one is kept.
"""

import math

import numpy as np

DEFAULT_SAMPLES = 2048

# points per block of point evaluation: at 2048 modes the two exponential
# matrices of a block and their product (1024 x 136 complex) take about 2 MiB
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

    The modes k_j are integers; repeated modes add up.  The result has the
    shape of ``x``.

    Each point is first reduced to x - round(x) in [-1/2, 1/2]; the modes
    are integers, so the reduction is exact and the phases stay small however
    far out x lies.  A NaN or infinite point reduces to a quiet NaN, and its
    value is NaN.  The sum is then factorised in two levels (baby-step /
    giant-step): the coefficients are scattered into a dense A x B table over
    the mode span [k0, kmax] of S modes, B = ceil(sqrt(S)), so that mode
    k0 + aB + b sits at (a, b) and

        sum = sum_a e^{2 pi i (k0 + aB) x} sum_b table[a, b] e^{2 pi i b x}.

    A point costs A + B ~ 2 sqrt(S) exponentials and one row of a complex
    GEMM, instead of S exponentials; modes inside the span with no
    coefficient cost nothing extra.  Points are taken in blocks of
    ``_EVAL_BLOCK``, so the two exponential matrices never hold more than
    ``_EVAL_BLOCK`` x (A + B) entries.
    """
    x = np.asarray(x, dtype=float)
    xs = np.atleast_1d(x).ravel()
    with np.errstate(invalid="ignore"):  # inf - round(inf)
        xs = xs - np.round(xs)
    k = np.asarray(k, dtype=np.int64)
    vals = np.zeros(xs.shape, dtype=complex)
    if k.size:
        k0 = int(k.min())
        span = int(k.max()) - k0 + 1
        b = math.isqrt(span - 1) + 1
        a = -(-span // b)
        table = np.zeros(a * b, dtype=complex)
        np.add.at(table, k - k0, c)
        table = table.reshape(a, b).T
        fine = 2j * np.pi * np.arange(b)
        coarse = 2j * np.pi * (k0 + b * np.arange(a))
        for i in range(0, xs.size, _EVAL_BLOCK):
            block = xs[i:i + _EVAL_BLOCK, None]
            inner = np.exp(block * fine) @ table
            vals[i:i + _EVAL_BLOCK] = (np.exp(block * coarse) * inner).sum(axis=1)
    return vals[0] if x.ndim == 0 else vals.reshape(x.shape)


def sample_values(func, x):
    """The values of ``func`` at the points ``x``, as a complex array of x's shape.

    A result of another shape, such as the scalar of a constant callable,
    is broadcast to the points.
    """
    values = np.asarray(func(x), dtype=complex)
    if values.shape != x.shape:
        values = np.broadcast_to(values, x.shape).astype(complex)
    return values


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
        object.__setattr__(self, "_coeffs", None)

    def __setattr__(self, name, value):
        raise AttributeError("PeriodicFunction is immutable")

    # ---------------- constructors ----------------

    @classmethod
    def from_callable(cls, func, n_samples=DEFAULT_SAMPLES):
        """Sample ``func`` on the uniform grid j/M."""
        return cls(sample_values(func, np.arange(n_samples) / n_samples))

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
    def coefficients(self):
        """Fourier coefficients c_k in FFT order (mode k at index k mod M), read-only.

        The FFT of the samples divided by M, computed on first read and kept.
        """
        coeffs = self._coeffs
        if coeffs is None:
            coeffs = np.fft.fft(self._samples) / self.n_samples
            coeffs.flags.writeable = False
            object.__setattr__(self, "_coeffs", coeffs)
        return coeffs

    @property
    def modes(self):
        """Signed integer mode of each coefficient slot; Nyquist slot is -M/2."""
        m = self.n_samples
        return np.fft.fftfreq(m, d=1.0 / m).astype(np.int64)

    # ---------------- evaluation ----------------

    def __call__(self, x):
        """Evaluate the trig interpolant at arbitrary real points (1-periodic).

        When x * M is finite and integral at every point, every point is a
        node j/M (or a node of a coarser grid nested in this one), where the
        interpolant is the stored sample: the result is the gather
        ``samples[(x * M) mod M]``, exact, and reads no coefficients.  A
        point within rounding of a node, whose product with M rounds to an
        integer, gets that node's sample, which differs from the
        interpolant by at most |f'| ulp(x).

        Any other call sums every coefficient slot, the Nyquist one at -M/2
        included, by the two-level factorisation of ``trig_sum``: about
        2 sqrt(M) exponentials per point after the exact reduction of x to
        [-1/2, 1/2], in blocks of ``_EVAL_BLOCK`` points.  The result has
        the shape of ``x`` either way.
        """
        m = self.n_samples
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            nodes = x * m
        if np.isfinite(nodes).all() and (nodes == np.floor(nodes)).all():
            return self._samples[np.mod(nodes, m).astype(np.int64)]
        return trig_sum(self.modes, self.coefficients, x)

    def band(self, kmax):
        """Modes |k| <= kmax with their coefficients, and the dropped mass.

        Returns (k, c_k, tail) with tail = sum over |k| > kmax of |c_k|; a
        kmax of M/2 or more keeps every slot, the Nyquist one included.
        """
        k, c = self.modes, self.coefficients
        keep = np.abs(k) <= kmax
        return k[keep], c[keep], float(np.abs(c[~keep]).sum())

    # ---------------- diagonal operations ----------------

    def _from_coeffs(self, coeffs):
        return PeriodicFunction(np.fft.ifft(coeffs * self.n_samples))

    def derivative(self):
        """d/dx on the interpolant: mode k times 2 pi i k; Nyquist mode dropped."""
        factor = 2j * np.pi * self.modes.astype(float)
        factor[self.n_samples // 2] = 0.0
        return self._from_coeffs(self.coefficients * factor)

    def shift(self, alpha):
        """The translate x -> f(x - alpha): mode k times e^{-2 pi i k alpha}.

        alpha is first reduced to alpha - round(alpha) in [-1/2, 1/2]
        (``math.remainder``, NaN staying NaN); the modes are integers, so the
        reduction is exact and the phases stay small however large alpha is:
        unreduced, the shifts n hbar of the twisted product put the closed
        form of the bump's pairing 1.65e-10 off -floor(hbar) at hbar 1000.3,
        where reduced it reads 0.
        """
        phase = np.exp(-2j * np.pi * self.modes * math.remainder(float(alpha), 1.0))
        return self._from_coeffs(self.coefficients * phase)

    def mean(self):
        """Mean over one period (the zeroth Fourier coefficient)."""
        return complex(self.coefficients[0])

    # ---------------- pointwise operations ----------------

    def conjugate(self):
        return PeriodicFunction(np.conj(self._samples))

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
