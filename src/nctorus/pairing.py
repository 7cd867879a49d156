"""Integer index pairings of projections with the line Dirac operator.

Three independent routes are reconciled per deformation parameter:

* the closed form  trace(e) - hbar * chern_number(e);
* the local formula  character_degree0(e) - character_degree2(e - 1/2, e, e),
  whose degree-0 part is a graded heat-trace limit computed numerically and
  whose degree-2 part is evaluated symbolically through the algebra trace;
* the operator index, half the signature of a spectral localizer.

The operator route follows the even-pairing spectral localizer of Loring and
Schulz-Baldes (arXiv:1802.04517): the index of e against the Dirac block D
is read off as half the signature of one finite Hermitian matrix built from
D, its grading and the symmetry 1 - 2e on the first N Hermite modes, with
the tuning kappa = 1/sqrt(N) (see ``fedosov_index``).  Since e is
self-adjoint, the section is built from the nonnegative degrees of e alone,
its negative degrees being their adjoints.  Its smallest |eigenvalue|, the
gap, is the certificate: an integer is returned only when the gap is at
least ``GAP_FLOOR``, otherwise ValueError is raised.  In the line
representation a coefficient acts by multiplication and [1] by translation,
so an element with real coefficient functions, such as the nonnegative
degrees of the bump projection, maps real functions to real functions: its
section and localizer are real symmetric, and their spectrum is computed as
such.  A complex coefficient gives a complex Hermitian localizer.

Measured margins (numpy 2.4 with OpenBLAS): over the bump projections with
hbar in {-0.6, -0.4, -0.25, 0.3, 0.45, 0.55, 0.7, 1.2, 1.3, 1.45, 1.65, 2.25,
2.4, 2.6} at N = 300/400/500 and {-0.6, -0.4, -0.25, 0.3, 0.55, 1.3, 1.45,
1.65, 2.4, 2.6} at N = 200, all 52 integers are -floor(hbar) and the
smallest gap is 0.1504 (hbar 2.25, N = 300).  Off those sets, -0.75, 1.8
and 2.75 at N = 300/400/500 and 0.45, 0.7 and 2.25 at N = 200 are right as
well, with gaps of at least 0.131.

The gap floor does not certify every integer.  Near integer frac(hbar) the
window must resolve ramps of width min(frac, 1 - frac) / 3, and at N = 200
the localizers of hbar 0.9, 1.9, 2.9, -1.1 and -2.1 all give the wrong
integer 1, with gaps 0.139-0.167: above the floor, and up to 0.167, above
the smallest verified gap.  So ``index_pairing`` compares the operator integer with the other
two routes and raises ValueError when either differs from it by more than
1/2; ``fedosov_index`` alone has no second route to compare with.

Domain: the gap closes as |hbar| grows at fixed N.  At N = 200 the hbar
values 4.13, 5.21, 6.3, 6.88, 9.3, 9.78, 14.3 and 14.71 all raise (largest
gap 0.078); at N = 400, 5.21, 6.3 and 9.3 are certified and the rest raise.
hbar = 1.2 at N = 200 raises too (gap 0.093).
"""

import logging
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraElement,
    _chern_number,
    _cocycle,
    _curvature_products,
    _require_projection,
    cyclic_cocycle,
    rieffel_projection,
    trace,
)
from .heatzeta import _intercept
from .oscillator import HermiteBasis, algebra_diagonals, represent

GAP_FLOOR = 0.1
# smallest basis_size of fedosov_index, and so of the CLI's --modes
MIN_BASIS_SIZE = 200

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PairingReport:
    """Per-hbar record of the three pairing estimates and their integer."""

    hbar: float
    closed_form: float
    local_formula: float
    fedosov: float
    rounded_integer: int
    residuals: tuple
    basis_size: int


def _theta(d, mu, t):
    """The graded heat trace of ``graded_heat_trace`` from diagonals d and trace mu."""
    n = np.arange(len(d))
    lam_plus = np.where(n == 0, 1.0, 2.0 * n)
    lam_minus = 2.0 * n + 2.0
    return complex(
        (d * (np.exp(-t * lam_plus) - np.exp(-t * lam_minus))).sum()
        + mu * np.exp(-2.0 * len(d) * t)
    )


def graded_heat_trace(a, t, n_modes=2000):
    """theta(t) = sum_n d_n (e^{-t lam+_n} - e^{-t lam-_n}) plus tail model.

    d_n, n < n_modes, are the closed-form diagonal elements of the
    represented element (``algebra_diagonals``), lam+ runs over the
    kernel-corrected even spectrum 1, 2, 4, 6, ... and lam- over the odd
    spectrum 2, 4, 6, ...; the mode tail beyond n_modes is modelled by the
    trace of the element (the limit of the d_n), which telescopes to
    trace(a) e^{-2 n_modes t}.  For the unit, theta(t) = e^{-t} exactly.
    """
    return _theta(algebra_diagonals(a, n_modes), trace(a), t)


def character_degree0(a, n_modes=2000):
    """Degree-0 part of the index character: the graded heat-trace limit.

    Extrapolates ``graded_heat_trace`` on n_modes modes to t -> 0 by the
    cubic through t = 0.02, 0.01, 0.005, 0.0025 (``heatzeta._intercept``),
    computing the diagonals once for the four nodes.  On a projection this
    equals its trace; on elements of nonzero degree it vanishes.
    """
    d, mu = algebra_diagonals(a, n_modes), trace(a)
    ts = np.array([0.02, 0.01, 0.005, 0.0025])
    return _intercept(ts, [_theta(d, mu, t) for t in ts])


def character_degree2(a0, a1, a2):
    """Degree-2 part of the index character, evaluated symbolically.

    (hbar / 2 pi i) cyclic_cocycle(a0, a1, a2), the curvature cocycle scaled
    by the deformation parameter.  On a projection e the combination
    character_degree2(e - 1/2, e, e) equals hbar * chern_number(e), the
    half-unit term dropping out as the trace of a commutator.
    """
    return a0.hbar / (2j * np.pi) * cyclic_cocycle(a0, a1, a2)


def _localizer(e, n, kappa):
    """The localizer of ``fedosov_index`` on n modes, from the nonnegative degrees of e.

    The blocks -(1 - 2 herm) = 2 herm - 1, its negative cut to n - 1 modes,
    and kappa A, kappa A* are written straight into one (2n - 1)^2 array.
    """
    upper = AlgebraElement(e.hbar, {m: 0.5 * f if m == 0 else f
                                    for m, f in e.items() if m >= 0})
    half = represent(upper, HermiteBasis(n))
    out = np.zeros((2 * n - 1, 2 * n - 1), dtype=half.dtype)
    top = out[:n, :n]
    np.add(half, half.conj().T, out=top)
    top *= 2.0
    diag = np.arange(n)
    top[diag, diag] -= 1.0
    np.negative(top[:-1, :-1], out=out[n:, n:])
    # the lowering operator A has sqrt(2k) at (k - 1, k): D = [[0, A*], [A, 0]]
    k = diag[1:]
    out[k, n + k - 1] = out[n + k - 1, k] = kappa * np.sqrt(2.0 * k)
    return out


def _signature_index(e, basis_size):
    """``fedosov_index`` of e, without the projection check."""
    if basis_size < MIN_BASIS_SIZE:
        raise ValueError(
            f"operator index needs a basis of at least {MIN_BASIS_SIZE} modes"
        )
    n = int(basis_size)
    kappa = 1.0 / np.sqrt(n)
    localizer = _localizer(e, n, kappa)
    evals = np.linalg.eigvalsh(localizer)
    signature = int(np.count_nonzero(evals > 0) - np.count_nonzero(evals < 0))
    gap = float(np.abs(evals).min())
    spectrum = "hermitian" if np.iscomplexobj(localizer) else "real"
    logger.debug("operator index: N=%d kappa=%.6g signature=%d gap=%.6g spectrum=%s",
                 n, kappa, signature, gap, spectrum)
    if gap < GAP_FLOOR:
        raise ValueError(
            f"localizer gap {gap:.3g} is below the floor {GAP_FLOOR}: "
            f"no certified index at basis_size={n}"
        )
    return (signature + 1) / 2


def fedosov_index(e, basis_size=400):
    """Operator-index route: half the signature of the spectral localizer.

    On the first N = ``basis_size`` Hermite modes, with H = 1 - 2 herm(P e P)
    the symmetry of the represented projection, D the block Dirac matrix and
    grading Gamma (as in ``ladder_matrices``), the localizer is the Hermitian
    matrix L = kappa D - Gamma (H + H) = [[-H, kappa A*], [kappa A, H]],
    kappa = 1 / sqrt(N), with the last lower-block row and column dropped:
    that mode's D^2 = 0 is a truncation artifact outside the window
    |D|^2 <= 2(N - 1).  Its blocks are written into one (2N - 1)^2 array
    (``_localizer``).  The index is
    (Sig L + 1) / 2; the offset is minus Sig L at e = 0, where ker A is the
    ground state, so e = 1 gives 1 and e = 0 gives 0 exactly.

    e is self-adjoint (``_require_projection``), so its degrees -n are the
    adjoints of its degrees n, and only the nonnegative degrees are
    represented: with S = P pi(e_0 / 2 + sum_{n>0} e_n [n]) P,
    herm(P e P) is S + S^H.

    The smallest |eigenvalue| of L is its gap and the certificate of the
    integer; one ``eigvalsh`` of L gives both.  A basis_size below
    ``MIN_BASIS_SIZE`` raises ValueError, after the projection check.  When
    every coefficient of the nonnegative degrees has real samples, as for the
    bump projection, ``represent`` returns a real section, so L is real
    symmetric and numpy takes the real LAPACK routine; any complex
    coefficient (U e U*, say) makes L complex Hermitian.  A gap below ``GAP_FLOOR`` raises ValueError
    instead of returning a number.  Large |hbar| at small N raises (see the
    module docstring for the measured domain).  Each call logs N, kappa,
    the signature, the gap and the localizer's dtype (spectrum=real or
    hermitian) at DEBUG on the ``nctorus.pairing`` logger.
    """
    _require_projection(e)
    return _signature_index(e, basis_size)


def index_pairing(e, basis_size=400, n_modes=2000):
    """All three routes for one projection, reconciled in a PairingReport.

    e is checked once to be a projection (``_require_projection``), and the
    curvature products delta1(e) delta2(e) and delta2(e) delta1(e) are
    built once for the Chern number and the degree-2 character.  The
    operator route runs before the local formula's n_modes diagonal
    elements, so a localizer gap below ``GAP_FLOOR`` raises without
    computing them.  An operator integer that differs from the closed form
    or from the local formula by more than 1/2 is contradicted: ValueError,
    naming all three values, instead of a report (see the module docstring
    for the near-integer frac(hbar) cases that reach it).
    """
    _require_projection(e)
    hbar = e.hbar
    products = _curvature_products(e, e)
    closed = trace(e) - hbar * _chern_number(e, products)
    fed = _signature_index(e, basis_size)
    half = e - 0.5 * AlgebraElement.unit(hbar, e.n_samples)
    degree2 = half.hbar / (2j * np.pi) * _cocycle(half, products)
    local = character_degree0(e, n_modes=n_modes) - degree2
    rounded = int(round(fed))
    residuals = (
        abs(closed.real - rounded),
        abs(local.real - rounded),
        abs(fed - rounded),
    )
    if max(residuals[:2]) > 0.5:
        raise ValueError(
            f"operator index {rounded} at hbar={hbar} contradicts the closed form "
            f"{closed.real:.6g} and the local formula {local.real:.6g}: "
            f"no integer at basis_size={basis_size}"
        )
    return PairingReport(
        hbar=hbar,
        closed_form=float(closed.real),
        local_formula=float(local.real),
        fedosov=fed,
        rounded_integer=rounded,
        residuals=residuals,
        basis_size=basis_size,
    )


def sweep(hbars, basis_size=400, n_modes=2000):
    """Index pairing of the bump projection across deformation parameters."""
    return [
        index_pairing(rieffel_projection(h), basis_size=basis_size, n_modes=n_modes)
        for h in hbars
    ]


# ---------------- emission ----------------


def report_to_json_dict(report):
    return {
        "hbar": report.hbar,
        "closed_form": report.closed_form,
        "local_formula": report.local_formula,
        "fedosov": report.fedosov,
        "integer": report.rounded_integer,
        "residuals": list(report.residuals),
        "basis_size": report.basis_size,
    }
