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
its negative degrees being their adjoints: the localizer reads S + S^H =
2 herm(P e P), S the section of e_0 + 2 sum_{m>0} e_m [m], which the
closed form of ``oscillator._weyl_blocks`` writes directly, its lower
triangle and the conjugate, without S itself.  Its smallest |eigenvalue|,
the gap, is the certificate: an integer is returned only when the gap is at
least ``GAP_FLOOR``, otherwise ValueError is raised.  In the line
representation a coefficient acts by multiplication and [1] by translation,
so an element with real coefficient functions, such as the nonnegative
degrees of the bump projection, maps real functions to real functions: its
section and localizer are real symmetric, and their spectrum is computed as
such.  A complex coefficient gives a complex Hermitian localizer.

The bump projection is reflection symmetric: x -> 2c - x, with c the centre
of its degree-0 bump, takes f[n] to f(2c - .)[-n] and leaves it unchanged.
On the Hermite window centred at c the reflection acts on psi_n(x - c) by
(-1)^n and sends D to -D, which the grading undoes, so the localizer
commutes with the parity involution that pairs top-block modes of parity
p with bottom-block modes of parity 1 - p.  ``fedosov_index`` then takes
the signature and the gap from the two blocks, of sizes about N each,
with one ``eigvalsh`` per block, each block diagonalized as it is built,
and only the even degrees of the section's closed form: about a quarter
of the eigenvalue flops of the whole localizer.  The centre is read from
the element (see ``_reflection_centre``), and the reflection defect there
is 2 sum |Im w| over the weights w of the section's displacements: the
odd degrees of S + S^H, which the split drops, are the section of the
weights i Im w, so their 2-norm is at most the defect and every eigenvalue
of the two blocks lies within it of the whole localizer's (Weyl's
inequality; the defect is at most 2.5e-10 on the pools below).  An element
whose defect exceeds ``PROJECTION_TOL``, such as U e U*, takes the whole
localizer on the window centred at 0.  The window centred at c is the one
of the translated operator D - c, a scalar perturbation of D, so the index
is the same and only the gap moves: by at most 0.006 on the pools below.

Measured margins (numpy 2.4 with OpenBLAS): over the bump projections with
hbar in {-0.6, -0.4, -0.25, 0.3, 0.45, 0.55, 0.7, 1.2, 1.3, 1.45, 1.65, 2.25,
2.4, 2.6} at N = 300/400/500 and {-0.6, -0.4, -0.25, 0.3, 0.55, 1.3, 1.45,
1.65, 2.4, 2.6} at N = 200, all 52 integers are -floor(hbar), all from the
two parity blocks, and the smallest gap is 0.1501 (hbar 2.25, N = 300;
re-measured on the closed-form sections, which moved no gap by more than
7e-15).
Off those sets, -0.75, 1.8 and 2.75 at N = 300/400/500 and 0.45, 0.7 and
2.25 at N = 200 are right as well, with gaps of at least 0.131.

The gap floor does not certify every integer.  Near integer frac(hbar) the
window must resolve ramps of width min(frac, 1 - frac) / 3, and at N = 200
the localizers of hbar 0.9, 1.9, 2.9, -1.1 and -2.1 all give the wrong
integer 1, with gaps 0.139-0.168: above the floor, and up to 0.168, above
the smallest verified gap.  So ``index_pairing`` compares the operator
integer with the other two routes and raises ValueError when either
differs from it by more than 1/2; ``fedosov_index`` alone has no second
route to compare with.

Domain: the gap closes as |hbar| grows at fixed N.  At N = 200 the hbar
values 4.13, 5.21, 6.3, 6.88, 9.3, 9.78, 14.3 and 14.71 all raise (largest
gap 0.079); at N = 400, 5.21, 6.3 and 9.3 are certified and the rest raise.
hbar = 1.2 at N = 200 raises too (gap 0.093).
"""

import logging
import operator
from dataclasses import dataclass

import numpy as np

from .algebra import (
    PROJECTION_TOL,
    AlgebraElement,
    _require_projection,
    chern_number,
    cyclic_cocycle,
    rieffel_projection,
    trace,
)
from .heatzeta import _intercept
# represent is not called here; it stays importable as pairing.represent,
# the name the benchmark's tracing wraps
from .oscillator import (  # noqa: F401
    _element_displacements,
    _weyl_blocks,
    algebra_diagonals,
    represent,
)

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


def graded_heat_trace(a, t, n_modes=2000):
    """theta(t) = sum_n d_n (e^{-t lam+_n} - e^{-t lam-_n}) plus tail model.

    d_n, n < n_modes, are the closed-form diagonal elements of the
    represented element (``algebra_diagonals``), lam+ runs over the
    kernel-corrected even spectrum 1, 2, 4, 6, ... and lam- over the odd
    spectrum 2, 4, 6, ...; the mode tail beyond n_modes is modelled by the
    trace of the element (the limit of the d_n), which telescopes to
    trace(a) e^{-2 n_modes t}.  For the unit, theta(t) = e^{-t} exactly.
    t is a scalar or a 1-D array: one set of diagonals serves every t, and
    each entry has the scalar call's bits.
    """
    d = algebra_diagonals(a, n_modes)
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    n = np.arange(len(d))
    lam_plus = np.where(n == 0, 1.0, 2.0 * n)
    lam_minus = 2.0 * n + 2.0
    decay = np.exp(-ts[:, None] * lam_plus) - np.exp(-ts[:, None] * lam_minus)
    theta = (d * decay).sum(axis=-1) + trace(a) * np.exp(-2.0 * len(d) * ts)
    return complex(theta[0]) if np.ndim(t) == 0 else theta


def character_degree0(a, n_modes=2000):
    """Degree-0 part of the index character: the graded heat-trace limit.

    Extrapolates ``graded_heat_trace`` on n_modes modes to t -> 0 by the
    cubic through t = 0.02, 0.01, 0.005, 0.0025 (``heatzeta._intercept``),
    one call for the four nodes.  On a projection this equals its trace; on
    elements of nonzero degree it vanishes.
    """
    ts = np.array([0.02, 0.01, 0.005, 0.0025])
    return _intercept(ts, graded_heat_trace(a, ts, n_modes))


def character_degree2(a0, a1, a2):
    """Degree-2 part of the index character, evaluated symbolically.

    (hbar / 2 pi i) cyclic_cocycle(a0, a1, a2), the curvature cocycle scaled
    by the deformation parameter.  On a projection e the combination
    character_degree2(e - 1/2, e, e) equals hbar * chern_number(e), the
    half-unit term dropping out as the trace of a commutator.
    """
    return a0.hbar / (2j * np.pi) * cyclic_cocycle(a0, a1, a2)


def _reflection_centre(e):
    """The centre c = -arg(c_1) / 2 pi about which e may be reflection symmetric.

    c_1 is the first Fourier mode of the degree-0 coefficient: a
    coefficient even about c has c_1 = |c_1| e^{-2 pi i c} when its mode 1
    about c is positive, as the bump's is.  None when e has no degree 0 or
    its c_1 is 0.
    """
    f0 = dict(e.items()).get(0)
    if f0 is None or f0.coefficients[1] == 0:
        return None
    return -float(np.angle(f0.coefficients[1])) / (2.0 * np.pi)


def _block(top, bottom, n, p, step, kappa):
    """One block [[top, kappa A*], [kappa A, -bottom]] of the localizer on n modes.

    Its top modes are p, p + step, ... < n and its bottom modes q, q + step,
    ... < n - 1, q = (p + 1) mod step; top and bottom are 2 herm - 1 on
    the modes p, p + step, ... < n and q, q + step, ... < n.  The lowering
    operator A has sqrt(2k) at (k - 1, k), so it couples top mode k to
    bottom mode k - 1.  step = 1 is the whole localizer; step = 2 is its
    block of top parity p.
    """
    q = (p + 1) % step
    nt, nb = top.shape[0], len(range(q, n - 1, step))
    out = np.zeros((nt + nb, nt + nb), dtype=np.result_type(top, bottom))
    out[:nt, :nt] = top
    np.negative(bottom[:nb, :nb], out=out[nt:, nt:])
    k = np.arange(p, n, step)
    k = k[k > 0]
    i, j = (k - p) // step, nt + (k - 1 - q) // step
    out[i, j] = out[j, i] = kappa * np.sqrt(2.0 * k)
    return out


def _localizer(e, n, kappa):
    """The localizer of ``fedosov_index`` on n modes, as an iterator of blocks.

    Returns (blocks, centre, defect).  The section read is that of upper =
    e_0 + 2 sum_{m>0} e_m [m], so H(w) = S + S^H = 2 herm(P e P) and the
    symmetry is H(w) - 1.  The defect is 2 sum |Im w| over upper's weights
    on the window centred at ``_reflection_centre``'s c.  At most
    ``PROJECTION_TOL``, the blocks are the two of top parity p = 0 and 1 on
    that window; otherwise, or with no centre (defect None), the one block
    is the whole localizer on the window centred at 0.  Either way H(w)
    comes from one ``_weyl_blocks`` call, at step 2 or 1, on upper's
    displacements: on the split path the same map the defect is read from,
    mapped once (and logged by ``_element_displacements`` as
    ``localizer``); each localizer block is built only when the iterator
    reaches it.
    """
    upper = AlgebraElement(e.hbar, {m: f if m == 0 else 2.0 * f
                                    for m, f in e.items() if m >= 0})
    centre, defect = _reflection_centre(e), None
    if centre is not None:
        displacements = _element_displacements(upper, n, centre, caller="localizer")
        defect = 2.0 * float(np.abs(displacements[1].imag).sum())
    step = 1 if defect is None or defect > PROJECTION_TOL else 2
    if step == 1:
        displacements = _element_displacements(upper, n, caller="localizer")
    tops = _weyl_blocks(displacements, n, step=step)
    for herm in tops:
        # the symmetry H(w) - 1, on the real diagonal of a Hermitian block
        herm.flat[::herm.shape[0] + 1] = herm.diagonal().real - 1.0
    blocks = (_block(tops[p], tops[(p + 1) % step], n, p, step, kappa) for p in range(step))
    return blocks, centre, defect


def _fmt(value):
    return "none" if value is None else f"{value:.6g}"


def fedosov_index(e, basis_size=400):
    """Operator-index route: half the signature of the spectral localizer.

    On the first N = ``basis_size`` Hermite modes, with H = 1 - 2 herm(P e P)
    the symmetry of the represented projection, D the block Dirac matrix and
    grading Gamma (as ``ladder_matrices(N)`` returns them), the localizer is
    the Hermitian matrix L = kappa D - Gamma (H + H) = [[-H, kappa A*], [kappa A, H]],
    kappa = 1 / sqrt(N), with the last lower-block row and column dropped:
    that mode's D^2 = 0 is a truncation artifact outside the window
    |D|^2 <= 2(N - 1).  The index is (Sig L + 1) / 2; the offset is minus
    Sig L at e = 0, where ker A is the ground state, so e = 1 gives 1 and
    e = 0 gives 0 exactly.

    Reflection condition: let c = -arg(c_1) / 2 pi, with c_1 the first
    Fourier mode of e's degree-0 coefficient (``_reflection_centre``).
    When c_1 != 0 and the reflection defect of e about c, 2 sum |Im w| over
    the displacement weights w of its section on the first N
    eigenfunctions psi_n(x - c), is at most ``PROJECTION_TOL``, L on that
    window splits into two blocks: top modes of parity p with bottom modes
    of parity 1 - p, of sizes N - 1 and N (``_localizer``).  The entries
    dropped are the section's odd degrees, of 2-norm at most the defect,
    so every eigenvalue of the two blocks lies within the defect of L's
    (Weyl's inequality).  Sig L and the gap come from one ``eigvalsh`` per block, each block
    diagonalized before the next is built, so the working set is the
    section's two parity blocks and one localizer block.  Any other e
    takes the window centred at 0 and one (2N - 1)^2 block, the whole L.

    e is self-adjoint (``_require_projection``, its defect memoised), so
    its degrees -n are the adjoints of its degrees n, and only the
    nonnegative degrees are represented: with
    S = P pi(e_0 + 2 sum_{n>0} e_n [n]) P,
    2 herm(P e P) is S + S^H, written by one ``_weyl_blocks`` call as
    its two parity blocks or, for any other e, as one N x N block.

    The smallest |eigenvalue| of L is its gap and the certificate of the
    integer.  basis_size is an integer (numpy integers too); any other type
    raises TypeError, before the projection check, and a basis_size below
    ``MIN_BASIS_SIZE`` raises ValueError, after it.  When
    every coefficient of the nonnegative degrees has real samples, as for the
    bump projection, the section is real, so L is real symmetric and numpy
    takes the real LAPACK routine; any complex coefficient (U e U*, say)
    makes L complex Hermitian.  A gap below ``GAP_FLOOR`` raises ValueError
    instead of returning a number.  Large |hbar| at small N raises (see the
    module docstring for the measured domain).  Each call logs N, kappa,
    the number of blocks, the centre c and the reflection defect (none
    when c_1 = 0), the signature, the gap and the first block's dtype
    (spectrum=real or hermitian) at DEBUG on the ``nctorus.pairing``
    logger.
    """
    n = operator.index(basis_size)
    _require_projection(e)
    if n < MIN_BASIS_SIZE:
        raise ValueError(
            f"operator index needs a basis of at least {MIN_BASIS_SIZE} modes"
        )
    kappa = 1.0 / np.sqrt(n)
    blocks, centre, defect = _localizer(e, n, kappa)
    spectra, spectrum = [], None
    for block in blocks:
        spectra.append(np.linalg.eigvalsh(block))
        spectrum = spectrum or ("hermitian" if np.iscomplexobj(block) else "real")
        # each block is diagonalized as it is built: the next one is built
        # without this one held
        del block
    evals = np.concatenate(spectra)
    signature = int(np.count_nonzero(evals > 0) - np.count_nonzero(evals < 0))
    gap = float(np.abs(evals).min())
    logger.debug("operator index: N=%d kappa=%.6g blocks=%d centre=%s "
                 "reflection_defect=%s signature=%d gap=%.6g spectrum=%s",
                 n, kappa, len(spectra), _fmt(centre), _fmt(defect), signature, gap,
                 spectrum)
    if gap < GAP_FLOOR:
        raise ValueError(
            f"localizer gap {gap:.3g} is below the floor {GAP_FLOOR}: "
            f"no certified index at basis_size={n}"
        )
    return (signature + 1) / 2


def index_pairing(e, basis_size=400, n_modes=2000):
    """All three routes for one projection, reconciled in a PairingReport.

    Each route is its public call: trace(e) - hbar chern_number(e),
    fedosov_index(e, basis_size) and character_degree0(e, n_modes) -
    character_degree2(e - 1/2, e, e).  The projection check of the first two
    and the curvature products of the first and last are memoised per
    element (``algebra.projection_defect``, ``algebra._curvature_products``),
    so each is computed once.  The operator route runs before the local
    formula's n_modes diagonal elements, so a localizer gap below
    ``GAP_FLOOR`` raises without computing them.  An operator integer that
    differs from the closed form or from the local formula by more than 1/2
    is contradicted: ValueError, naming all three values, instead of a
    report (see the module docstring for the near-integer frac(hbar) cases
    that reach it).  basis_size and n_modes are integers (numpy integers
    too), as reported; any other type raises TypeError before any route runs.
    """
    basis_size, n_modes = operator.index(basis_size), operator.index(n_modes)
    hbar = e.hbar
    closed = trace(e) - hbar * chern_number(e)
    fed = fedosov_index(e, basis_size)
    half = e - 0.5 * AlgebraElement.unit(hbar, e.n_samples)
    local = character_degree0(e, n_modes=n_modes) - character_degree2(half, e, e)
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
    """Index pairing of the bump projection across deformation parameters.

    basis_size and n_modes are integers, as for ``index_pairing``; any other
    type raises TypeError before the first parameter is paired.
    """
    basis_size, n_modes = operator.index(basis_size), operator.index(n_modes)
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
