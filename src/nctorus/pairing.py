"""Integer index pairings of projections with the line Dirac operator.

Three independent routes are reconciled per deformation parameter:

* the closed form  trace(e) - hbar * chern_number(e);
* the local formula  character_degree0(e) - character_degree2(e - 1/2, e, e),
  whose degree-0 part is a graded heat-trace limit computed numerically and
  whose degree-2 part is evaluated symbolically through the algebra trace;
* an operator index of the projection-compressed phase of the Dirac block.

The operator route counts singular vectors of the compressed lowering phase
below a fixed cut and classifies them by where their mass sits: the defect
operators of the compression differ from projections by compacts, so the
genuine kernel and cokernel directions are finitely many and concentrated in
low modes, while the spurious rank defects of a finite section sit against
the truncation edge.  A working basis twice the requested size supplies the
guard band.  The cut is heuristic, not a spectral gap: at 400 modes and
hbar = 0.3 singular values of 0.475 and 0.512 lie on either side of the
cut of 0.5.  (A finite square section of the naive trace formula for
the index vanishes identically, since the two defect factors are similar
matrices; counting the stabilized kernels through a bulk window is the
finite-section limit of the high-order trace formula.)
"""

from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraElement,
    chern_number,
    cyclic_cocycle,
    projection_defect,
    rieffel_projection,
    trace,
)
from .oscillator import HermiteBasis, algebra_diagonals, bounded_transform, represent

DEFAULT_T_LIST = (0.02, 0.01, 0.005, 0.0025)
OVERSAMPLE = 2
CLUSTER_TOL = 0.05
SIGMA_CUT = 0.5


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


def graded_heat_trace(a, t, n_modes=2000, diagonals=None):
    """theta(t) = sum_n d_n (e^{-t lam+_n} - e^{-t lam-_n}) plus tail model.

    d_n are the diagonal elements of the represented element, lam+ runs over
    the kernel-corrected even spectrum 1, 2, 4, 6, ... and lam- over the odd
    spectrum 2, 4, 6, ...; the mode tail beyond n_modes is modelled by the
    trace of the element (the limit of the d_n), which telescopes to
    trace(a) e^{-2 n_modes t}.  For the unit, theta(t) = e^{-t} exactly.
    """
    d = algebra_diagonals(a, n_modes) if diagonals is None else diagonals
    mu = trace(a)
    n = np.arange(len(d))
    lam_plus = np.where(n == 0, 1.0, 2.0 * n)
    lam_minus = 2.0 * n + 2.0
    return complex(
        (d * (np.exp(-t * lam_plus) - np.exp(-t * lam_minus))).sum()
        + mu * np.exp(-2.0 * len(d) * t)
    )


def character_degree0(a, n_modes=2000, t_list=DEFAULT_T_LIST):
    """Degree-0 part of the index character: the graded heat-trace limit.

    Extrapolates ``graded_heat_trace`` to t -> 0 by a polynomial through
    t_list.  On a projection this equals its trace; on elements of nonzero
    degree it vanishes.
    """
    d = algebra_diagonals(a, n_modes)
    ts = np.asarray(t_list, dtype=float)
    theta = np.array([graded_heat_trace(a, t, n_modes, diagonals=d) for t in ts])
    re = np.polyfit(ts, theta.real, len(ts) - 1)[-1]
    im = np.polyfit(ts, theta.imag, len(ts) - 1)[-1]
    return complex(re, im)


def character_degree2(a0, a1, a2):
    """Degree-2 part of the index character, evaluated symbolically.

    (hbar / 2 pi i) cyclic_cocycle(a0, a1, a2), the curvature cocycle scaled
    by the deformation parameter.  On a projection e the combination
    character_degree2(e - 1/2, e, e) equals hbar * chern_number(e), the
    half-unit term dropping out as the trace of a commutator.
    """
    return a0.hbar / (2j * np.pi) * cyclic_cocycle(a0, a1, a2)


def fedosov_index(e, basis_size=400, grid_factor=8):
    """Operator-index route: stabilized kernel count of the compressed phase.

    The element is represented on a working basis of ``OVERSAMPLE *
    basis_size`` modes and rounded at 1/2 to an exact projection P; spectrum
    more than ``CLUSTER_TOL`` away from {0, 1} is tolerated only for
    eigenvectors leaning on the truncation half (finite sections smear edge
    eigenvalues across [0, 1]), and any deep-bulk stray raises.  The
    lowering phase F+ = A H^{-1/2} is compressed to ran P and its singular
    vectors below ``SIGMA_CUT`` are counted with sign: a right vector
    carrying most of its mass in the first ``basis_size`` modes is a kernel
    direction (+1), a left vector a cokernel direction (-1); physical
    nonzero-sigma pairs enter with both signs and cancel, edge artifacts
    fail the bulk test and drop out.
    """
    if basis_size < 200:
        raise ValueError("operator index needs a basis of at least 200 modes")
    n_big = OVERSAMPLE * int(basis_size)
    basis = HermiteBasis(n_big, n_quad=grid_factor * n_big + 1)
    rep = represent(e, basis)
    herm = 0.5 * (rep + rep.conj().T)
    evals, evecs = np.linalg.eigh(herm)
    off = np.minimum(np.abs(evals), np.abs(evals - 1.0))
    stray = np.nonzero(off > CLUSTER_TOL)[0]
    if stray.size:
        # eigenvalues of the finite section drift anywhere in [0, 1] when the
        # eigenvector leans on the truncation half of the working basis; only
        # strays carried by the deep bulk signal a genuinely bad element
        deep = basis_size // 2
        bulk_mass = (np.abs(evecs[:deep, stray]) ** 2).sum(axis=0)
        if (bulk_mass > 0.5).any():
            worst = float(off[stray][bulk_mass > 0.5].max())
            raise ValueError(
                f"spectrum not clustered at {{0,1}}: bulk eigenvalue off by "
                f"{worst:.3e} (element is not a projection)"
            )
    keep = evals >= 0.5
    v1 = evecs[:, keep]
    f_plus, _ = bounded_transform(basis)
    compressed = v1.conj().T @ f_plus @ v1
    u, sigma, vh = np.linalg.svd(compressed)
    count = 0
    for k in np.nonzero(sigma < SIGMA_CUT)[0]:
        right = v1 @ vh[k].conj()
        left = v1 @ u[:, k]
        if (np.abs(right[:basis_size]) ** 2).sum() > 0.5:
            count += 1
        if (np.abs(left[:basis_size]) ** 2).sum() > 0.5:
            count -= 1
    return float(count)


def index_pairing(e, basis_size=400, n_modes=2000, projection_tol=1e-8,
                  grid_factor=8):
    """All three routes for one projection, reconciled in a PairingReport."""
    d_idem, d_adj = projection_defect(e)
    if d_idem > projection_tol or d_adj > projection_tol:
        raise ValueError(
            f"not a projection: ||e^2-e||={d_idem:.2e}, ||e*-e||={d_adj:.2e}"
        )
    hbar = e.hbar
    c1 = chern_number(e, tol=projection_tol)
    closed = trace(e) - hbar * c1
    half = e - 0.5 * AlgebraElement.unit(hbar, e.n_samples)
    local = character_degree0(e, n_modes=n_modes) - character_degree2(half, e, e)
    fed = fedosov_index(e, basis_size=basis_size, grid_factor=grid_factor)
    rounded = int(round(fed))
    residuals = (
        abs(closed.real - rounded),
        abs(local.real - rounded),
        abs(fed - rounded),
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


def sweep(hbars, basis_size=400, n_modes=2000, grid_factor=8):
    """Index pairing of the bump projection across deformation parameters."""
    return [
        index_pairing(
            rieffel_projection(h),
            basis_size=basis_size,
            n_modes=n_modes,
            grid_factor=grid_factor,
        )
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
