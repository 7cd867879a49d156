"""Numerics for the irrational rotation algebra on the line.

Builds the smooth rotation algebra on trigonometric sample grids, represents
it on a truncated Hermite basis, evaluates oscillator heat kernels and
spectral zeta functions, and reconciles three independent computations of
the integer index pairing between projections and the line Dirac operator.
"""

from .algebra import (
    AlgebraElement,
    adjoint,
    chern_number,
    cyclic_cocycle,
    delta1,
    delta2,
    from_json_dict,
    ladder_commutators,
    multiply,
    projection_defect,
    rieffel_projection,
    sup_norm,
    to_json_dict,
    trace,
)
from .heatzeta import (
    ONE,
    EntireZetaReport,
    MeanResult,
    RealLineFunction,
    ZetaEvaluation,
    asymptotic_mean,
    delta_map,
    dixmier_limit,
    entire_check,
    heat_trace,
    heat_trace_weighted,
    mehler_eigen_sum,
    mehler_kernel,
    mehler_kernel_classical,
    period_mean,
    residue_at_1,
    residue_by_extrapolation,
    spectral_diagonals,
    zeta_trace,
)
from .ktheory import (
    KClass,
    classical_pairing,
    gap_label_witness,
    in_gap_label_group,
    k_pairing,
    trace_value,
    twist,
)
from .oscillator import (
    HermiteBasis,
    algebra_diagonals,
    diagonal_elements,
    hermite_rows,
    ladder_matrices,
    multiplication_matrix,
    represent,
    translation_matrix,
)
from .pairing import (
    PairingReport,
    character_degree0,
    character_degree2,
    fedosov_index,
    graded_heat_trace,
    index_pairing,
    report_to_json_dict,
    sweep,
)
from .periodic import PeriodicFunction, smooth_step

__version__ = "0.1.0"
