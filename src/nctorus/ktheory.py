"""Exact integer bookkeeping for classes, twists and pairings.

A class is an integer combination m [1] + n [p] in the ordered basis of the
unit and the bump projection.  Pairing a class against the family member
with parameter hbar + b is pure arithmetic in (m, n, b) plus one real
parameter, and the twist endomorphism acts by a unipotent integer matrix.
The twist generator direction is fixed by the compatibility identity
pairing(twist(x, b), hbar, 0) = pairing(x, hbar, b), which forces the
matrix [[1, -1], [0, 1]] for the generator with the closed-form pairing
used here.
"""

import math
from dataclasses import dataclass

import numpy as np

# values of |q| per chunk of the gap-label scan: 2^16 candidates, about 0.5 MB an array
_WITNESS_CHUNK = 2**15


@dataclass(frozen=True)
class KClass:
    """m copies of the unit class plus n copies of the bump-projection class."""

    m: int
    n: int

    def __post_init__(self):
        if not (isinstance(self.m, int) and isinstance(self.n, int)):
            raise TypeError("class coordinates must be integers")


def _check_fraction(hbar):
    frac = hbar - math.floor(hbar)
    if min(frac, 1.0 - frac) <= 1e-9:
        raise ValueError(f"hbar={hbar} is integer; the bump-projection class degenerates")
    return frac


def twist(x, b):
    """Twist endomorphism on classes: (m, n) -> (m - b n, n).

    Powers compose additively, twist(twist(x, a), b) = twist(x, a + b).
    """
    return KClass(x.m - int(b) * x.n, x.n)


def k_pairing(x, hbar, b=0):
    """Closed-form pairing of the class with the family member at hbar + b.

    Equals m + n (frac(hbar) - (hbar + b)); at b = 0 the projection class
    alone gives -floor(hbar), the integer staircase.
    """
    frac = _check_fraction(hbar)
    return x.m + x.n * (frac - (float(hbar) + int(b)))


def trace_value(x, hbar):
    """Value of the canonical trace on the class: m + n frac(hbar)."""
    frac = hbar - math.floor(hbar)
    return x.m + x.n * frac


def gap_label_witness(value, hbar):
    """The label (p, q) of value: |value - p - q hbar| <= 1e-9, |q| smallest.

    Searches |q| <= 10^6 exhaustively and returns, among the pairs within
    the tolerance, the one of smallest |q|, q >= 0 on a tie; None if there
    is none.  The label group of the deformation is exactly the set of such
    combinations.  The scan runs over ``_WITNESS_CHUNK`` values of |q| at a
    time and stops at the first chunk with a hit, so its memory is a few
    MB whatever the outcome.
    """
    q_max, tol = 10**6, 1e-9
    # q in the order 0, 1, -1, 2, -2, ...: the first pair within tol is the label
    for start in range(0, q_max + 1, _WITNESS_CHUNK):
        mags = np.arange(start, min(start + _WITNESS_CHUNK, q_max + 1))
        qs = np.stack([mags, -mags], axis=1).ravel()[1 if start == 0 else 0:]
        residual = value - qs * hbar
        ps = np.rint(residual)
        hits = np.flatnonzero(np.abs(residual - ps) <= tol)
        if hits.size:
            return int(ps[hits[0]]), int(qs[hits[0]])
    return None


def in_gap_label_group(value, hbar):
    """Whether the value lies in Z + hbar Z within 1e-9 (bounded search)."""
    return gap_label_witness(value, hbar) is not None
