"""Byte-exact golden outputs of the README command-line examples.

Each case runs ``nctorus.cli.main`` in-process and compares its stdout with
a file under ``tests/golden/``.  All ten README examples are pinned in
CSV and in JSON; the JSON of ``pair`` and ``sweep`` prints every digit of
the three routes, closed form, local formula and operator index.

The ``zeta_one`` and ``zeta_fourier`` goldens were re-captured twice.
First when the diagonals of periodic weights became closed-form (Laguerre)
instead of a quadrature stream.  Then when periodic weights on the
diagonal moved from the 2000-mode eigen-sum onto the Mellin integral of
their Mehler heat trace: ``zeta_fourier``'s values moved in the 5th-6th
digits (5.64666475217474 to 5.64664030985796 at s = 1.1, 50.6364049044733
to 50.6363533076787 at s = 1.01), the eigen-sum's truncation error, and its
error estimates from 0.058 and 1.2 to 3.1e-11; ``zeta_one``'s value kept
its digits and its estimate became 0; the JSON ``method`` of both reads
``heat_mellin``.  ``zeta_cos`` pins the values left of s = 1, where the
eigen-sum printed 14.34 and 3.6e-3.  ``tests/test_heatzeta.py`` holds all
three within 1e-14 relative of 30-digit mpmath quadratures of the Mehler
closed form (pi^2/8 for ``zeta_one``).  Every other golden was unchanged.

``zeta_riesz_ramp`` pins the Mellin values at s = 1.5 and 2 of the weight
``--f riesz-ramp`` builds, the real samples of the hbar = 0.3 bump
coefficient; ``tests/test_heatzeta.py`` holds the same weight's values
within 1e-14 relative of 30-digit mpmath quadratures of the Mehler closed
form over its modes |k| <= 8
(``test_mellin_values_match_mpmath_and_the_eigen_sum[bump]``).

``rieffel``, ``pair`` and ``sweep`` were re-captured when the Chern number
became cyclic_cocycle(e, e, e) / 2 pi i (two traces, one per curvature
product, where it took one trace of their difference) and the Laguerre
recurrence of the diagonals moved to difference form.  The three-term form
rounded y against 2n + 1: e^{-y/2} L_1999(0.045), the degree +-1 column of
the bump's diagonals at hbar = 0.3, read 7.6e-13 off a 40-digit mpmath
value, and now reads 1.7e-16
(``tests/test_oscillator.py::test_laguerre_rows_match_mpmath``).
Moves: ``rieffel`` chern_im -1.69009072114924e-17 to -6.81586284007342e-18;
``pair`` (hbar 0.7) closed_form -1.11022302462516e-16 to
-3.33066907387547e-16 and local_formula -5.20839713991084e-06 to
-5.20839714013288e-06; ``sweep`` local_formula 0.00123372707494912 to
0.00123372707494612 at hbar 0.3, -1.0000000554513957 to
-1.0000000554513955 at 1.3 and -2.000000073221243 to -2.0000000732212433
at 2.6 (JSON digits), the residuals with them.  Every move is at most 3e-15.

``heat_kernel`` and ``sweep.json`` were re-captured when the Hermite and
Laguerre recurrences moved from a running log scale to exact binary
exponents (the start e^{-x^2/2} or e^{-y/2} as a mantissa and an exponent,
x^2 split exactly, every rescale a power of two).  ``heat_kernel``'s
eigen_sum_diag moved in 36 of its 81 JSON rows, by at most 1.7e-16
(1.2e-15 relative), and abs_deviation in 33 rows, the 33 CSV rows that
move; max_deviation stays 2.7755575615628914e-16.
``tests/test_heatzeta.py::test_mehler_eigen_sum_matches_mpmath_at_the_readme_points``
holds the column within 2e-15 relative of 40-digit sums of its 200 terms:
1.28e-15 before, 1.07e-15 after.  ``sweep.json`` at hbar 2.6:
local_formula -2.0000000732212433 to -2.000000073221243, and its residual
7.322124329078861e-08 to 7.32212428466994e-08 (``sweep.csv`` keeps its
15 digits).  The bump's 2000 diagonals at hbar 2.6 stay within 4.4e-16 of
the same weights on 50-digit Laguerre rows, and
``tests/test_oscillator.py::test_laguerre_rows_match_mpmath`` pins the
Laguerre values at large y within 1e-15, where the log scale read 2.7e-14.

The files were captured with Python 3.11.7, numpy 2.4.6 and mpmath 1.3.0.
The library does not import scipy, so the goldens do not depend on it.
The last digits of the printed floats depend on that environment (BLAS,
FFT and special-function versions), so a mismatch under other versions is
not by itself a regression.
"""

from pathlib import Path

import pytest

from nctorus.cli import main

GOLDEN = Path(__file__).parent / "golden"

EXAMPLES = {
    "rieffel": "rieffel --hbar 0.3",
    "sweep": "sweep --hbars 0.3,1.3,2.6",
    "pair": "pair --hbar 0.7 --modes 400",
    "zeta_one": "zeta --f one --alpha 0 --s-list 2",
    "zeta_fourier": "zeta --f fourier --coeffs 1,1 --s-list 1.1,1.01",
    "zeta_cos": "zeta --f cos --s-list=-0.5,0.5",
    "zeta_riesz_ramp": "zeta --f riesz-ramp --hbar 0.3 --s-list 1.5,2",
    "mean": "mean --f arctan --xmax 32",
    "heat_kernel": "heat-kernel --t 0.5 --range 4 --samples 81",
    "ktheory": "ktheory --m 0 --n 1 --hbar 0.3 --b 2",
}
CASES = [(name, fmt) for fmt in ("csv", "json") for name in EXAMPLES]


@pytest.mark.parametrize("name, fmt", CASES, ids=[f"{n}-{f}" for n, f in CASES])
def test_readme_example_is_byte_identical(name, fmt, capsys):
    assert main(EXAMPLES[name].split() + ["--format", fmt]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.{fmt}").read_text()
