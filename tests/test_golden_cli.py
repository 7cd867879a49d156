"""Byte-exact golden outputs of the README command-line examples.

Each case runs ``nctorus.cli.main`` in-process and compares its stdout with
a file under ``tests/golden/``.  All eight README examples are pinned in
CSV and in JSON; the JSON of ``pair`` and ``sweep`` prints every digit of
the three routes, closed form, local formula and operator index.

The ``zeta_one`` and ``zeta_fourier`` goldens were re-captured when the
diagonals of periodic weights became closed-form (Laguerre) instead of a
quadrature stream: their values moved in the 12th-13th digits onto the
exact ones, pi^2/8 for ``zeta_one`` and a 40-digit mpmath sum for
``zeta_fourier``, which ``tests/test_heatzeta.py`` pins within 1e-14
relative.  Every other golden was unchanged.

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
    "mean": "mean --f arctan --xmax 32",
    "heat_kernel": "heat-kernel --t 0.5 --range 4 --samples 81",
    "ktheory": "ktheory --m 0 --n 1 --hbar 0.3 --b 2",
}
CASES = [(name, fmt) for fmt in ("csv", "json") for name in EXAMPLES]


@pytest.mark.parametrize("name, fmt", CASES, ids=[f"{n}-{f}" for n, f in CASES])
def test_readme_example_is_byte_identical(name, fmt, capsys):
    assert main(EXAMPLES[name].split() + ["--format", fmt]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.{fmt}").read_text()
