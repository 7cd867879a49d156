import argparse
import json
import logging
import re

import numpy as np
import pytest

from nctorus import (
    AlgebraElement,
    HermiteBasis,
    PeriodicFunction,
    adjoint,
    character_degree0,
    character_degree2,
    chern_number,
    fedosov_index,
    graded_heat_trace,
    index_pairing,
    ladder_matrices,
    multiply,
    report_to_json_dict,
    represent,
    rieffel_projection,
)
from nctorus.cli import _pair_rows
from nctorus import algebra, oscillator, pairing
from nctorus.pairing import GAP_FLOOR
from test_acceptance import STAIRCASE

HBAR = 0.3


def test_degree0_of_unit():
    value = character_degree0(AlgebraElement.unit(HBAR), n_modes=400)
    assert abs(value - 1.0) < 1e-3


def test_graded_heat_trace_of_unit_telescopes():
    # grading symmetry: the unit's graded heat sum collapses to e^{-t}
    one = AlgebraElement.unit(HBAR)
    for t in (0.02, 0.01, 0.005):
        assert abs(graded_heat_trace(one, t, n_modes=400) - np.exp(-t)) < 1e-10


def test_graded_heat_trace_matches_generating_function(p03):
    # sum_n L_n(y) r^n = e^{-y r/(1-r)} / (1-r) sums the mode series exactly:
    # theta(t) = d_0 (e^{-t} - 1) + sum_{m,k} C_k e^{-y/2 - y r/(1-r)}, with
    # r = e^{-2t}, C_k = c_k e^{i pi k m hbar}, y = ((m hbar)^2 + 4 pi^2 k^2)/2
    t = 0.02
    r = np.exp(-2.0 * t)
    d0 = series = 0j
    for m, f in p03.items():
        shift = m * p03.hbar
        k = f.modes
        y = 0.5 * (shift ** 2 + 4.0 * np.pi ** 2 * k ** 2)
        phased = f.coefficients * np.exp(1j * np.pi * k * shift)
        d0 += (phased * np.exp(-0.5 * y)).sum()
        series += (phased * np.exp(-0.5 * y - y * r / (1.0 - r))).sum()
    closed = d0 * (np.exp(-t) - 1.0) + series
    assert abs(graded_heat_trace(p03, t) - closed) < 1e-11


def test_degree0_of_nonzero_degree(p03):
    part = AlgebraElement(HBAR, {1: p03.coefficient(1)})
    value = character_degree0(part, n_modes=1600)
    assert abs(value) < 1e-3


def test_degree0_of_projection(p03):
    value = character_degree0(p03, n_modes=1600)
    assert abs(value - HBAR) < 5e-3


def test_degree2_kills_unit_slot(p03):
    one = AlgebraElement.unit(HBAR, p03.n_samples)
    assert abs(character_degree2(p03, one, p03)) < 1e-12


def test_degree2_projection_identity(p03):
    half = p03 - 0.5 * AlgebraElement.unit(HBAR, p03.n_samples)
    value = character_degree2(half, p03, p03)
    assert abs(value - HBAR * chern_number(p03)) < 1e-6
    assert abs(value - HBAR) < 1e-6


def test_degree2_vanishes_at_classical_point():
    f = PeriodicFunction.from_callable(lambda x: np.sin(2 * np.pi * x) + 2.0)
    a = AlgebraElement(0.0, {0: f})
    assert character_degree2(a, a, a) == 0.0


def test_fedosov_unit_and_telescoping_oracle():
    # analytic oracle for the trivial class: the order-two trace difference
    # telescopes to sum (2n+1)^{-2} - sum (2n+3)^{-2} = 1 at infinite size
    n = np.arange(5000)
    oracle = (1.0 / (2 * n + 1.0) ** 2).sum() - (1.0 / (2 * n + 3.0) ** 2).sum()
    assert abs(oracle - 1.0) < 1e-3
    value = fedosov_index(AlgebraElement.unit(HBAR), basis_size=200)
    assert value == 1.0


def test_fedosov_projection_small_basis(p03):
    assert fedosov_index(p03, basis_size=320) == 0.0


def test_fedosov_branch(p03):
    assert fedosov_index(rieffel_projection(1.3), basis_size=320) == -1.0


def test_fedosov_rejects_basis_too_small(p03):
    with pytest.raises(ValueError):
        fedosov_index(p03, basis_size=100)


def test_fedosov_rejects_non_projection():
    f = PeriodicFunction.from_callable(lambda x: 0.5 + 0.4 * np.cos(2 * np.pi * x))
    a = AlgebraElement(HBAR, {0: f})
    with pytest.raises(ValueError, match="not"):
        fedosov_index(a, basis_size=200)


@pytest.mark.parametrize("hbar, basis_size, expected", [
    (-0.75, 400, 1),
    (1.8, 400, -1),
    (2.75, 400, -2),
    (0.45, 200, 0),
    (0.7, 200, 0),
    (2.25, 200, -2),
])
def test_fedosov_staircase_off_the_verified_pools(hbar, basis_size, expected):
    assert fedosov_index(rieffel_projection(hbar), basis_size=basis_size) == expected


@pytest.mark.parametrize("hbar", [5.21, 9.78, 14.71])
def test_fedosov_large_hbar_small_basis_raises(hbar):
    # the localizer gap closes: no integer is certified at 200 modes
    with pytest.raises(ValueError, match="gap"):
        fedosov_index(rieffel_projection(hbar), basis_size=200)


def test_fedosov_staircase_gap_margin(caplog):
    caplog.set_level(logging.DEBUG, logger="nctorus.pairing")
    for hbar, expected in STAIRCASE:
        caplog.clear()
        assert fedosov_index(rieffel_projection(hbar), basis_size=400) == expected
        (record,) = caplog.records
        gap = float(re.search(r"gap=(\S+)", record.getMessage()).group(1))
        assert gap >= 1.5 * GAP_FLOOR, (hbar, gap)


# the verified pools of the module docstring's measured margins
VERIFIED_POOL = (-0.6, -0.4, -0.25, 0.3, 0.45, 0.55, 0.7, 1.2, 1.3, 1.45, 1.65, 2.25,
                 2.4, 2.6)
VERIFIED_POOL_200 = (-0.6, -0.4, -0.25, 0.3, 0.55, 1.3, 1.45, 1.65, 2.4, 2.6)


@pytest.mark.parametrize("n", [200, 300, 400, 500])
def test_verified_pool_margins(caplog, n):
    # every integer is -floor(hbar), with gap at least 0.15 (smallest 0.1504)
    caplog.set_level(logging.DEBUG, logger="nctorus.pairing")
    for hbar in VERIFIED_POOL_200 if n == 200 else VERIFIED_POOL:
        caplog.clear()
        assert fedosov_index(rieffel_projection(hbar), basis_size=n) == -np.floor(hbar)
        (record,) = caplog.records
        gap = float(re.search(r"gap=(\S+)", record.getMessage()).group(1))
        assert gap >= 0.15, (n, hbar, gap)


def test_real_localizer_runs_one_hermite_recurrence(monkeypatch):
    hermite_rows = oscillator.hermite_rows
    calls = []

    def counted(n_modes, x):
        calls.append(n_modes)
        return hermite_rows(n_modes, x)

    monkeypatch.setattr(oscillator, "hermite_rows", counted)
    assert fedosov_index(rieffel_projection(1.3), basis_size=200) == -1
    assert calls == [200]


def test_index_pairing_checks_the_projection_once(monkeypatch):
    require = pairing._require_projection
    calls = []

    def counted(e):
        calls.append(e)
        return require(e)

    monkeypatch.setattr(pairing, "_require_projection", counted)
    monkeypatch.setattr(algebra, "_require_projection", counted)
    index_pairing(rieffel_projection(1.3), basis_size=200, n_modes=400)
    assert len(calls) == 1


@pytest.mark.parametrize("hbar", [0.3, -0.4, 2.6])
def test_index_pairing_shares_products_bit_identically(hbar):
    # the shared curvature products give the public functions' bits
    e = rieffel_projection(hbar)
    report = index_pairing(e, basis_size=200, n_modes=400)
    half = e - 0.5 * AlgebraElement.unit(hbar, e.n_samples)
    closed = algebra.trace(e) - hbar * chern_number(e)
    local = character_degree0(e, n_modes=400) - character_degree2(half, e, e)
    assert report.closed_form == float(closed.real)
    assert report.local_formula == float(local.real)


def _logged_spectrum(caplog, e):
    caplog.clear()
    value = fedosov_index(e, basis_size=400)
    (record,) = caplog.records
    message = record.getMessage()
    fields = dict(re.findall(r"(\w+)=(\S+)", message))
    return value, fields["spectrum"], float(fields["gap"])


@pytest.mark.parametrize("hbar, expected", [(0.3, 0), (1.3, -1), (2.4, -2)])
def test_fedosov_invariant_under_unitary_conjugation(caplog, hbar, expected):
    # U e U* has complex degree +-1 coefficients, so its localizer is
    # complex Hermitian; the bump projection's is real symmetric
    caplog.set_level(logging.DEBUG, logger="nctorus.pairing")
    e = rieffel_projection(hbar)
    u = AlgebraElement.circle_generator(hbar)
    conjugated = multiply(multiply(u, e), adjoint(u))
    value, spectrum, gap = _logged_spectrum(caplog, e)
    assert (value, spectrum) == (expected, "real")
    assert gap >= GAP_FLOOR
    value, spectrum, gap = _logged_spectrum(caplog, conjugated)
    assert (value, spectrum) == (expected, "hermitian")
    assert gap >= GAP_FLOOR


@pytest.mark.parametrize("conjugate, dtype", [(False, np.float64), (True, np.complex128)])
def test_fedosov_takes_one_spectrum_of_the_localizer(monkeypatch, conjugate, dtype):
    eigvalsh = np.linalg.eigvalsh
    seen = []

    def spy(a, *args, **kwargs):
        seen.append(a.dtype)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    e = rieffel_projection(1.3)
    if conjugate:
        u = AlgebraElement.circle_generator(1.3)
        e = multiply(multiply(u, e), adjoint(u))
    assert fedosov_index(e, basis_size=200) == -1
    assert seen == [dtype]


@pytest.mark.parametrize("n", [200, 400])
def test_nonnegative_degree_localizer_matches_full_section(n):
    # herm(P e P) from all degrees against S + S^H from the degrees n >= 0
    kappa = 1.0 / np.sqrt(n)
    basis = HermiteBasis(n)
    _, _, _, dirac, _ = ladder_matrices(basis)
    for hbar in (0.3, 2.6):
        e = rieffel_projection(hbar)
        rep = represent(e, basis)
        sym = np.eye(n) - (rep + rep.conj().T)
        full = (kappa * dirac - np.kron(np.diag([1.0, -1.0]), sym))[:-1, :-1]
        reduced = pairing._localizer(e, n, kappa)
        diff = np.abs(np.linalg.eigvalsh(full) - np.linalg.eigvalsh(reduced)).max()
        assert diff < 1e-12, (n, hbar, diff)


def test_index_pairing_gap_failure_skips_the_diagonal_stream(monkeypatch):
    # hbar 1.2 at 200 modes has localizer gap 0.093 < GAP_FLOOR
    def stream(*args, **kwargs):
        raise AssertionError("the diagonal stream ran before the operator route")

    monkeypatch.setattr(pairing, "algebra_diagonals", stream)
    with pytest.raises(ValueError, match="gap"):
        index_pairing(rieffel_projection(1.2), basis_size=200)


# at N = 200 the localizer of each gives the wrong integer 1 with a gap of
# 0.139-0.167, above GAP_FLOOR (frac(hbar) is 0.1 from an integer)
NEAR_INTEGER_FRAC_200 = [0.9, 1.9, 2.9, -1.1, -2.1]


@pytest.mark.parametrize("hbar", NEAR_INTEGER_FRAC_200)
def test_index_pairing_refuses_a_contradicted_integer(hbar):
    with pytest.raises(ValueError, match="contradicts the closed form") as raised:
        index_pairing(rieffel_projection(hbar), basis_size=200)
    numbers = [float(v) for v in re.findall(r"-?\d+\.?\d*(?:e-?\d+)?", str(raised.value))]
    operator, closed, local = numbers[0], numbers[2], numbers[3]
    assert operator == 1.0
    assert abs(closed + np.floor(hbar)) < 1e-9
    assert abs(local + np.floor(hbar)) < 1e-5


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="near integer frac(hbar) the 200-mode localizer certifies a "
                          "wrong integer; only index_pairing's cross-check catches it")
@pytest.mark.parametrize("hbar", NEAR_INTEGER_FRAC_200)
def test_fedosov_index_near_integer_frac_at_200_modes(hbar):
    assert fedosov_index(rieffel_projection(hbar), basis_size=200) == -np.floor(hbar)


def test_index_pairing_unit():
    report = index_pairing(
        AlgebraElement.unit(HBAR), basis_size=200, n_modes=400
    )
    assert abs(report.closed_form - 1.0) < 1e-12
    assert abs(report.local_formula - 1.0) < 1e-3
    assert report.fedosov == 1.0
    assert report.rounded_integer == 1


def test_index_pairing_rejects_non_projection():
    f = PeriodicFunction.from_callable(lambda x: 0.5 + 0.4 * np.cos(2 * np.pi * x))
    with pytest.raises(ValueError, match="not a projection"):
        index_pairing(AlgebraElement(HBAR, {0: f}))


def test_closed_form_staircase_values():
    # trace(p) - hbar * c1(p) at the two branch examples
    p26 = rieffel_projection(2.6)
    closed = (0.6 - 2.6 * chern_number(p26)).real
    assert abs(closed - (-2.0)) < 1e-6
    pm04 = rieffel_projection(-0.4)
    closed = (0.6 + 0.4 * chern_number(pm04)).real
    assert abs(closed - 1.0) < 1e-6


def test_report_emission(p03, capsys):
    report = index_pairing(p03, basis_size=200, n_modes=400)
    args = argparse.Namespace(fmt="csv", output=None)
    _pair_rows(args, [report])
    csv_text = capsys.readouterr().out
    lines = csv_text.strip().split("\n")
    assert lines[0] == "hbar,closed_form,local_formula,fedosov,integer"
    cells = lines[1].split(",")
    assert cells[0] == "0.3"
    assert int(cells[4]) == report.rounded_integer
    payload = json.dumps(report_to_json_dict(report))
    back = json.loads(payload)
    assert back["integer"] == report.rounded_integer
    _pair_rows(args, [report])
    assert capsys.readouterr().out == csv_text  # deterministic
