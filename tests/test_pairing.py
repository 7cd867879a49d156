import argparse
import json
import logging
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    sweep,
)
from nctorus.cli import _pair_rows
from nctorus import algebra, oscillator, pairing
from nctorus.pairing import GAP_FLOOR
from test_acceptance import STAIRCASE
from test_oscillator import _grid_terms, _reference_section, refined

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


@settings(database=None, deadline=None, derandomize=True, max_examples=20)
@given(arrays(np.float64, st.integers(1, 8), elements=st.floats(1e-4, 3.0)))
def test_graded_heat_trace_array_matches_scalar_bits(p03, ts):
    # one call on an array of t gives each scalar call's bits
    values = graded_heat_trace(p03, ts, n_modes=400)
    scalars = np.array([graded_heat_trace(p03, t, n_modes=400) for t in ts])
    assert values.shape == ts.shape
    assert np.array_equal(values.view(np.uint64), scalars.view(np.uint64))


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


@pytest.mark.parametrize("size", [250.7, 300.0, float("nan"), "300"])
def test_sizes_must_be_integers(size):
    # a float is neither truncated to another N nor reported as given
    e = rieffel_projection(1.3)
    for section in (HermiteBasis, ladder_matrices, lambda n: represent(e, n)):
        with pytest.raises(TypeError):
            section(size)
    with pytest.raises(TypeError):
        fedosov_index(e, basis_size=size)
    with pytest.raises(TypeError):
        index_pairing(e, basis_size=size)
    with pytest.raises(TypeError):
        index_pairing(e, basis_size=200, n_modes=size)
    with pytest.raises(TypeError):
        sweep([1.3], basis_size=size)
    with pytest.raises(TypeError):
        sweep([1.3], basis_size=200, n_modes=size)


def test_numpy_integer_sizes_are_reported_as_ints():
    report = index_pairing(rieffel_projection(1.3), basis_size=np.int64(200),
                           n_modes=np.int32(400))
    assert report == index_pairing(rieffel_projection(1.3), basis_size=200, n_modes=400)
    assert type(report.basis_size) is int and report.basis_size == 200


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
    # every integer is -floor(hbar), with gap at least 0.15 (smallest 0.1501),
    # from the two reflection-parity blocks of the localizer
    caplog.set_level(logging.DEBUG, logger="nctorus.pairing")
    for hbar in VERIFIED_POOL_200 if n == 200 else VERIFIED_POOL:
        caplog.clear()
        assert fedosov_index(rieffel_projection(hbar), basis_size=n) == -np.floor(hbar)
        (record,) = caplog.records
        fields = dict(re.findall(r"(\w+)=(\S+)", record.getMessage()))
        assert fields["blocks"] == "2", (n, hbar)
        assert float(fields["gap"]) >= 0.15, (n, hbar, fields["gap"])


def _spectrum(blocks):
    """The joint spectrum of the localizer's blocks, ascending."""
    return np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))


def _dense_localizer(section, kappa):
    """The whole localizer, cut to (2n - 1)^2, of an n-mode section S from
    ``ladder_matrices``: kappa D - diag(1, -1) (x) (1 - (S + S^H)).  The
    reference for the blocks of ``pairing._localizer``, whose S + S^H is
    2 herm(P e P)."""
    n = section.shape[0]
    _, _, _, dirac, _ = ladder_matrices(n)
    sym = np.eye(n) - (section + section.conj().T)
    return (kappa * dirac - np.kron(np.diag([1.0, -1.0]), sym))[:-1, :-1]


def _centred(e, centre):
    """e with every coefficient read at x + centre."""
    return AlgebraElement(e.hbar, {m: f.shift(-centre) for m, f in e.items()})


def _dense_weyl_blocks(e, n, centre):
    """A stand-in for ``_weyl_blocks`` in ``pairing._localizer`` of e on n modes: the
    blocks of S + S^H on the window centred at centre by the trapezoid rule on a
    4x-denser grid than the basis'.  It checks that it is handed the displacements
    of e's localizer element at that centre."""
    upper = _upper(e)
    expected = oscillator._element_displacements(upper, n, centre)

    def blocks(displacements, n_modes, step):
        assert n_modes == n
        assert all(np.array_equal(a, b) for a, b in zip(displacements, expected))
        halves = _reference_section(_grid_terms(upper, n, centre), refined(HermiteBasis(n)),
                                    parity_blocks=step == 2)
        return [half + half.conj().T for half in (halves if step == 2 else [halves])]

    return blocks


@pytest.mark.parametrize("n", [200, 300, 400, 500])
def test_localizer_is_unmoved_by_a_denser_grid(monkeypatch, n):
    # the closed-form section against a quadrature of its band-limited
    # integrand on a 4x-denser grid than the Nyquist one: the localizer's
    # spectrum moves by rounding only
    pool = [rieffel_projection(h) for h in (VERIFIED_POOL_200 if n == 200 else VERIFIED_POOL)]
    kappa = 1.0 / np.sqrt(n)
    evals = []
    for e in pool:
        blocks, _, _ = pairing._localizer(e, n, kappa)
        blocks = list(blocks)
        assert len(blocks) == 2, (n, e.hbar)
        evals.append(_spectrum(blocks))
    for e, closed in zip(pool, evals):
        monkeypatch.setattr(pairing, "_weyl_blocks",
                            _dense_weyl_blocks(e, n, pairing._reflection_centre(e)))
        dense = _spectrum(pairing._localizer(e, n, kappa)[0])
        assert np.sign(closed).sum() == np.sign(dense).sum(), (n, e.hbar)
        assert np.abs(closed - dense).max() < 1e-12, (n, e.hbar)


def _upper(e):
    """The element whose S + S^H the localizer reads: e_0 + 2 sum_{m > 0} e_m [m]."""
    return AlgebraElement(e.hbar, {m: f if m == 0 else 2.0 * f for m, f in e.items() if m >= 0})


def _odd_degree_norm(e, n, centre):
    """The 2-norm of the odd degrees of S + S^H on the window centred at centre,
    the entries the parity split drops."""
    (herm,) = pairing._weyl_blocks(oscillator._element_displacements(_upper(e), n, centre), n)
    i, j = np.indices(herm.shape)
    return np.linalg.norm(np.where((i - j) % 2 == 1, herm, 0.0), 2)


@pytest.mark.parametrize("n", [200, 400])
def test_parity_blocks_match_the_whole_localizer_of_the_centred_element(n):
    # the bump is reflection symmetric about the centre of its degree-0
    # bump, so on the window centred there the localizer splits into two
    # parity blocks; the cross-parity entries dropped, the odd degrees of
    # S + S^H, have 2-norm at most the reported defect 2 sum |Im w|, so by
    # Weyl's inequality the spectra differ by at most the defect
    kappa = 1.0 / np.sqrt(n)
    for hbar in VERIFIED_POOL_200 if n == 200 else VERIFIED_POOL:
        e = rieffel_projection(hbar)
        blocks, centre, defect = pairing._localizer(e, n, kappa)
        blocks = list(blocks)
        frac = hbar - np.floor(hbar)
        assert abs(centre - (frac + min(frac, 1.0 - frac) / 3.0) / 2.0) < 1e-12
        assert len(blocks) == 2 and defect <= algebra.PROJECTION_TOL, (n, hbar, defect)
        assert [b.shape[0] for b in blocks] == [n - 1, n]
        section = represent(_centred(e, centre), n)
        whole = np.linalg.eigvalsh(_dense_localizer(section, kappa))
        diff = np.abs(_spectrum(blocks) - whole).max()
        assert diff < 1e-12, (n, hbar, diff)
        assert diff <= defect, (n, hbar, diff, defect)
        odd = _odd_degree_norm(e, n, centre)
        assert odd <= defect, (n, hbar, odd, defect)
    if n == 200:
        # the bound holds off the split as well: U e U*, whose defect sends
        # it to the whole localizer
        for hbar in (0.3, 1.3):
            e = _conjugated_bump(hbar)
            _, centre, defect = pairing._localizer(e, n, kappa)
            odd = _odd_degree_norm(e, n, centre)
            assert odd <= defect, (hbar, odd, defect)


def _perturbed_bump(hbar):
    """The bump with 1e-6 e^{2 pi i x} added to its degree +1 coefficient,
    a degree the localizer reads."""
    e = rieffel_projection(hbar)
    coeffs = dict(e.items())
    wave = PeriodicFunction.from_callable(lambda x: 1e-6 * np.exp(2j * np.pi * x),
                                          e.n_samples)
    coeffs[1] = coeffs[1] + wave
    return AlgebraElement(hbar, coeffs)


def _conjugated_bump(hbar):
    u = AlgebraElement.circle_generator(hbar)
    return multiply(multiply(u, rieffel_projection(hbar)), adjoint(u))


@pytest.mark.parametrize("element", [_conjugated_bump, _perturbed_bump])
@pytest.mark.parametrize("hbar", [0.3, 1.3])
def test_parity_fallback_takes_the_whole_localizer(element, hbar):
    # without reflection symmetry the one block is the whole localizer on
    # the window centred at 0, its S + S^H written by the closed form as
    # one Hermitian block: within rounding of represent plus its adjoint.
    # The localizer reads the degrees m >= 0 of e (the perturbed bump is
    # not self-adjoint): S is the section of e_0 + 2 sum_{m > 0} e_m [m]
    n = 200
    kappa = 1.0 / np.sqrt(n)
    e = element(hbar)
    (block,), centre, defect = pairing._localizer(e, n, kappa)
    assert centre is not None and defect > algebra.PROJECTION_TOL
    whole = _dense_localizer(represent(_upper(e), n), kappa)
    assert block.dtype == whole.dtype
    assert np.abs(block - whole).max() < 1e-15
    evals, expected = np.linalg.eigvalsh(block), np.linalg.eigvalsh(whole)
    assert np.sign(evals).sum() == np.sign(expected).sum()
    assert abs(np.abs(evals).min() - np.abs(expected).min()) < 1e-14


def test_parity_path_logs_blocks_centre_and_defect(caplog):
    caplog.set_level(logging.DEBUG, logger="nctorus.pairing")
    for e, blocks in ((rieffel_projection(2.25), "2"), (_conjugated_bump(2.25), "1")):
        caplog.clear()
        assert fedosov_index(e, basis_size=300) == -2
        (record,) = caplog.records
        fields = dict(re.findall(r"(\w+)=(\S+)", record.getMessage()))
        assert fields["blocks"] == blocks
        # frac + eps = 0.25 + 0.25 / 3, halved
        assert abs(float(fields["centre"]) - 1.0 / 6.0) < 1e-6
        defect = float(fields["reflection_defect"])
        assert (defect <= algebra.PROJECTION_TOL) == (blocks == "2"), defect
        # 2 sum |Im w| over the displacement weights w of e_0 + 2 sum_{m>0}
        # e_m [m] on the window centred at c; the bump's are rounding only
        centre = pairing._reflection_centre(e)
        weights = oscillator._element_displacements(_upper(e), 300, centre)[1]
        expected = 2.0 * np.abs(weights.imag).sum()
        assert abs(defect - expected) <= 1e-5 * expected, (defect, expected)


def test_index_pairing_checks_the_projection_once():
    # chern_number and fedosov_index both check e, and chern_number and
    # character_degree2 both use its curvature products: the memoised
    # defect and products are each computed once (one cache miss) per call
    e = rieffel_projection(1.3)
    defect = algebra.projection_defect.cache_info()
    products = algebra._curvature_products.cache_info()
    index_pairing(e, basis_size=200, n_modes=400)
    assert algebra.projection_defect.cache_info().misses == defect.misses + 1
    assert algebra.projection_defect.cache_info().hits == defect.hits + 1
    assert algebra._curvature_products.cache_info().misses == products.misses + 1
    assert algebra._curvature_products.cache_info().hits == products.hits + 1


def test_index_pairing_calls_each_public_route_once(monkeypatch):
    # the names bench/tracing.py spans: each route's time lands in its own span
    calls = []
    routes = ("chern_number", "fedosov_index", "character_degree0", "character_degree2")
    for name in routes:
        def counted(*args, _name=name, _route=getattr(pairing, name), **kwargs):
            calls.append(_name)
            return _route(*args, **kwargs)

        monkeypatch.setattr(pairing, name, counted)
    index_pairing(rieffel_projection(1.3), basis_size=200, n_modes=400)
    # the operator route runs before the local formula's diagonals
    assert calls == list(routes)


def test_local_formula_refuses_a_mode_count_whose_tail_model_carries_the_limit(monkeypatch):
    # below 231 modes the tail model trace(e) e^{-2 N t} exceeds 1e-4 at
    # t = 0.02, and with a handful of modes its limit restates trace(e):
    # 5 modes read local_formula 5.0e-8 at hbar 0.3, against 1.2e-3 at 2000
    e = rieffel_projection(0.3)
    for n_modes in (1, 5, 230):
        with pytest.raises(ValueError, match="at least 231 diagonal modes"):
            character_degree0(e, n_modes)
    assert np.isfinite(character_degree0(e, 231))
    calls = []
    for name in ("chern_number", "fedosov_index", "character_degree0", "character_degree2"):
        monkeypatch.setattr(pairing, name, lambda *args, _name=name, **kwargs: calls.append(_name))
    for route in (lambda: index_pairing(e, basis_size=200, n_modes=230),
                  lambda: sweep([0.3], basis_size=200, n_modes=5)):
        with pytest.raises(ValueError, match="at least 231 diagonal modes"):
            route()
    assert calls == []


def test_index_pairing_transforms_only_what_it_reads(fft_calls):
    # coefficients are computed on first read: intermediate products that
    # are only multiplied on cost no FFT (110 when every product ran one)
    index_pairing(rieffel_projection(0.3), basis_size=300)
    assert len(fft_calls) <= 18


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


@pytest.mark.parametrize("conjugate, dtype, sizes", [
    (False, np.float64, [199, 200]),
    (True, np.complex128, [399]),
], ids=["False-float64", "True-complex128"])
def test_fedosov_takes_one_spectrum_of_the_localizer(monkeypatch, conjugate, dtype, sizes):
    # one eigvalsh per block: the bump's two parity blocks of sizes N - 1
    # and N, or the whole (2N - 1)^2 localizer of U e U*
    eigvalsh = np.linalg.eigvalsh
    seen = []

    def spy(a, *args, **kwargs):
        seen.append((a.dtype, a.shape[0]))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    e = rieffel_projection(1.3)
    if conjugate:
        u = AlgebraElement.circle_generator(1.3)
        e = multiply(multiply(u, e), adjoint(u))
    assert fedosov_index(e, basis_size=200) == -1
    assert seen == [(dtype, size) for size in sizes]


@pytest.mark.parametrize("n", [200, 400])
def test_nonnegative_degree_localizer_matches_full_section(n):
    # herm(P e P) from all degrees of the centred element against the parity
    # blocks of S + S^H from the degrees n >= 0
    kappa = 1.0 / np.sqrt(n)
    for hbar in (0.3, 2.6):
        e = rieffel_projection(hbar)
        blocks, centre, _ = pairing._localizer(e, n, kappa)
        blocks = list(blocks)
        assert len(blocks) == 2
        full = _dense_localizer(represent(_centred(e, centre), n), kappa)
        diff = np.abs(np.linalg.eigvalsh(full) - _spectrum(blocks)).max()
        assert diff < 1e-12, (n, hbar, diff)


def test_index_pairing_gap_failure_skips_the_diagonal_stream(monkeypatch):
    # hbar 1.2 at 200 modes has localizer gap 0.093 < GAP_FLOOR
    def stream(*args, **kwargs):
        raise AssertionError("the diagonal stream ran before the operator route")

    monkeypatch.setattr(pairing, "algebra_diagonals", stream)
    with pytest.raises(ValueError, match="gap"):
        index_pairing(rieffel_projection(1.2), basis_size=200)


# at N = 200 the localizer of each gives the wrong integer 1 with a gap of
# 0.139-0.168, above GAP_FLOOR (frac(hbar) is 0.1 from an integer)
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


def _peak_bytes(call):
    """The tracemalloc peak of one call, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_localizer_peak_allocation():
    # the operator route's working set: the two parity blocks of the section
    # (N^2 / 2 doubles) and one localizer block (about N^2) at a time, each
    # block diagonalized before the next is built; both blocks held at once
    # would add another N^2.  eigvalsh's copy of the block (another N^2, 2.5
    # N^2 in all) is allocated by LAPACK's wrapper, which tracemalloc does
    # not see
    for n in (500, 800):
        e = rieffel_projection(1.3)
        fedosov_index(e, n)  # the coefficients' cached FFT data
        peak = _peak_bytes(lambda: fedosov_index(e, n))
        assert peak < 1.5 * n * n * 8 + 2**20, (n, peak)



def test_localizer_peak_allocation_is_its_blocks_and_the_section():
    # holding both blocks of the localizer at N = 800, the working set is
    # the section's two parity blocks (N^2 / 2 doubles) and the two blocks
    # (about 2 N^2)
    n, e = 800, rieffel_projection(1.3)
    list(pairing._localizer(e, n, n ** -0.5)[0])
    peak = _peak_bytes(lambda: list(pairing._localizer(e, n, n ** -0.5)[0]))
    assert peak < 2.5 * n * n * 8 + 2**20

def test_character_degree0_peak_allocation():
    # Laguerre rows for the distinct y only, gathered and cast in row blocks
    e = rieffel_projection(1.3)
    character_degree0(e, 2000)
    assert _peak_bytes(lambda: character_degree0(e, 2000)) < 5 * 10**6
