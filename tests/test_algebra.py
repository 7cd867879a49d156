import json

import numpy as np
import pytest

from nctorus import (
    AlgebraElement,
    PeriodicFunction,
    adjoint,
    chern_number,
    cyclic_cocycle,
    delta1,
    delta2,
    fedosov_index,
    from_json_dict,
    ladder_commutators,
    multiply,
    projection_defect,
    rieffel_projection,
    sup_norm,
    to_json_dict,
    trace,
)
from nctorus.algebra import _trace_product
from nctorus.periodic import smooth_step

HBAR = 0.3


def random_smooth_element(rng, hbar=HBAR, degrees=(-2, -1, 0, 1, 2), n_samples=512):
    """Random element with low-bandwidth smooth coefficients."""
    x = np.arange(n_samples) / n_samples
    coeffs = {}
    for n in degrees:
        c = rng.normal(size=5) + 1j * rng.normal(size=5)
        values = (
            c[0]
            + c[1] * np.exp(2j * np.pi * x)
            + c[2] * np.exp(-2j * np.pi * x)
            + c[3] * np.exp(4j * np.pi * x)
            + c[4] * np.exp(-4j * np.pi * x)
        ) / 5.0
        coeffs[n] = PeriodicFunction(values)
    return AlgebraElement(hbar, coeffs)


def test_generator_commutation_phase():
    # operator-anchored orientation: V U = e^{-2 pi i hbar} U V for the
    # covariant pair (multiplication by e^{2 pi i x}, translation by hbar)
    u = AlgebraElement.circle_generator(HBAR, 512)
    v = AlgebraElement.shift_generator(HBAR, 512)
    lhs = multiply(v, u)
    rhs = np.exp(-2j * np.pi * HBAR) * multiply(u, v)
    assert sup_norm(lhs - rhs) < 1e-12


def test_degree_zero_product_untwisted():
    f = PeriodicFunction.from_callable(lambda x: np.exp(np.sin(2 * np.pi * x)), 512)
    g = PeriodicFunction.exponential(1, 512)
    a = AlgebraElement(HBAR, {0: f})
    b = AlgebraElement(HBAR, {0: g})
    prod = multiply(a, b)
    assert prod.support == (0,)
    assert (prod.coefficient(0) - f * g).sup_norm() < 1e-13


def test_inverse_pair():
    v = AlgebraElement.shift_generator(HBAR, 512)
    vin = adjoint(v)
    prod = multiply(v, vin)
    assert prod.support == (0,)
    assert (prod.coefficient(0) - PeriodicFunction.constant(1.0, 512)).sup_norm() < 1e-12


def test_trace_examples():
    one = AlgebraElement.unit(HBAR, 512)
    u = AlgebraElement.circle_generator(HBAR, 512)
    v = AlgebraElement.shift_generator(HBAR, 512)
    assert abs(trace(one) - 1.0) < 1e-15
    assert abs(trace(u)) < 1e-15
    assert abs(trace(v)) < 1e-15


def test_delta2_orientation():
    # delta2(f[3]) = -6 pi i f[3]; the sign is the gauge orientation chosen
    # so the bump projection has Chern number +1
    f = PeriodicFunction.exponential(1, 512)
    a = AlgebraElement(HBAR, {3: f})
    d = delta2(a)
    assert (d.coefficient(3) - f * (-6j * np.pi)).sup_norm() < 1e-12


def test_adjoint_rule_and_involution(rng):
    a = random_smooth_element(rng)
    g = a.coefficient(1)
    star = adjoint(AlgebraElement(HBAR, {1: g}))
    assert star.support == (-1,)
    expected = g.shift(-HBAR).conjugate()
    assert (star.coefficient(-1) - expected).sup_norm() < 1e-12
    assert sup_norm(adjoint(adjoint(a)) - a) < 1e-11


def test_associativity(rng):
    a, b, c = (random_smooth_element(rng) for _ in range(3))
    lhs = multiply(multiply(a, b), c)
    rhs = multiply(a, multiply(b, c))
    assert sup_norm(lhs - rhs) < 1e-10


def test_trace_property(rng):
    a, b = (random_smooth_element(rng) for _ in range(2))
    assert abs(trace(multiply(a, b)) - trace(multiply(b, a))) < 1e-10


def test_leibniz(rng):
    a, b = (random_smooth_element(rng) for _ in range(2))
    for der in (delta1, delta2):
        lhs = der(multiply(a, b))
        rhs = multiply(der(a), b) + multiply(a, der(b))
        assert sup_norm(lhs - rhs) < 1e-10


def test_coefficients_are_periodic_functions_on_one_grid():
    with pytest.raises(TypeError, match="coefficients must be PeriodicFunction values"):
        AlgebraElement(HBAR, {0: np.ones(512)})
    with pytest.raises(ValueError, match="all coefficients must share one sample grid"):
        AlgebraElement(HBAR, {0: PeriodicFunction.constant(1.0, 512),
                              1: PeriodicFunction.constant(1.0, 256)})


def test_hbar_mismatch_rejected(rng):
    a = random_smooth_element(rng, hbar=0.3)
    b = random_smooth_element(rng, hbar=0.4)
    with pytest.raises(ValueError):
        multiply(a, b)


@pytest.mark.parametrize("hbar", [0.3, 0.7])
def test_rieffel_projection_identities(hbar):
    p = rieffel_projection(hbar)
    d_idem, d_adj = projection_defect(p)
    assert d_idem <= 1e-10
    assert d_adj <= 1e-10
    frac = hbar - np.floor(hbar)
    assert abs(trace(p) - frac) < 1e-10
    c1 = chern_number(p)
    assert abs(c1 - 1.0) < 1e-6
    assert abs(c1.imag) < 1e-8


def test_rieffel_degree_two_vanishes(p03):
    # the two bump supports are disjoint mod 1, so the squared shift term dies;
    # on the default grid the interpolant tail leaves ~1.4e-12 of ringing,
    # one grid doubling puts it below 1e-12
    g_part = AlgebraElement(0.3, {1: p03.coefficient(1)})
    assert multiply(g_part, g_part).coefficient(2).sup_norm() < 2e-12
    fine = rieffel_projection(0.3, n_samples=4096)
    g_fine = AlgebraElement(0.3, {1: fine.coefficient(1)})
    assert multiply(g_fine, g_fine).coefficient(2).sup_norm() < 1e-12


def test_rieffel_branch_uses_fraction(p03):
    p13 = rieffel_projection(1.3)
    assert p13.hbar == 1.3
    for n in (-1, 0, 1):
        assert (p13.coefficient(n) - p03.coefficient(n)).sup_norm() < 1e-9


def _piecewise_rieffel_coefficients(hbar, n_samples):
    """The bump's coefficients of degree 0, 1 and -1, built piece by piece on
    masks of the grid, with the conjugate shift of g written out."""
    frac = hbar - np.floor(hbar)
    eps = min(frac, 1.0 - frac) / 3.0
    x = np.arange(n_samples) / n_samples
    f = np.zeros(n_samples)
    up = (x >= 0.0) & (x < eps)
    f[up] = smooth_step(x[up] / eps)
    f[(x >= eps) & (x <= frac)] = 1.0
    down = (x > frac) & (x < frac + eps)
    f[down] = 1.0 - smooth_step((x[down] - frac) / eps)
    w = np.clip(f - f * f, 0.0, None)
    g = PeriodicFunction(np.where((x >= frac) & (x <= frac + eps), np.sqrt(w), 0.0))
    return PeriodicFunction(f), g, g.shift(-hbar).conjugate()


_RIEFFEL_POOL = [0.0011, 0.3, 1.0 / 3.0, 0.5, 0.7, 0.9989, 1.3, -2.45, 14.875,
                 *np.random.default_rng(3001).uniform(-3.0, 15.0, 9)]


@pytest.mark.parametrize("n_samples", [256, 2048, 8192])
def test_rieffel_projection_matches_the_piecewise_construction(n_samples):
    # the bump's closed-form ramps and its adjoint-built degree -1 give the
    # piecewise construction's samples bit for bit
    for hbar in _RIEFFEL_POOL:
        p = rieffel_projection(hbar, n_samples)
        assert p.support == (-1, 0, 1)
        for n, ref in zip((0, 1, -1), _piecewise_rieffel_coefficients(hbar, n_samples)):
            assert np.array_equal(p.coefficient(n).samples, ref.samples), (hbar, n)


@pytest.mark.parametrize("hbar", [1.0, 0.0, -2.0, 0.99995])
def test_rieffel_rejects_near_integer(hbar):
    with pytest.raises(ValueError, match="no Rieffel representative"):
        rieffel_projection(hbar)


@pytest.mark.parametrize("hbar", [np.nan, np.inf, -np.inf])
def test_rieffel_rejects_non_finite(hbar):
    with pytest.raises(ValueError, match="hbar must be finite"):
        rieffel_projection(hbar)


def test_chern_number_rejects_non_projection(rng):
    a = random_smooth_element(rng)
    with pytest.raises(ValueError, match="not a projection"):
        chern_number(a)


def test_nan_defects_are_not_a_projection():
    # nan > PROJECTION_TOL is False, so the check must ask for d <= PROJECTION_TOL
    nan = AlgebraElement(HBAR, {0: PeriodicFunction(np.full(512, np.nan))})
    assert np.isnan(projection_defect(nan)).all()
    for call in (chern_number, fedosov_index):
        with pytest.raises(ValueError, match="not a projection"):
            call(nan)


def test_chern_number_of_unit():
    one = AlgebraElement.unit(HBAR, 512)
    assert abs(chern_number(one)) < 1e-14


def test_cyclic_cocycle_kills_unit_slot(rng):
    a0, a2 = (random_smooth_element(rng) for _ in range(2))
    one = AlgebraElement.unit(HBAR, 512)
    assert abs(cyclic_cocycle(a0, one, a2)) < 1e-12


def test_cyclic_cocycle_vs_chern(p03):
    value = cyclic_cocycle(p03, p03, p03)
    assert abs(value - 2j * np.pi * chern_number(p03)) < 1e-6


def test_trace_product_matches_the_full_product(rng, p03):
    # degree-0 terms summed in multiply's order: the same bits as trace(a b)
    a, b = (random_smooth_element(rng, n_samples=2048) for _ in range(2))
    disjoint = AlgebraElement(HBAR, {3: a.coefficient(1)})
    for x, y in ((a, b), (b, a), (p03, p03), (a, disjoint)):
        assert _trace_product(x, y) == trace(multiply(x, y))
    # the Chern number is the cocycle on (e, e, e): two traces, one per product
    d1, d2 = delta1(p03), delta2(p03)
    assert chern_number(p03) == (trace(multiply(p03, multiply(d1, d2)))
                                 - trace(multiply(p03, multiply(d2, d1)))) / (2j * np.pi)
    assert cyclic_cocycle(a, b, p03) == (
        trace(multiply(a, multiply(delta1(b), delta2(p03))))
        - trace(multiply(a, multiply(delta2(b), delta1(p03)))))


def test_cyclic_cocycle_half_unit_invariance(p03):
    shifted = p03 - 0.5 * AlgebraElement.unit(0.3, p03.n_samples)
    assert abs(cyclic_cocycle(shifted, p03, p03) - cyclic_cocycle(p03, p03, p03)) < 1e-8


def test_cyclic_cocycle_cyclicity(rng):
    a0, a1, a2 = (random_smooth_element(rng) for _ in range(3))
    assert abs(cyclic_cocycle(a0, a1, a2) - cyclic_cocycle(a2, a0, a1)) < 1e-8


def test_ladder_commutators_multiplication():
    f = PeriodicFunction.from_callable(lambda x: np.exp(np.sin(2 * np.pi * x)), 512)
    a = AlgebraElement(HBAR, {0: f})
    plus, minus = ladder_commutators(a)
    assert (plus.coefficient(0) - f.derivative()).sup_norm() < 1e-11
    assert (minus.coefficient(0) + f.derivative()).sup_norm() < 1e-11


def test_ladder_commutators_translation():
    v = AlgebraElement.shift_generator(HBAR, 512)
    plus, minus = ladder_commutators(v)
    expected = v.coefficient(1) * HBAR
    assert (plus.coefficient(1) - expected).sup_norm() < 1e-12
    assert (minus.coefficient(1) - expected).sup_norm() < 1e-12


def test_ladder_commutators_unit():
    one = AlgebraElement.unit(HBAR, 512)
    plus, minus = ladder_commutators(one)
    assert sup_norm(plus) < 1e-14
    assert sup_norm(minus) < 1e-14


def test_json_roundtrip(p03):
    payload = json.dumps(to_json_dict(p03))
    back = from_json_dict(json.loads(payload))
    assert back.hbar == p03.hbar
    assert back.support == p03.support
    assert sup_norm(back - p03) < 1e-15
