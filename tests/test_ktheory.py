import itertools
import math
import tracemalloc

import numpy as np
import pytest

from nctorus import (
    KClass,
    gap_label_witness,
    in_gap_label_group,
    k_pairing,
    trace_value,
    twist,
)

SQRT2M1 = math.sqrt(2.0) - 1.0


def test_twist_identity():
    x = KClass(3, -2)
    assert twist(x, 0) == x


def test_twist_composition_exhaustive():
    for m, n, a, b in itertools.product(range(-5, 6), repeat=4):
        x = KClass(m, n)
        assert twist(twist(x, a), b) == twist(x, a + b)


def test_twist_generator_direction():
    # fixed by pairing compatibility: the projection class moves by -b units
    assert twist(KClass(0, 1), 1) == KClass(-1, 1)


def test_k_pairing_staircase():
    assert k_pairing(KClass(0, 1), 0.3, 0) == pytest.approx(0.0, abs=1e-12)
    assert k_pairing(KClass(0, 1), 1.3, 0) == pytest.approx(-1.0, abs=1e-12)
    assert k_pairing(KClass(0, 1), -0.4, 0) == pytest.approx(1.0, abs=1e-12)


def test_k_pairing_unit_class():
    for hbar in (0.3, 2.6, SQRT2M1):
        for b in (-3, 0, 4):
            assert k_pairing(KClass(1, 0), hbar, b) == pytest.approx(1.0, abs=1e-12)


def test_k_pairing_family_member():
    assert k_pairing(KClass(0, 1), 0.3, 2) == pytest.approx(-2.0, abs=1e-12)


@pytest.mark.parametrize("b", [0.3, 0.9, 1.0])
def test_twist_and_pairing_reject_non_integer_b(b):
    # int(b) would truncate: 0.9 to the identity twist, 0.3 to the b = 0 pairing
    with pytest.raises(TypeError):
        twist(KClass(0, 1), b)
    with pytest.raises(TypeError):
        k_pairing(KClass(0, 1), 0.3, b)


def test_twist_and_pairing_take_numpy_integers():
    x = KClass(2, -3)
    assert twist(x, np.int64(2)) == twist(x, 2) == KClass(8, -3)
    assert k_pairing(x, 0.3, np.int32(2)) == k_pairing(x, 0.3, 2)


def test_k_pairing_rejects_integer_parameter():
    with pytest.raises(ValueError):
        k_pairing(KClass(0, 1), 2.0, 0)


@pytest.mark.parametrize("hbar", [0.3, SQRT2M1])
def test_twist_pairing_compatibility_exhaustive(hbar):
    for m, n, b in itertools.product(range(-5, 6), repeat=3):
        x = KClass(m, n)
        lhs = k_pairing(twist(x, b), hbar, 0)
        rhs = k_pairing(x, hbar, b)
        assert abs(lhs - rhs) < 1e-9


def test_trace_value_and_membership():
    assert trace_value(KClass(0, 1), 0.3) == pytest.approx(0.3)
    assert in_gap_label_group(trace_value(KClass(0, 1), 0.3), 0.3)
    value = trace_value(KClass(2, -1), SQRT2M1)
    assert value == pytest.approx(3.0 - math.sqrt(2.0))
    # 3 - sqrt(2) = 2 + (-1)(sqrt(2) - 1): the witness in the basis (1, hbar)
    assert gap_label_witness(value, SQRT2M1) == (2, -1)


@pytest.mark.parametrize(
    "value, hbar, label",
    [(0.3, 0.3, (0, 1)), (2.0, 0.3, (2, 0)), (0.6, 0.3, (0, 2)), (0.5, 0.5, (0, 1))],
)
def test_gap_label_witness_is_the_smallest_label(value, hbar, label):
    # smallest |q| within the tolerance, q >= 0 on a tie (0.5 = 0 + 0.5 = 1 - 0.5)
    assert gap_label_witness(value, hbar) == label


def test_gap_label_rejects_outsider():
    assert not in_gap_label_group(0.5, SQRT2M1)


def _full_witness(value, hbar):
    """The whole |q| <= 10^6 search in one set of arrays, in the order 0, 1, -1, 2, ..."""
    q_max = 10**6
    qs = np.stack([np.arange(q_max + 1), -np.arange(q_max + 1)], axis=1).ravel()[1:]
    residual = value - qs * hbar
    ps = np.rint(residual)
    err = np.abs(residual - ps)
    k = int(np.argmax(err <= 1e-9))
    return (int(ps[k]), int(qs[k])) if err[k] <= 1e-9 else None


def test_gap_label_witness_matches_the_full_search():
    rng = np.random.default_rng(14)
    # labels in the first chunk, on and around the chunk edge 2^15, far out,
    # past the search bound, and values off the label group
    qs = [0, 7, -2**15 + 1, 2**15, -2**15, 2**15 + 1, 123457, -999999, 10**6, 10**6 + 3]
    cases = [(float(rng.integers(-5, 6)) + q * h, h)
             for q in qs for h in (SQRT2M1, float(rng.uniform(0.1, 3.0)))]
    cases += [(float(rng.uniform(-3.0, 3.0)), float(rng.uniform(0.1, 3.0))) for _ in range(6)]
    results = [gap_label_witness(v, h) for v, h in cases]
    assert results == [_full_witness(v, h) for v, h in cases]
    assert None in results and any(r is not None and abs(r[1]) > 2**15 for r in results)


def test_gap_label_witness_memory_stays_small():
    tracemalloc.start()
    try:
        assert gap_label_witness(0.5, SQRT2M1) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_trace_values_always_members(rng):
    for _ in range(20):
        x = KClass(int(rng.integers(-50, 51)), int(rng.integers(-50, 51)))
        assert in_gap_label_group(trace_value(x, SQRT2M1), SQRT2M1)


def test_kclass_requires_integers():
    with pytest.raises(TypeError):
        KClass(0.5, 1)


@pytest.mark.parametrize("hbar", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_hbar_raises(hbar):
    x = KClass(0, 1)
    for call in (lambda: k_pairing(x, hbar), lambda: trace_value(x, hbar),
                 lambda: gap_label_witness(0.3, hbar), lambda: in_gap_label_group(0.3, hbar)):
        with pytest.raises(ValueError, match="hbar must be finite"):
            call()
