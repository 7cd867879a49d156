"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines also on success).  Criterion 5 is asserted literally and
is expected to fail: the off-diagonal zeta values near s = 1 are of order
one, so (s - 1) * value at s = 1.01 is around 1e-2 for the probed shifts,
far above the stated thresholds; the absence of a pole is established
instead by the extrapolation companion check that follows it.
"""

import math
import time

import numpy as np
import pytest

from nctorus import (
    ONE,
    AlgebraElement,
    KClass,
    PeriodicFunction,
    RealLineFunction,
    chern_number,
    dixmier_limit,
    entire_check,
    fedosov_index,
    heat_trace,
    in_gap_label_group,
    index_pairing,
    k_pairing,
    mehler_eigen_sum,
    mehler_kernel,
    projection_defect,
    residue_by_extrapolation,
    rieffel_projection,
    trace,
    twist,
    zeta_trace,
)

SQRT2M1 = math.sqrt(2.0) - 1.0
SUITE_HBARS = (0.2, 0.3, 0.5, 0.7, SQRT2M1)
STAIRCASE = ((-0.4, 1), (0.3, 0), (0.7, 0), (1.3, -1), (2.6, -2))


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def test_criterion_1_rieffel_projection_suite():
    start = time.monotonic()
    worst_defect = worst_trace = worst_chern = 0.0
    for hbar in SUITE_HBARS:
        p = rieffel_projection(hbar)
        d_idem, _ = projection_defect(p)
        frac = hbar - math.floor(hbar)
        worst_defect = max(worst_defect, d_idem)
        worst_trace = max(worst_trace, abs(trace(p) - frac))
        worst_chern = max(worst_chern, abs(chern_number(p) - 1.0))
    elapsed = time.monotonic() - start
    ok = worst_defect <= 1e-10 and worst_trace <= 1e-10 and worst_chern <= 1e-6
    report(
        1,
        ok and elapsed <= 5.0,
        f"defect {worst_defect:.2e} (<=1e-10), trace {worst_trace:.2e} (<=1e-10), "
        f"chern {worst_chern:.2e} (<=1e-6), {elapsed:.1f}s (<=5s)",
    )
    assert worst_defect <= 1e-10
    assert worst_trace <= 1e-10
    assert worst_chern <= 1e-6
    assert elapsed <= 5.0


def test_criterion_2_mehler_verification():
    start = time.monotonic()
    xs = np.linspace(-4.0, 4.0, 17)
    gx, gy = np.meshgrid(xs, xs)
    worst_kernel = 0.0
    for t in (0.2, 0.5, 1.0):
        series = mehler_eigen_sum(t, gx, gy)
        closed = mehler_kernel(t, gx, gy)
        worst_kernel = max(worst_kernel, float(np.abs(series - closed).max()))
    worst_trace = max(
        abs(heat_trace(t) - 1.0 / (2.0 * math.sinh(t))) for t in (0.1, 1.0, 3.0)
    )
    elapsed = time.monotonic() - start
    ok = worst_kernel <= 1e-8 and worst_trace <= 1e-10 and elapsed <= 10.0
    report(
        2,
        ok,
        f"kernel sup {worst_kernel:.2e} (<=1e-8), trace {worst_trace:.2e} "
        f"(<=1e-10), {elapsed:.1f}s (<=10s)",
    )
    assert worst_kernel <= 1e-8
    assert worst_trace <= 1e-10
    assert elapsed <= 10.0


def test_criterion_3_residue_theorem():
    start = time.monotonic()
    bump = rieffel_projection(0.3).coefficient(0)
    weights = {
        "one": (ONE, 0.5),
        "one_plus_cos": (
            RealLineFunction.periodic_fn(
                lambda x: 1.0 + np.cos(2 * np.pi * np.asarray(x)), 1.0
            ),
            0.5,
        ),
        "bump": (
            RealLineFunction.periodic_fn(PeriodicFunction(bump.samples.real), 1.0),
            0.15,
        ),
        "cos": (
            RealLineFunction.periodic_fn(
                lambda x: np.cos(2 * np.pi * np.asarray(x)), 1.0
            ),
            0.0,
        ),
    }
    failures = []
    details = []
    for name, (f, target) in weights.items():
        res = residue_by_extrapolation(f).real
        details.append(f"{name}:{res - target:+.1e}")
        if abs(res - target) > 1e-3:
            failures.append(name)
    elapsed = time.monotonic() - start
    ok = not failures and elapsed <= 60.0
    report(3, ok, f"extrapolated residues {' '.join(details)} (<=1e-3), "
                  f"{elapsed:.1f}s (<=60s)")
    assert not failures
    assert elapsed <= 60.0


def test_criterion_4_dixmier_agreement():
    start = time.monotonic()
    cases = {
        "one": (ONE, 0.5),
        "one_plus_cos": (
            RealLineFunction.periodic_fn(
                lambda x: 1.0 + np.cos(2 * np.pi * np.asarray(x)), 1.0
            ),
            0.5,
        ),
        "arctan": (
            RealLineFunction.with_limits(np.arctan, -np.pi / 2, np.pi / 2),
            0.0,
        ),
    }
    errors = {
        name: abs(dixmier_limit(f) - target) for name, (f, target) in cases.items()
    }
    elapsed = time.monotonic() - start
    ok = all(v <= 1e-3 for v in errors.values()) and elapsed <= 30.0
    report(
        4,
        ok,
        " ".join(f"{k}:{v:.1e}" for k, v in errors.items())
        + f" (<=1e-3), {elapsed:.1f}s (<=30s)",
    )
    assert all(v <= 1e-3 for v in errors.values())
    assert elapsed <= 30.0


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: the off-diagonal zeta is entire but of "
    "order one near s = 1, so (s-1)*value at s = 1.01 measures ~2e-2 "
    "(shift 0.3) and ~8e-3 (shift 1), above the 1e-3 threshold; the "
    "companion test establishes the vanishing residue by the Mellin value at s = 1",
)
def test_criterion_5_entire_offdiagonal_literal():
    values = {}
    for alpha in (0.3, 1.0):
        ev = zeta_trace(ONE, alpha, 1.01)
        values[alpha] = abs((1.01 - 1.0) * ev.value)
    ok = all(v <= 1e-3 for v in values.values())
    report(
        5,
        ok,
        "literal |(s-1) value| at s=1.01: "
        + " ".join(f"alpha={a}:{v:.2e}" for a, v in values.items())
        + " (<=1e-3 required; see ledger and companion 5b)",
    )
    assert all(v <= 1e-3 for v in values.values())


def test_criterion_5_companion_extrapolated_residue():
    start = time.monotonic()
    results = {}
    for alpha in (0.3, 1.0):
        rep = entire_check(ONE, alpha)
        results[alpha] = (rep.residue_extrapolated, rep.passed)
    elapsed = time.monotonic() - start
    ok = all(p and abs(r) <= 1e-3 for r, p in results.values()) and elapsed <= 30.0
    report(
        "5b",
        ok,
        "residues by the Mellin value at s = 1 "
        + " ".join(f"alpha={a}:{r:+.1e}" for a, (r, _) in results.items())
        + f" (<=1e-3), {elapsed:.1f}s (<=30s)",
    )
    assert all(p for _, p in results.values())
    assert all(abs(r) <= 1e-3 for r, _ in results.values())
    assert elapsed <= 30.0


def test_criterion_6_index_staircase():
    start = time.monotonic()
    rows = []
    stable = True
    for hbar, expected in STAIRCASE:
        p = rieffel_projection(hbar)
        rep = index_pairing(p, basis_size=400)
        rows.append((hbar, expected, rep))
        assert abs(rep.fedosov - expected) <= 2e-2, (hbar, rep.fedosov)
        assert abs(rep.closed_form - expected) <= 1e-6, (hbar, rep.closed_form)
        assert abs(rep.local_formula - expected) <= 2e-2, (hbar, rep.local_formula)
        for other_basis in (300, 500):
            value = fedosov_index(p, basis_size=other_basis)
            if round(value) != expected:
                stable = False
    elapsed = time.monotonic() - start
    detail = " ".join(
        f"h={h:+.1f}:[fed {r.fedosov - e:+.0e}, closed {r.closed_form - e:+.0e}, "
        f"local {r.local_formula - e:+.0e}]"
        for h, e, r in rows
    )
    ok = stable and elapsed <= 300.0
    report(6, ok, f"{detail}; stable over N=300/400/500: {stable}, "
                  f"{elapsed:.0f}s (<=300s)")
    assert stable
    assert elapsed <= 300.0


def test_criterion_7_trivial_class():
    start = time.monotonic()
    one = AlgebraElement.unit(0.3)
    rep = index_pairing(one, basis_size=400, n_modes=600)
    n = np.arange(400)
    oracle = (1.0 / (2 * n + 1.0) ** 2).sum() - (1.0 / (2 * n + 3.0) ** 2).sum()
    errs = (
        abs(rep.closed_form - 1.0),
        abs(rep.local_formula - 1.0),
        abs(rep.fedosov - 1.0),
        abs(oracle - 1.0),
    )
    elapsed = time.monotonic() - start
    ok = all(e <= 1e-3 for e in errs)
    report(
        7,
        ok,
        f"closed {errs[0]:.1e}, local {errs[1]:.1e}, operator {errs[2]:.1e}, "
        f"telescoping oracle {errs[3]:.1e} (<=1e-3), {elapsed:.0f}s",
    )
    assert all(e <= 1e-3 for e in errs)


def test_criterion_8_twist_consistency():
    start = time.monotonic()
    count = 0
    for hbar in (0.3, SQRT2M1):
        for m in range(-5, 6):
            for n in range(-5, 6):
                for b in range(-5, 6):
                    x = KClass(m, n)
                    lhs = k_pairing(twist(x, b), hbar, 0)
                    rhs = k_pairing(x, hbar, b)
                    assert abs(lhs - rhs) < 1e-9
                    count += 1
    elapsed = time.monotonic() - start
    ok = elapsed <= 1.0
    report(8, ok, f"{count} identities exact, {elapsed:.2f}s (<1s)")
    assert elapsed <= 1.0


def test_criterion_9_gap_labelling():
    start = time.monotonic()
    membership = {}
    for hbar in SUITE_HBARS:
        value = trace(rieffel_projection(hbar)).real
        membership[hbar] = in_gap_label_group(value, hbar)
    elapsed = time.monotonic() - start
    ok = all(membership.values())
    report(
        9,
        ok,
        " ".join(f"h={h:.4f}:{'in' if v else 'OUT'}" for h, v in membership.items())
        + f", {elapsed:.1f}s",
    )
    assert all(membership.values())
