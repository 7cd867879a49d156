"""The three benchmark workloads: seeded inputs, operations and their oracles.

Each workload is a closed loop: one caller issues the next operation only
after the previous one has returned.  A run is made of whole rounds; a round
holds one operation of every kind the workload mixes (its slots), in a
seeded order, so every run measures the same mixture.  Continuous inputs come
from seeded golden-ratio sequences, which spread the draws of one run evenly
over their range; inputs from a finite pool come in a seeded order.

Inputs are drawn from one of two domains.  The verified domain (the default)
is the part of the advertised domain on which this commit's program gives
correct results: the index pairings use hbar values from pools checked at
every basis size the workload uses, and the continuous draws keep frac(hbar)
and the ``entire_check`` shift away from the ranges where known defects
begin.  The advertised domain draws hbar over the whole documented domain
min(frac, 1 - frac) > 1e-3 and shifts down to 0.1, and so hits the defects
listed in bench/README.md.

An operation that raises, a CLI command that exits non-zero, or an
``entire_check`` report whose own verdict is "not passed" is an error: the
program said it could not produce the result.  An operation that returns a
result its oracle rejects is wrong.  Either way the attempt is counted as
failed.  Oracles are computed by the benchmark, not by the library code
under test.
"""

import io
import itertools
import json
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import gamma

# imported after run.py has put the checkout's src on sys.path; calls go
# through module attributes so that tracing wrappers see them
from nctorus import algebra, cli, heatzeta, oscillator, pairing

# tolerances of the acceptance criteria: 3 (residues), 4 (Dixmier),
# 5b (off-diagonal residue) and 6 (staircase routes)
SPECTRAL_TOL = 1e-3
CLOSED_TOL = 1e-6
LOCAL_TOL = 2e-2
OPERATOR_TOL = 2e-2
PROJECTION_TOL = 1e-8

_STEPS = ((math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0)


class Stream:
    """Seeded values on [lo, hi): a golden-ratio sequence from a random start."""

    def __init__(self, rng, lo, hi, step=0):
        self.u = float(rng.random())
        self.lo, self.hi, self.step = lo, hi, _STEPS[step]

    def __next__(self):
        self.u = (self.u + self.step) % 1.0
        return self.lo + (self.hi - self.lo) * self.u


class Pool:
    """Seeded draws from a finite pool: a seeded order, repeated."""

    def __init__(self, rng, values):
        self.values = [values[i] for i in rng.permutation(len(values))]
        self.i = int(rng.integers(len(values)))

    def __next__(self):
        self.i = (self.i + 1) % len(self.values)
        return self.values[self.i]


def frac(hbar):
    return hbar - math.floor(hbar)


ADVERTISED_MARGIN = 1e-3  # the documented domain min(frac, 1 - frac) > 1e-3
# frac(hbar) margin of the verified domain: the bump projection on the
# 2048-sample grid has ||p^2 - p|| > 1e-9 for frac below 0.146 or above 0.855
# at this commit, and the diagonal stream under-resolves its narrow ramps
VERIFIED_MARGIN = 0.2

# hbar values at which index_pairing(rieffel_projection(hbar), N) gives
# -floor(hbar) by all three routes within the staircase tolerances, for
# N = 300, 400 and 500 (STAIRCASE_HBARS) and for the CLI's N = 200 with 600
# zeta modes (PAIR_HBARS), at this commit.  Values tried and left out, for a
# wrong operator-route integer at some N: -0.75, 1.8 and 2.75 at N = 300-500;
# 0.45, 0.7, 1.2 and 2.25 at N = 200.
STAIRCASE_HBARS = (-0.6, -0.4, -0.25, 0.3, 0.45, 0.55, 0.7, 1.2, 1.3, 1.45, 1.65, 2.25,
                   2.4, 2.6)
PAIR_HBARS = (-0.6, -0.4, -0.25, 0.3, 0.55, 1.3, 1.45, 1.65, 2.4, 2.6)


def next_hbar(stream, margin=ADVERTISED_MARGIN):
    """Next hbar from the stream with min(frac, 1 - frac) > margin."""
    while True:
        hbar = next(stream)
        if min(frac(hbar), 1.0 - frac(hbar)) > margin:
            return hbar


def odd_zeta(s):
    """(1 - 2^-s) zeta(s), the continued spectral zeta of the oscillator."""
    return float((1.0 - mpmath.power(2.0, -s)) * mpmath.zeta(s))


def laguerre_diagonals(ks, n_modes):
    """<e^{2 pi i k x} psi_n, psi_n> = e^{-y/2} L_n(y), y = 2 pi^2 k^2, for n < n_modes.

    Three-term Laguerre recurrence with a per-k log scale, so that large y
    neither overflows nor underflows; shape (n_modes, len(ks)).
    """
    y = 2.0 * np.pi ** 2 * np.asarray(ks, dtype=float) ** 2
    out = np.empty((n_modes, y.size))
    prev, cur, log_scale = np.zeros_like(y), np.ones_like(y), -0.5 * y
    for n in range(n_modes):
        with np.errstate(under="ignore"):
            out[n] = cur * np.exp(log_scale)
        prev, cur = cur, ((2 * n + 1 - y) * cur - n * prev) / (n + 1)
        big = np.abs(cur) > 1e100
        if big.any():
            prev, cur = np.where(big, prev * 1e-100, prev), np.where(big, cur * 1e-100, cur)
            log_scale = log_scale + np.where(big, 100.0 * np.log(10.0), 0.0)
    return out


def reference_zeta(fourier, s, n_modes):
    """On-diagonal zeta of a periodic weight from its Fourier data {k: c_k}.

    Exact diagonal elements d_n = Re sum_k c_k e^{-y/2} L_n(y) for n < n_modes,
    then the library's own tail model: the mean times the remaining odd zeta.
    """
    ks = sorted(fourier)
    d = (laguerre_diagonals(ks, n_modes) @ np.array([fourier[k] for k in ks])).real
    powers = (2.0 * np.arange(n_modes) + 1.0) ** (-s)
    mean = complex(fourier.get(0, 0.0)).real
    return float(d @ powers + mean * (odd_zeta(s) - powers.sum()))


def mellin_one(alpha, s):
    """Tr(T_alpha H^-s) from the closed-form heat trace e^{-coth(t) a^2/4} / (2 sinh t)."""
    def integrand(t):
        return t ** (s - 1.0) * np.exp(-alpha * alpha / (4.0 * np.tanh(t)) - t) / (
            1.0 - np.exp(-2.0 * t))
    head, _ = quad(integrand, 0.0, 1.0, epsabs=1e-13, limit=200)
    tail, _ = quad(integrand, 1.0, np.inf, epsabs=1e-13, limit=200)
    return (head + tail) / gamma(s)


@dataclass
class Op:
    """One operation: run() is timed, check(result) gives (outcome, reason)."""

    label: str
    inputs: str
    run: object
    check: object


OK = ("ok", "")


def _within(name, value, expected, tol):
    if abs(value - expected) <= tol:
        return None
    return f"{name}={value!r}, expected {expected!r} within {tol:g}"


def _verdict(*problems):
    problems = [p for p in problems if p]
    return ("wrong", "; ".join(problems)) if problems else OK


class Workload:
    """Slots, seeded draws and operations of one workload."""

    slots = ()

    def __init__(self, seed, tracer=None, advertised=False):
        self.rng = np.random.default_rng(seed)
        self.tracer = tracer
        self.advertised = advertised

    def pairing_hbars(self, pool, step=0):
        """hbar draws for index pairings: the pool, or the advertised domain."""
        if not self.advertised:
            return Pool(self.rng, pool)
        stream = Stream(self.rng, -3.0, 15.0, step=step)
        return (next_hbar(stream) for _ in itertools.count())

    def round_order(self):
        return [self.slots[i] for i in self.rng.permutation(len(self.slots))]

    def warm_up(self):
        pass

    def make(self, slot):
        raise NotImplementedError

    def self_test(self):
        """(op, result, expected outcome) triples, one right and one perturbed."""
        raise NotImplementedError


# ---------------- staircase ----------------


class Staircase(Workload):
    """index_pairing(rieffel_projection(hbar), N): the staircase -floor(hbar)."""

    name = "staircase"
    slots = (300, 400, 500)

    def __init__(self, seed, tracer=None, advertised=False):
        super().__init__(seed, tracer, advertised)
        self.hbars = self.pairing_hbars(STAIRCASE_HBARS)

    def warm_up(self):
        algebra.projection_defect(algebra.rieffel_projection(0.3))
        rows = oscillator.HermiteBasis(16).rows
        np.linalg.eigh(rows @ rows.T)
        np.linalg.svd(rows[:, :16])

    def make(self, n):
        return self.op(n, next(self.hbars))

    def op(self, n, hbar):

        def run():
            return pairing.index_pairing(algebra.rieffel_projection(hbar), basis_size=n)

        expected = -math.floor(hbar)

        def check(rep):
            return _verdict(
                None if rep.rounded_integer == expected
                else f"integer {rep.rounded_integer}, expected {expected}",
                _within("closed_form", rep.closed_form, expected, CLOSED_TOL),
                _within("local_formula", rep.local_formula, expected, LOCAL_TOL),
                _within("fedosov", rep.fedosov, expected, OPERATOR_TOL),
            )

        return Op(f"index_pairing N={n}", f"hbar={hbar!r}", run, check)

    def self_test(self):
        op = self.op(400, 2.6)
        right = pairing.PairingReport(2.6, -2.0, -2.001, -2.0, -2, (0.0, 1e-3, 0.0), 400)
        flipped = pairing.PairingReport(2.6, -2.0, -2.001, -2.0, -1, (0.0, 1e-3, 0.0), 400)
        return [(op, right, "ok"), (op, flipped, "wrong")]


# ---------------- spectral ----------------


class Weight:
    """A weight on the line with its mean and, if periodic, its Fourier data."""

    def __init__(self, name, func, mean, fourier=None):
        self.name, self.func, self.mean, self.fourier = name, func, mean, fourier

    def function(self, tracer):
        """The RealLineFunction handed to heatzeta; counted when tracing."""
        func = self.func
        if tracer is not None:
            span = tracer.span("heatzeta.weight", func)

            def func(x, _plain=self.func):
                tracer.counts["heatzeta.weight.calls"] += 1
                points = int(np.size(x))
                tracer.counts["heatzeta.weight.points"] += points
                # scalar calls from quad are counted but not spanned: their
                # time stays in the calling layer's self time
                return span(x) if points > 1 else _plain(x)

        if self.fourier is not None:
            return heatzeta.RealLineFunction.periodic_fn(func, 1.0)
        return heatzeta.RealLineFunction.with_limits(func, -np.pi / 2, np.pi / 2)


def _one(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _one_plus_cos(x):
    return 1.0 + np.cos(2.0 * np.pi * np.asarray(x, dtype=float))


def _cosine_fourier(cs):
    fourier = {0: cs[0]}
    for k, c in enumerate(cs[1:], start=1):
        fourier[k] = fourier[-k] = c / 2.0
    return fourier


ONE = Weight("one", _one, 1.0, {0: 1.0})
ONE_PLUS_COS = Weight("1+cos", _one_plus_cos, 1.0, _cosine_fourier((1.0, 1.0)))
ARCTAN = Weight("arctan", np.arctan, 0.0)


def cosine_series(coeffs):
    cs = tuple(float(c) for c in coeffs)

    def series(x):
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, cs[0])
        for k, c in enumerate(cs[1:], start=1):
            out = out + c * np.cos(2.0 * np.pi * k * x)
        return out

    return Weight("series", series, cs[0], _cosine_fourier(cs))


# modes above this add less than 1e-15 to any diagonal element below 2000
# modes: e^{-y/2} L_n(y) is exponentially small while n < y/4
BUMP_MODES = 40


def bump_fourier(hbar, n_samples=2048):
    """Fourier data of the bump coefficient, from its samples by numpy's FFT."""
    samples = algebra.rieffel_projection(hbar, n_samples).coefficient(0).samples
    c = np.fft.fft(samples) / n_samples
    return {k: c[k] for k in range(-BUMP_MODES, BUMP_MODES + 1)}


def bump(hbar):
    coeff = algebra.rieffel_projection(hbar).coefficient(0)
    return Weight("bump", lambda x: np.real(coeff(x)), frac(hbar), bump_fourier(hbar))


class Spectral(Workload):
    """Zeta values, residues, the Mellin route, Dixmier limits and means."""

    name = "spectral"
    slots = (
        ("zeta", "one"), ("zeta", "1+cos"), ("zeta", "series"), ("zeta", "bump"),
        ("residue", "one"), ("residue", "1+cos"), ("residue", "series"),
        ("residue", "bump"),
        ("mellin", "one"), ("entire", "one"),
        ("dixmier", "one"), ("dixmier", "1+cos"), ("dixmier", "arctan"),
        ("mean", "arctan"),
    )

    def __init__(self, seed, tracer=None, advertised=False):
        super().__init__(seed, tracer, advertised)
        self.s_diag = Stream(self.rng, 1.1, 2.0, step=0)
        self.hbars = Stream(self.rng, -3.0, 15.0, step=1)
        # verified domain: bumps with narrow ramps, min(frac, 1 - frac) in
        # (0.2, 0.24), whose dense evaluation keeps 2006-2048 of the 2048
        # modes, so every bump operation does about the same work; wider ramps
        # keep 589-2048 modes depending on frac, and time and peak memory
        # would follow the draw
        self.bump_margins = Stream(self.rng, 0.2, 0.24, step=2)
        self.shifts = Stream(self.rng, 0.1, 2.0, step=1)
        # entire_check reports "not passed" for shifts below about 0.25
        self.entire_shifts = Stream(self.rng, 0.1 if advertised else 0.3, 2.0, step=0)
        self.s_off = Stream(self.rng, 1.01, 2.0, step=2)

    def warm_up(self):
        heatzeta._gl_rule()  # the 4096-node Dixmier rule, built once per process
        heatzeta.zeta_trace(heatzeta.ONE, 0.0, 1.5, n_modes=16)

    def weight(self, name):
        if name == "series":
            c = self.rng.uniform(-0.5, 0.5, size=3)
            return cosine_series([self.rng.uniform(0.5, 2.0), *c])
        if name == "bump":
            if self.advertised:
                return bump(next_hbar(self.hbars))
            margin = next(self.bump_margins)
            return bump(int(self.rng.integers(-3, 15))
                        + (margin if self.rng.random() < 0.5 else 1.0 - margin))
        return {"one": ONE, "1+cos": ONE_PLUS_COS, "arctan": ARCTAN}[name]

    def make(self, slot):
        kind, name = slot
        w = self.weight(name)
        if kind == "zeta":
            return self.zeta_op(w, next(self.s_diag))
        if kind == "residue":
            return self.residue_op(w)
        if kind == "mellin":
            return self.mellin_op(w, next(self.shifts), next(self.s_off))
        if kind == "entire":
            return self.entire_op(w, next(self.entire_shifts))
        if kind == "dixmier":
            return self.dixmier_op(w)
        return self.mean_op(w)

    def zeta_op(self, w, s):
        f = w.function(self.tracer)
        expected = reference_zeta(w.fourier, s, 2000)

        def check(ev):
            return _verdict(_within("zeta", ev.value.real, expected, SPECTRAL_TOL),
                            _within("zeta imag", ev.value.imag, 0.0, SPECTRAL_TOL))

        return Op(f"zeta_trace {w.name}", f"s={s!r}",
                  lambda: heatzeta.zeta_trace(f, 0.0, s), check)

    def residue_op(self, w):
        f = w.function(self.tracer)

        def check(r):
            return _verdict(_within("residue", r.real, w.mean / 2.0, SPECTRAL_TOL),
                            _within("residue imag", r.imag, 0.0, SPECTRAL_TOL))

        return Op(f"residue {w.name}", f"mean={w.mean!r}",
                  lambda: heatzeta.residue_by_extrapolation(f), check)

    def mellin_op(self, w, alpha, s):
        f = w.function(self.tracer)
        expected = mellin_one(alpha, s)

        def check(ev):
            return _verdict(_within("mellin zeta", ev.value.real, expected, SPECTRAL_TOL),
                            _within("mellin imag", ev.value.imag, 0.0, SPECTRAL_TOL))

        return Op("zeta_trace heat_mellin", f"alpha={alpha!r} s={s!r}",
                  lambda: heatzeta.zeta_trace(f, alpha, s), check)

    def entire_op(self, w, alpha):
        f = w.function(self.tracer)
        expected = {s: mellin_one(alpha, s) for s in (1.5, 1.1, 1.01)}

        def check(rep):
            if not rep.passed:
                return ("error", "entire_check verdict: not passed, extrapolated "
                                 f"residue {rep.residue_extrapolated:.3e}")
            return _verdict(
                _within("extrapolated residue", rep.residue_extrapolated, 0.0,
                        SPECTRAL_TOL),
                *(_within(f"zeta({ev.s.real})", ev.value.real, expected[ev.s.real],
                          SPECTRAL_TOL) for ev in rep.evaluations),
            )

        return Op("entire_check", f"alpha={alpha!r}",
                  lambda: heatzeta.entire_check(f, alpha), check)

    def dixmier_op(self, w):
        f = w.function(self.tracer)

        def check(d):
            return _verdict(_within("dixmier", d.real, w.mean / 2.0, SPECTRAL_TOL),
                            _within("dixmier imag", d.imag, 0.0, SPECTRAL_TOL))

        return Op(f"dixmier_limit {w.name}", "", lambda: heatzeta.dixmier_limit(f), check)

    def mean_op(self, w):
        f = w.function(self.tracer)

        def check(res):
            return _verdict(
                _within("mu", complex(res.mu).real, 0.0, SPECTRAL_TOL),
                _within("mu_plus", complex(res.mu_plus).real, np.pi / 2, SPECTRAL_TOL),
                _within("mu_minus", complex(res.mu_minus).real, -np.pi / 2, SPECTRAL_TOL),
            )

        return Op(f"asymptotic_mean {w.name}", "", lambda: heatzeta.asymptotic_mean(f),
                  check)

    def self_test(self):
        op = self.zeta_op(ONE, 1.5)
        value = odd_zeta(1.5)
        right = heatzeta.ZetaEvaluation(1.5, complex(value), 0.5, 0.0, "eigen_sum_tail")
        shifted = heatzeta.ZetaEvaluation(1.5, complex(value + 10 * SPECTRAL_TOL), 0.5, 0.0,
                                 "eigen_sum_tail")
        return [(op, right, "ok"), (op, shifted, "wrong")]


# ---------------- cli ----------------


class CommandFailed(Exception):
    pass


def _table(text, fmt, kind):
    """CLI output as a list of {column: value} rows (strings for CSV)."""
    if fmt == "csv":
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        return [dict(zip(header, line.split(","))) for line in lines[1:]]
    payload = json.loads(text)
    if kind == "pair":
        return payload["reports"]
    if kind == "zeta":
        return [{"s_re": e["s"][0], "value_re": e["value"][0], "value_im": e["value"][1]}
                for e in payload["evaluations"]]
    if kind == "heat-kernel":
        cols = ("x", "mehler_diag", "eigen_sum_diag", "abs_deviation")
        return [dict(zip(cols, r)) for r in payload["rows"]]
    return [dict(zip(payload["columns"], r)) for r in payload["rows"]]


def _same(value, expected):
    """Exact agreement as printed: 15 significant digits in CSV, full in JSON."""
    if isinstance(value, str):
        return value == format(float(expected), ".15g")
    return value == expected


def _echo(name, value, expected):
    """The CLI echoes an input, to 15 significant digits in CSV."""
    return _within(name, float(value), expected, 1e-14 * max(1.0, abs(expected)))


def _pair_checks(row, hbar):
    k = -math.floor(hbar)
    return [
        _echo("hbar", row["hbar"], hbar),
        None if int(row["integer"]) == k else f"integer {row['integer']}, expected {k}",
        _within("closed_form", float(row["closed_form"]), k, CLOSED_TOL),
        _within("local_formula", float(row["local_formula"]), k, LOCAL_TOL),
        _within("fedosov", float(row["fedosov"]), k, OPERATOR_TOL),
    ]


class Cli(Workload):
    """python -m nctorus.cli child processes covering all seven subcommands."""

    name = "cli"
    slots = ("pair", "sweep", "rieffel-2048", "rieffel-8192", "zeta-riesz-ramp",
             "zeta-one", "zeta-fourier", "ktheory", "heat-kernel", "mean")

    def __init__(self, seed, tracer=None, advertised=False, env=None):
        super().__init__(seed, tracer, advertised)
        self.env = env
        self.margin = ADVERTISED_MARGIN if advertised else VERIFIED_MARGIN
        # one stream per slot, so each slot's draws spread evenly over a run
        self.hbars = {slot: Stream(self.rng, -3.0, 15.0, step=i % 3)
                      for i, slot in enumerate(self.slots)}
        self.pair_hbars = self.pairing_hbars(PAIR_HBARS, step=1)
        self.s_values = Stream(self.rng, 1.1, 2.0, step=1)
        self.times = Stream(self.rng, 0.2, 1.0, step=2)

    def warm_up(self):
        if self.tracer is None:
            self.spawn(["-c", "import nctorus.cli"])

    def spawn(self, argv):
        proc = subprocess.run([sys.executable, *argv], env=self.env, capture_output=True,
                              text=True, timeout=150)
        if proc.returncode != 0:
            raise CommandFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc.stdout

    def command(self, argv):
        """Run one CLI command: a child process, or cli.main in-process when tracing."""
        if self.tracer is None:
            return self.spawn(["-m", "nctorus.cli", *argv])
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise CommandFailed(f"exit {code}: {err.getvalue().strip()[-300:]}")
        return out.getvalue()

    def make(self, slot):
        fmt = ("csv", "json")[int(self.rng.integers(2))]
        hbars = self.hbars[slot]
        if slot == "pair":
            return self.pair_op([next(self.pair_hbars)], fmt)
        if slot == "sweep":
            return self.pair_op([next(self.pair_hbars), next(self.pair_hbars)], fmt)
        if slot.startswith("rieffel"):
            return self.rieffel_op(next_hbar(hbars, self.margin), int(slot.split("-")[1]),
                                   fmt)
        if slot.startswith("zeta"):
            return self.zeta_op(slot[5:], hbars, fmt)
        if slot == "ktheory":
            m, n = (int(v) for v in self.rng.integers(-5, 6, size=2))
            return self.ktheory_op(m, n, next_hbar(hbars),
                                   int(self.rng.integers(-3, 4)), fmt)
        if slot == "heat-kernel":
            return self.heat_kernel_op(next(self.times), fmt)
        return self.mean_op(fmt)

    def op(self, label, argv, fmt, kind, check_rows):
        argv = [*argv, f"--format={fmt}"]

        def check(text):
            return _verdict(*check_rows(_table(text, fmt, kind)))

        return Op(label, " ".join(argv), lambda: self.command(argv), check)

    def pair_op(self, hbars, fmt):
        light = ["--modes=200", "--zeta-modes=600"]
        if len(hbars) == 1:
            argv = ["pair", f"--hbar={hbars[0]!r}", *light]
        else:
            argv = ["sweep", "--hbars=" + ",".join(map(repr, hbars)), *light]

        def check_rows(rows):
            if len(rows) != len(hbars):
                return [f"{len(rows)} rows for {len(hbars)} hbar values"]
            return [p for row, h in zip(rows, hbars) for p in _pair_checks(row, h)]

        return self.op(argv[0], argv, fmt, "pair", check_rows)

    def rieffel_op(self, hbar, grid, fmt):
        def check_rows(rows):
            row = rows[0]
            return [
                _within("trace", float(row["trace"]), frac(hbar), PROJECTION_TOL),
                _within("chern_re", float(row["chern_re"]), 1.0, CLOSED_TOL),
                _within("idempotent_defect", float(row["idempotent_defect"]), 0.0,
                        PROJECTION_TOL),
            ]

        return self.op(f"rieffel grid={grid}",
                       ["rieffel", f"--hbar={hbar!r}", f"--grid={grid}"], fmt,
                       "rieffel", check_rows)

    def zeta_op(self, f, hbars, fmt):
        s = next(self.s_values)
        argv = ["zeta", f"--f={f}", f"--s-list={s!r}", "--n-modes=600"]
        if f == "riesz-ramp":
            hbar = next_hbar(hbars, self.margin)
            argv.append(f"--hbar={hbar!r}")
            fourier = bump_fourier(hbar)
        elif f == "fourier":
            coeffs = [float(self.rng.uniform(0.5, 2.0)),
                      *(float(c) for c in self.rng.uniform(-0.5, 0.5, size=2))]
            argv.append("--coeffs=" + ",".join(map(repr, coeffs)))
            fourier = _cosine_fourier(coeffs)
        else:
            fourier = ONE.fourier
        return self.zeta_check_op(f, argv, fmt, s, fourier)

    def zeta_check_op(self, f, argv, fmt, s, fourier):
        expected = reference_zeta(fourier, s, 600)

        def check_rows(rows):
            return [_within("zeta", float(rows[0]["value_re"]), expected, SPECTRAL_TOL),
                    _echo("s", rows[0]["s_re"], s)]

        return self.op(f"zeta {f}", argv, fmt, "zeta", check_rows)

    def ktheory_op(self, m, n, hbar, b, fmt):
        f = frac(hbar)
        pairing_value = m + n * (f - (hbar + b))
        trace_value = m + n * f

        def check_rows(rows):
            row = rows[0]
            return [
                None if _same(row["pairing"], pairing_value)
                else f"pairing {row['pairing']}, expected {pairing_value!r}",
                None if _same(row["trace_value"], trace_value)
                else f"trace_value {row['trace_value']}, expected {trace_value!r}",
                None if int(float(row["in_gap_group"])) == 1 else "not in the gap group",
            ]

        argv = ["ktheory", f"--m={m}", f"--n={n}", f"--hbar={hbar!r}", f"--b={b}"]
        return self.op("ktheory", argv, fmt, "ktheory", check_rows)

    def heat_kernel_op(self, t, fmt):
        def check_rows(rows):
            problems = []
            for row in rows:
                x = float(row["x"])
                exact = math.exp(-math.tanh(t) * x * x) / math.sqrt(
                    2.0 * math.pi * math.sinh(2.0 * t))
                problems.append(_within(f"mehler({x})", float(row["mehler_diag"]), exact,
                                        1e-12))
                problems.append(_within(f"eigen_sum({x})", float(row["eigen_sum_diag"]),
                                        exact, 1e-10))
            return problems if len(rows) == 41 else [f"{len(rows)} rows, expected 41"]

        argv = ["heat-kernel", f"--t={t!r}", "--range=4", "--samples=41"]
        return self.op("heat-kernel", argv, fmt, "heat-kernel", check_rows)

    def mean_op(self, fmt):
        def check_rows(rows):
            row = rows[0]
            return [
                _within("mu", float(row["mu_re"]), 0.0, SPECTRAL_TOL),
                _within("mu_plus", float(row["mu_plus_re"]), np.pi / 2, SPECTRAL_TOL),
                _within("mu_minus", float(row["mu_minus_re"]), -np.pi / 2, SPECTRAL_TOL),
            ]

        return self.op("mean", ["mean", "--f=arctan", "--xmax=32"], fmt, "mean",
                       check_rows)

    def self_test(self):
        op = self.rieffel_op(0.3, 2048, "csv")
        header = "hbar,idempotent_defect,selfadjoint_defect,trace,chern_re,chern_im\n"
        right = header + "0.3,1.6e-11,4.9e-12,0.3,1,-1.7e-17\n"
        wrong_trace = header + "0.3,1.6e-11,4.9e-12,0.7,1,-1.7e-17\n"
        return [(op, right, "ok"), (op, wrong_trace, "wrong")]


WORKLOADS = {w.name: w for w in (Staircase, Spectral, Cli)}
