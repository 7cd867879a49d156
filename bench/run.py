"""The nctorus benchmark: one command per workload run, checked by oracles.

    python3 bench/run.py --workload staircase --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  See bench/README.md.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3      # set-ups per run: this process and two fresh children
TRACE_DIR = Path(__file__).resolve().parent / "traces"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("staircase", "spectral", "cli"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="whole rounds run until at least this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer spans and counters instead of end-to-end metrics")
    p.add_argument("--domain", choices=("verified", "advertised"), default="verified",
                   help="draw inputs where this commit is known correct (default), "
                        "or over the whole documented domain, known defects included")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time as JSON and exit")
    p.add_argument("--self-test", action="store_true",
                   help="feed every checker a right and a perturbed result and exit")
    args = p.parse_args(argv)
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    return args


def _import_nctorus():
    """Import the package from this checkout's src, never from elsewhere."""
    init = SRC / "nctorus" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import nctorus
    if Path(nctorus.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: nctorus imported from {nctorus.__file__}, not {init}")
    return nctorus


def _blas():
    """OpenBLAS configuration and thread count of the library numpy loaded."""
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return config().decode(), threads()
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return blas.get("openblas configuration", blas.get("name")), None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref
    return ref


def _environment(load_before):
    import mpmath
    import numpy as np
    import scipy
    config, threads = _blas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "openblas": config,
        "blas_threads": threads,
        "cores": os.cpu_count(),
        "git_commit": _git_commit(),
        "load1_before": load_before,
        "load1_after": os.getloadavg()[0],
    }


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _make(name, seed, tracer=None, advertised=False):
    import workloads
    cls = workloads.WORKLOADS[name]
    if cls is workloads.Cli:
        return cls(seed, tracer, advertised, env=_child_env())
    return cls(seed, tracer, advertised)


class Tally:
    """Outcomes of the attempted operations and times of the correct ones."""

    def __init__(self):
        self.attempted = self.errors = self.wrong = 0
        self.busy = 0.0          # seconds spent in all attempts, failed ones too
        self.times = []
        self.reasons = []
        self.by_label = {}

    def add(self, op, outcome, reason, seconds):
        self.attempted += 1
        self.busy += seconds
        attempts, times = self.by_label.setdefault(op.label, ([], []))
        attempts.append(outcome)
        if outcome == "ok":
            self.times.append(seconds)
            times.append(seconds)
            return
        if outcome == "error":
            self.errors += 1
        else:
            self.wrong += 1
        self.reasons.append(f"{outcome}: {op.label} [{op.inputs}]: {reason}")


def _attempt(op):
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a failed operation is counted, the loop goes on
        return "error", f"{type(exc).__name__}: {exc}", time.perf_counter() - start
    seconds = time.perf_counter() - start
    outcome, reason = op.check(result)
    return outcome, reason, seconds


def _self_test(workload, tally):
    """Every right result must pass its checker and every perturbed one fail it."""
    live = True
    for op, result, expected in workload.self_test():
        outcome, reason = op.check(result)
        tally.add(op, outcome, reason, 0.0)
        live &= outcome == expected
    return live


def _setup(args, tracer=None):
    _import_nctorus()
    workload = _make(args.workload, args.seed, tracer, args.domain == "advertised")
    if not _self_test(workload, Tally()):
        raise SystemExit(f"error: the {args.workload} oracle self-test failed")
    workload.warm_up()
    return workload


def _repeat_setup(args):
    """Set-up times of fresh child processes for the same workload and seed."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed",
             str(args.seed), "--domain", args.domain, "--setup-only"],
            capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up child failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _loop(workload, seconds, tally, tracer=None):
    """Whole rounds, closed loop, until at least `seconds` have passed."""
    start = time.perf_counter()
    rounds = 0
    while True:
        for slot in workload.round_order():
            op = workload.make(slot)
            if tracer is not None:
                tracer.op = tally.attempted
            outcome, reason, dt = _attempt(op)
            if tracer is not None:
                tracer.op = -1
            tally.add(op, outcome, reason, dt)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            return time.perf_counter() - start, rounds


def _percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q)) if values else float("nan")


def _peak_rss_mb(name):
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if name == "cli":
        own = max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return own / 1024.0


def _startup_s(repeats=3):
    """Median time of a bare `python -c "import nctorus.cli"`."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import nctorus.cli"], env=_child_env(),
                       check=True, timeout=150)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


LAYERS_S = (
    "periodic.eval", "oscillator.hermite_rows", "oscillator.multiplication_matrix",
    "oscillator.translation_matrix", "oscillator.represent",
    "oscillator.diagonal_elements", "pairing.eigh", "pairing.svd",
    "pairing.fedosov_index", "pairing.character_degree0", "pairing.index_pairing",
    "heatzeta.heat_trace_weighted", "heatzeta.zeta_trace.eigen_sum_tail",
    "heatzeta.zeta_trace.heat_mellin", "heatzeta.dixmier_limit",
    "ktheory.gap_label_witness", "cli.main",
)
COUNTS = (
    "periodic.eval.calls", "periodic.eval.dense_terms", "algebra.multiply.calls",
    "oscillator.represent.gemm_flops", "oscillator.diagonal_elements.mode_points",
    "heatzeta.weight.calls", "heatzeta.weight.points",
)
SHARES = ("periodic.eval", "oscillator.multiplication_matrix",
          "oscillator.diagonal_elements")


def _span_cost(calls=20000):
    """Seconds one traced call adds, from a calibration tracer on a no-op."""
    import tracing
    probe = tracing.Tracer()
    noop = probe.span("probe", lambda: None)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    return (time.perf_counter() - start) / calls


def _layer_metrics(tracer, tally, wall, startup):
    """Per-layer self times and counters of a traced run."""
    stats = tracer.self_times()
    own = {name: s for name, (_, _, s) in stats.items()}
    calls = {name: c for name, (c, _, _) in stats.items()}
    op_time = tally.busy or wall
    m = {f"{name}.s": (own.get(name, 0.0), "s") for name in LAYERS_S}
    m["algebra.s"] = (sum((s for n, s in own.items() if n.startswith("algebra.")), 0.0),
                      "s")
    m.update({name: (tracer.counts[name], "count") for name in COUNTS})
    m["heatzeta.heat_trace_weighted.calls"] = (
        calls.get("heatzeta.heat_trace_weighted", 0), "count")
    m["ktheory.gap_label_witness.calls"] = (
        calls.get("ktheory.gap_label_witness", 0), "count")
    m["pairing.errors"] = (tracer.counts["pairing.index_pairing.errors"], "count")
    m["cli.startup_s"] = (startup, "s")
    for name in SHARES:
        m[f"{name}.self_share"] = (100.0 * own.get(name, 0.0) / op_time, "%")
    m["trace.spans"] = (len(tracer.spans), "count")
    calls = len(tracer.spans) + tracer.counts["heatzeta.weight.calls"]
    m["trace.overhead_est_s"] = (calls * _span_cost(), "s")
    m["trace.op_s.p50"] = (_percentile(tally.times, 50), "s")
    m["trace.wall_s"] = (wall, "s")
    return m


def _report(lines, metrics, samples):
    for name, (value, unit) in metrics.items():
        n = samples.get(name)
        lines.append(f"  {name:48s} {value:>14.6g} {unit}" + (f"  (n={n})" if n else ""))


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    load_before = os.getloadavg()[0]

    if args.self_test:
        return _run_self_test()

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    workload = _setup(args, tracer)
    setup_main = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_main}))
        return 0

    setups = [setup_main] + _repeat_setup(args)
    if tracer is not None:
        startup = _startup_s()
        tracing.install(tracer)
    tally = Tally()
    wall, rounds = _loop(workload, args.seconds, tally, tracer)
    if tracer is not None:
        tracer.uninstall()

    n_ok = len(tally.times)
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace} "
             f"domain {args.domain}: "
             f"{rounds} rounds, {tally.attempted} attempted, {n_ok} correct, "
             f"{tally.errors} errors, {tally.wrong} wrong, {wall:.2f} s"]
    samples = {"op_s.p50": n_ok, "op_s.p90": n_ok, "setup_s": len(setups)}
    # op_s.p90 is printed but not bounded: one round per run has too few
    # operations for a percentile above the median
    printed = {"op_s.p90": (_percentile(tally.times, 90), "s")}
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (n_ok / wall, "1/s"),
            "op_s.p50": (_percentile(tally.times, 50), "s"),
            "peak_rss_mb": (_peak_rss_mb(args.workload), "MB"),
        }
    else:
        metrics = _layer_metrics(tracer, tally, wall, startup)
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"{args.workload}-seed{args.seed}.tsv"
        tracer.write(path)
        lines.append(f"  spans written to {path.relative_to(ROOT)}")
    _report(lines, {**metrics, **printed}, samples)
    shares = {"error_share": tally.errors / tally.attempted,
              "wrong_share": tally.wrong / tally.attempted}
    lines += [f"  {k:48s} {v:>14.6g} (of {tally.attempted} attempted)"
              for k, v in shares.items()]
    for label, (attempts, times) in sorted(tally.by_label.items()):
        median = statistics.median(times) if times else float("nan")
        lines.append(f"  op {label:45s} {len(times)}/{len(attempts)} correct, "
                     f"median {median:.4g} s")
    lines += [f"  {r}" for r in tally.reasons]
    lines.append("env " + json.dumps(_environment(load_before), sort_keys=True))
    print("\n".join(lines))

    result = {
        "correct": tally.errors + tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.errors + tally.wrong,
        # a metric with no sample (no correct result) is null; correct is false then
        "metrics": {k: {"value": v if v == v else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


def _run_self_test():
    """Show that one perturbed result per workload lands in wrong_share."""
    _import_nctorus()
    live = True
    for name in ("staircase", "spectral", "cli"):
        tally = Tally()
        ok = _self_test(_make(name, 0), tally)
        live &= ok
        print(f"{name}: {tally.attempted} fed, wrong_share {tally.wrong / tally.attempted:g}"
              f", gate {'live' if ok else 'NOT LIVE'}")
        for reason in tally.reasons:
            print(f"  {reason}")
    return 0 if live else 1


if __name__ == "__main__":
    sys.exit(main())
