"""Command-line front end with reproducible CSV/JSON output.

Every subcommand writes a header row followed by numeric columns printed
with 15 significant digits (or the same content as JSON), so identical
configurations produce byte-identical output.  Module errors exit with
code 1 and a diagnostic line on stderr; configuration errors exit with 2.
"""

import argparse
import cmath
import json
import sys

import numpy as np

from . import algebra, heatzeta, ktheory, pairing
from .heatzeta import RealLineFunction
from .periodic import PeriodicFunction


def _fmt(x):
    return format(float(x), ".15g")


def _registry_function(name, hbar, grid, coeffs=None):
    """Built-in weight functions for the zeta and mean subcommands."""
    if name == "one":
        return heatzeta.ONE
    if name == "cos":
        return RealLineFunction.periodic_fn(lambda x: np.cos(2 * np.pi * np.asarray(x)), 1.0)
    if name == "arctan":
        return RealLineFunction.with_limits(np.arctan, -np.pi / 2, np.pi / 2)
    if name == "riesz-ramp":
        bump = algebra.rieffel_projection(hbar, n_samples=grid).coefficient(0)
        return RealLineFunction.periodic_fn(PeriodicFunction(bump.samples.real), 1.0)
    if name == "fourier":
        if not coeffs:
            raise ValueError("the fourier registry entry needs --coeffs c0,c1,...")
        cs = [float(c) for c in coeffs.split(",")]

        def series(x, _cs=tuple(cs)):
            x = np.asarray(x, dtype=float)
            out = np.full_like(x, _cs[0])
            for k, c in enumerate(_cs[1:], start=1):
                out = out + c * np.cos(2 * np.pi * k * x)
            return out

        return RealLineFunction.periodic_fn(series, 1.0)
    raise ValueError(f"unknown function name {name!r}")


def _write(args, header, rows, json_payload=None):
    if args.fmt == "json":
        text = json.dumps(
            json_payload
            if json_payload is not None
            else {"columns": list(header), "rows": [list(map(float, r)) for r in rows]},
            indent=2,
            sort_keys=True,
        ) + "\n"
    else:
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------- subcommands ----------------


def _cmd_heat_kernel(args):
    xs = np.linspace(-args.range, args.range, args.samples)
    mehler = heatzeta.mehler_kernel(args.t, xs, xs)
    eigen = heatzeta.mehler_eigen_sum(args.t, xs, xs)
    rows = [(x, m, e, abs(m - e)) for x, m, e in zip(xs, mehler, eigen)]
    _write(
        args,
        ("x", "mehler_diag", "eigen_sum_diag", "abs_deviation"),
        rows,
        {
            "t": args.t,
            "rows": [[float(v) for v in r] for r in rows],
            "max_deviation": float(np.abs(mehler - eigen).max()),
        },
    )


def _cmd_zeta(args):
    f = _registry_function(args.f, args.hbar, args.grid, args.coeffs)
    s_values = [complex(s) for s in args.s_list.split(",")]
    evals = [
        heatzeta.zeta_trace(f, args.alpha, s, n_modes=args.n_modes) for s in s_values
    ]
    rows = [
        (ev.s.real, ev.s.imag, ev.value.real, ev.value.imag, ev.error_estimate)
        for ev in evals
    ]
    _write(
        args,
        ("s_re", "s_im", "value_re", "value_im", "error_estimate"),
        rows,
        {
            "evaluations": [
                {
                    "s": [ev.s.real, ev.s.imag],
                    "value": [ev.value.real, ev.value.imag],
                    "residue_at_1": [complex(ev.residue_at_1).real, complex(ev.residue_at_1).imag],
                    "error_estimate": ev.error_estimate,
                    "method": ev.method,
                }
                for ev in evals
            ]
        },
    )


def _cmd_mean(args):
    f = _registry_function(args.f, args.hbar, args.grid, args.coeffs)
    res = heatzeta.asymptotic_mean(f, x_max=args.xmax)
    row = (
        complex(res.mu_plus).real,
        complex(res.mu_plus).imag,
        complex(res.mu_minus).real,
        complex(res.mu_minus).imag,
        complex(res.mu).real,
        complex(res.mu).imag,
        res.error_estimate,
    )
    _write(
        args,
        ("mu_plus_re", "mu_plus_im", "mu_minus_re", "mu_minus_im",
         "mu_re", "mu_im", "error_estimate"),
        [row],
    )


def _cmd_rieffel(args):
    p = algebra.rieffel_projection(args.hbar, n_samples=args.grid)
    d_idem, d_adj = algebra.projection_defect(p)
    tr = algebra.trace(p)
    c1 = algebra.chern_number(p)
    row = (args.hbar, d_idem, d_adj, tr.real, c1.real, c1.imag)
    _write(
        args,
        ("hbar", "idempotent_defect", "selfadjoint_defect", "trace",
         "chern_re", "chern_im"),
        [row],
    )


def _pair_rows(args, reports):
    rows = [
        (r.hbar, r.closed_form, r.local_formula, r.fedosov, r.rounded_integer)
        for r in reports
    ]
    _write(
        args,
        ("hbar", "closed_form", "local_formula", "fedosov", "integer"),
        rows,
        {"reports": [pairing.report_to_json_dict(r) for r in reports]},
    )


def _cmd_pair(args):
    p = algebra.rieffel_projection(args.hbar, n_samples=args.grid)
    report = pairing.index_pairing(p, basis_size=args.modes, n_modes=args.zeta_modes)
    _pair_rows(args, [report])


def _cmd_sweep(args):
    hbars = [float(h) for h in args.hbars.split(",")]
    reports = pairing.sweep(hbars, basis_size=args.modes, n_modes=args.zeta_modes)
    _pair_rows(args, reports)


def _cmd_ktheory(args):
    x = ktheory.KClass(args.m, args.n)
    pair_value = ktheory.k_pairing(x, args.hbar, args.b)
    tr = ktheory.trace_value(x, args.hbar)
    member = ktheory.in_gap_label_group(tr, args.hbar)
    row = (args.m, args.n, args.hbar, args.b, pair_value, tr, int(member))
    _write(
        args,
        ("m", "n", "hbar", "b", "pairing", "trace_value", "in_gap_group"),
        [row],
    )


# ---------------- argument plumbing ----------------


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        dest="fmt", help="output format (default csv)")
    common.add_argument("--output", default=None, help="output path (default stdout)")
    common.add_argument("--config", default=None,
                        help="key=value file supplying defaults; flags win")
    hbar, grid, operator = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    hbar.add_argument("--hbar", type=float, default=0.3,
                      help="deformation parameter (default 0.3)")
    grid.add_argument("--grid", type=int, default=2048,
                      help="circle sample count M, a power of two (default 2048)")
    operator.add_argument("--modes", type=int, default=400,
                          help="Hermite modes N for operator computations "
                               f"(default 400, at least {pairing.MIN_BASIS_SIZE})")

    zeta_modes_help = ("diagonal modes of the local formula "
                       f"(default 2000, at least {pairing._MIN_TRACE_MODES})")

    parser = argparse.ArgumentParser(
        prog="nctorus",
        description="Rotation-algebra numerics: heat kernels, zeta functions, "
                    "index pairings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("heat-kernel", parents=[common],
                       help="diagonal heat kernel and eigensum deviation")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--range", type=float, default=4.0)
    p.add_argument("--samples", type=int, default=81)
    p.set_defaults(func=_cmd_heat_kernel)

    p = sub.add_parser("zeta", parents=[common, hbar, grid], help="spectral zeta values")
    p.add_argument("--f", required=True,
                   help="one | cos | riesz-ramp | arctan | fourier")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--s-list", required=True, help="comma-separated s values")
    p.add_argument("--n-modes", type=int, default=2000,
                   help="window X = sqrt(2 N + 3) + 6 for arctan at --alpha 0 (default 2000)")
    p.add_argument("--coeffs", default=None,
                   help="cosine-series coefficients c0,c1,... for --f fourier")
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("mean", parents=[common, hbar, grid], help="asymptotic means")
    p.add_argument("--f", required=True)
    p.add_argument("--xmax", type=float, default=32.0)
    p.add_argument("--coeffs", default=None)
    p.set_defaults(func=_cmd_mean)

    p = sub.add_parser("rieffel", parents=[common, hbar, grid],
                       help="bump projection diagnostics")
    p.set_defaults(func=_cmd_rieffel)

    p = sub.add_parser("pair", parents=[common, hbar, grid, operator],
                       help="three-route index pairing at one hbar")
    p.add_argument("--zeta-modes", type=int, default=2000, help=zeta_modes_help)
    p.set_defaults(func=_cmd_pair)

    p = sub.add_parser("sweep", parents=[common, operator],
                       help="index pairing across several hbar values")
    p.add_argument("--hbars", required=True, help="comma-separated hbar values")
    p.add_argument("--zeta-modes", type=int, default=2000, help=zeta_modes_help)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("ktheory", parents=[common, hbar],
                       help="exact class pairings and gap labels")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, default=0)
    p.set_defaults(func=_cmd_ktheory)

    parser.subcommand_parsers = list(sub.choices.values())
    for sp in parser.subcommand_parsers:
        sp.allow_abbrev = False  # "sweep --hbar 5" must not be read as --hbars
    return parser


def _apply_config_file(parser, argv):
    """Load key=value defaults from --config; explicit flags still win."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return
    try:
        overrides = {}
        with open(known.config) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, value = line.partition("=")
                if not _:
                    raise ValueError(f"malformed line {line!r}")
                overrides[key.strip()] = value.strip()
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    except ValueError as exc:
        parser.error(f"bad config file: {exc}")
    # each key names a long option; its action gives the dest, type and choices
    actions = {}
    for sp in parser.subcommand_parsers:
        for action in sp._actions:
            if action.dest not in ("help", "config"):
                for option in action.option_strings:
                    actions.setdefault(option, []).append((sp, action))
    for key, value in overrides.items():
        targets = actions.get("--" + key.replace("_", "-"))
        if not targets:
            parser.error(f"bad config file: unknown key {key!r}")
        for sp, action in targets:
            try:
                typed = value if action.type is None else action.type(value)
                valid = action.choices is None or typed in action.choices
            except ValueError:
                valid = False
            if not valid:
                parser.error(f"bad config file: invalid {key} value {value!r}")
            sp.set_defaults(**{action.dest: typed})
            action.required = False


def _validate(parser, args):
    if hasattr(args, "modes") and args.modes < pairing.MIN_BASIS_SIZE:
        parser.error(f"--modes must be at least {pairing.MIN_BASIS_SIZE}")
    if hasattr(args, "grid") and (args.grid < 256 or args.grid & (args.grid - 1)):
        parser.error("--grid must be a power of two, at least 256")
    for dest in ("n_modes", "samples"):
        if getattr(args, dest, 1) < 1:
            parser.error(f"--{dest.replace('_', '-')} must be at least 1")
    if hasattr(args, "zeta_modes") and args.zeta_modes < pairing._MIN_TRACE_MODES:
        parser.error(f"--zeta-modes must be at least {pairing._MIN_TRACE_MODES}")
    if getattr(args, "xmax", 1.0) <= 0:
        parser.error("--xmax must be positive")
    # every float read, from flags or the config file, and each list item,
    # parsed as its subcommand parses it
    numbers = [(dest, [v]) for dest, v in vars(args).items() if isinstance(v, float)]
    numbers += [(dest, getattr(args, dest).split(","))
                for dest in ("hbars", "s_list", "coeffs") if getattr(args, dest, None)]
    for dest, values in numbers:
        for v in values:
            try:
                finite = cmath.isfinite((complex if dest == "s_list" else float)(v))
            except ValueError:
                parser.error(f"--{dest.replace('_', '-')} item {v!r} is not a number")
            if not finite:
                parser.error(f"--{dest.replace('_', '-')} must be finite, got {v}")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    _apply_config_file(parser, argv)
    args = parser.parse_args(argv)
    _validate(parser, args)
    try:
        args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
