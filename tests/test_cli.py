import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nctorus
from nctorus import cli
from nctorus.cli import main
from nctorus.heatzeta import RealLineFunction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


def test_rieffel_row(capsys):
    code, out, _ = run_cli(capsys, "rieffel", "--hbar", "0.3")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[0] == "hbar"
    row = dict(zip(header, rows[0]))
    assert row["idempotent_defect"] < 1e-10
    assert abs(row["trace"] - 0.3) < 1e-10
    assert abs(row["chern_re"] - 1.0) < 1e-6


def test_rieffel_integer_exits_one(capsys):
    code, out, err = run_cli(capsys, "rieffel", "--hbar", "1.0")
    assert code == 1
    assert "no Rieffel representative" in err
    assert out == ""


def test_zeta_odd_series(capsys):
    code, out, _ = run_cli(
        capsys, "zeta", "--f", "one", "--alpha", "0", "--s-list", "2",
        "--n-modes", "200",
    )
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert abs(row["value_re"] - np.pi ** 2 / 8.0) < 1e-6


def test_zeta_fourier_registry(capsys):
    code, out, _ = run_cli(
        capsys, "zeta", "--f", "fourier", "--coeffs", "1,1", "--alpha", "0",
        "--s-list", "2", "--n-modes", "400",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert np.isfinite(rows[0][2])


@pytest.mark.parametrize("grid", [256, 2048])
def test_riesz_ramp_weight_is_the_bump_real_samples(grid):
    # --grid reaches the weight: its samples are the bump's, at M = grid
    f = cli._registry_function("riesz-ramp", 0.3, grid)
    bump = nctorus.rieffel_projection(0.3, n_samples=grid).coefficient(0)
    assert f.samples.n_samples == grid
    assert np.array_equal(f.samples.samples, bump.samples.real)


def test_zeta_at_gamma_poles_exits_zero(capsys):
    # 1/Gamma is entire: off the diagonal the zeta function is 0 at s = 0, -1, -2
    code, out, _ = run_cli(capsys, "zeta", "--f", "one", "--alpha", "0.5",
                           "--s-list=0,-1,-2")
    assert code == 0
    _, rows = parse_csv(out)
    assert [row[2:] for row in rows] == [[0.0, 0.0, 0.0]] * 3


def test_zeta_of_cos_at_one_exits_zero(capsys):
    # cos has mean zero, so its zeta function is entire
    code, out, _ = run_cli(capsys, "zeta", "--f", "cos", "--s-list", "1")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][:2] == [1.0, 0.0] and np.isfinite(rows[0][2])


def test_zeta_at_a_pole_exits_one(capsys):
    code, out, err = run_cli(capsys, "zeta", "--f", "one", "--s-list", "1")
    assert code == 1 and out == ""
    assert err == "error: the zeta function has a pole at s = 1, with residue mu/2 = 0.5\n"


def test_zeta_of_arctan_is_zero_at_and_around_one(capsys):
    # arctan is odd: its even part, and so its zeta function, is 0, with no
    # pole at s = 1 (mu = 0) or s = 1/2 (int g = 0)
    code, out, err = run_cli(capsys, "zeta", "--f", "arctan", "--s-list", "0.5,1,1.5")
    assert code == 0 and err == ""
    _, rows = parse_csv(out)
    assert [row[:4] for row in rows] == [[s, 0.0, 0.0, 0.0] for s in (0.5, 1.0, 1.5)]


@pytest.mark.parametrize("name, residue", [("tanh-step", "0.25")])
def test_zeta_of_a_limit_weight_at_one_exits_one(capsys, monkeypatch, name, residue):
    # the registry has no (1 + tanh x) / 2; it is added here to reach the same path
    registry = cli._registry_function
    step = RealLineFunction.with_limits(lambda x: (1.0 + np.tanh(x)) / 2.0, 0.0, 1.0)
    monkeypatch.setattr(cli, "_registry_function",
                        lambda f, *args: step if f == "tanh-step" else registry(f, *args))
    code, out, err = run_cli(capsys, "zeta", "--f", name, "--s-list", "1")
    assert code == 1 and out == ""
    assert err == f"error: the zeta function has a pole at s = 1, with residue mu/2 = {residue}\n"


def test_mean_arctan(capsys):
    code, out, _ = run_cli(capsys, "mean", "--f", "arctan", "--xmax", "32")
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert abs(row["mu_plus_re"] - np.pi / 2) < 1e-3
    assert abs(row["mu_re"]) < 1e-3


def test_heat_kernel_deviation(capsys):
    code, out, _ = run_cli(
        capsys, "heat-kernel", "--t", "0.5", "--range", "2", "--samples", "9"
    )
    assert code == 0
    header, rows = parse_csv(out)
    dev = max(row[3] for row in rows)
    assert dev < 1e-8


def test_heat_kernel_single_sample(capsys):
    # one sample at -range: the kernels are arrays of one point
    code, out, _ = run_cli(
        capsys, "heat-kernel", "--t", "0.5", "--range", "4", "--samples", "1"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert len(rows) == 1 and rows[0][0] == -4.0
    assert rows[0][3] < 1e-12


def test_ktheory_row(capsys):
    code, out, _ = run_cli(
        capsys, "ktheory", "--m", "0", "--n", "1", "--hbar", "0.3", "--b", "2"
    )
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert row["pairing"] == pytest.approx(-2.0, abs=1e-9)
    assert row["in_gap_group"] == 1.0


def test_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "ktheory", "--m", "1", "--n", "0", "--hbar", "0.3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0][4] == 1.0


def test_config_file_defaults_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("hbar = 0.4\n# comment\n")
    code, out, _ = run_cli(capsys, "rieffel", "--config", str(cfg))
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][0] == pytest.approx(0.4)
    code, out, _ = run_cli(capsys, "rieffel", "--config", str(cfg), "--hbar", "0.3")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][0] == pytest.approx(0.3)


@pytest.mark.parametrize(
    "line, message",
    [
        ("hbr = 0.4", "unknown key 'hbr'"),
        ("modes = abc", "invalid modes value 'abc'"),
        ("format = xml", "invalid format value 'xml'"),
        ("hbar 0.4", "malformed line"),
    ],
)
def test_bad_config_exits_two(tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["rieffel", "--config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: bad config file" in err
    assert message in err


def test_config_file_format(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = json\n")
    code, out, _ = run_cli(
        capsys, "ktheory", "--m", "1", "--n", "0", "--hbar", "0.3", "--config", str(cfg)
    )
    assert code == 0
    assert json.loads(out)["rows"][0][4] == 1.0


def test_config_file_supplies_required_options(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("f = one\ns-list = 2\n")
    code, out, _ = run_cli(capsys, "zeta", "--config", str(cfg))
    assert code == 0
    assert out == run_cli(capsys, "zeta", "--f", "one", "--s-list", "2")[1]


@pytest.mark.parametrize(
    "argv",
    [
        ("heat-kernel", "--t", "0.5", "--range", "2", "--samples", "9", "--hbar", "7"),
        ("sweep", "--hbars", "0.3", "--modes", "200", "--hbar", "5"),
    ],
)
def test_option_of_another_subcommand_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments: --hbar" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (("pair", "--quad", "3201"), None, "unrecognized arguments: --quad"),
        (("pair", "--modes", "100"), None, "--modes must be at least 200"),
        (("sweep", "--hbars", "0.3", "--modes", "199"), None, "--modes must be at least 200"),
        (("pair",), "modes = 100", "--modes must be at least 200"),
    ],
    ids=["pair-quad", "pair-modes-100", "sweep-modes-199", "config-modes-100"],
)
def test_no_quad_and_modes_floor_exit_two(tmp_path, capsys, argv, config, message):
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + "\n")
        argv += ("--config", str(cfg))
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (("zeta", "--f", "one", "--s-list", "2", "--n-modes", "0"), None,
         "--n-modes must be at least 1"),
        (("zeta", "--f", "one", "--s-list", "2", "--n-modes", "-3"), None,
         "--n-modes must be at least 1"),
        (("zeta", "--f", "one", "--s-list", "2"), "n_modes = 0", "--n-modes must be at least 1"),
        (("pair", "--zeta-modes", "0"), None, "--zeta-modes must be at least 1"),
        (("sweep", "--hbars", "0.3", "--zeta-modes", "-1"), None,
         "--zeta-modes must be at least 1"),
        (("pair",), "zeta-modes = 0", "--zeta-modes must be at least 1"),
        (("heat-kernel", "--t", "0.5", "--samples", "0"), None, "--samples must be at least 1"),
        (("mean", "--f", "arctan", "--xmax", "-8"), None, "--xmax must be positive"),
        (("mean", "--f", "one", "--xmax", "0"), None, "--xmax must be positive"),
        (("mean", "--f", "arctan"), "xmax = -8", "--xmax must be positive"),
        (("heat-kernel", "--t", "nan"), None, "--t must be finite, got nan"),
        (("heat-kernel", "--t", "0.5", "--range", "nan"), None, "--range must be finite"),
        (("zeta", "--f", "one", "--s-list", "2,nan"), None, "--s-list must be finite, got nan"),
        (("zeta", "--f", "one", "--s-list", "2", "--alpha", "nan"), None,
         "--alpha must be finite"),
        (("zeta", "--f", "fourier", "--coeffs", "1,inf", "--s-list", "2"), None,
         "--coeffs must be finite, got inf"),
        (("mean", "--f", "one", "--xmax", "nan"), None, "--xmax must be finite"),
        (("rieffel", "--hbar", "nan"), None, "--hbar must be finite, got nan"),
        (("rieffel", "--hbar", "inf"), None, "--hbar must be finite, got inf"),
        (("pair", "--hbar", "nan"), None, "--hbar must be finite"),
        (("sweep", "--hbars", "0.3,nan"), None, "--hbars must be finite, got nan"),
        (("ktheory", "--m", "1", "--n", "1", "--hbar=-inf"), None,
         "--hbar must be finite, got -inf"),
        (("ktheory", "--m", "1", "--n", "1"), "hbar = nan", "--hbar must be finite"),
        (("sweep", "--hbars", "0.3,abc"), None, "--hbars item 'abc' is not a number"),
        (("sweep", "--hbars", "0.3,1j"), None, "--hbars item '1j' is not a number"),
        (("zeta", "--f", "one", "--s-list", "2,x"), None, "--s-list item 'x' is not a number"),
        (("zeta", "--f", "fourier", "--coeffs", "1,a", "--s-list", "2"), None,
         "--coeffs item 'a' is not a number"),
        (("zeta", "--f", "one"), "s-list = 2,x", "--s-list item 'x' is not a number"),
    ],
    ids=["zeta-n-modes-0", "zeta-n-modes-neg", "config-n-modes-0", "pair-zeta-modes-0",
         "sweep-zeta-modes-neg", "config-zeta-modes-0", "heat-kernel-samples-0",
         "mean-xmax-neg", "mean-xmax-0", "config-xmax-neg",
         "heat-kernel-t-nan", "heat-kernel-range-nan", "zeta-s-list-nan", "zeta-alpha-nan",
         "zeta-coeffs-inf", "mean-xmax-nan", "rieffel-hbar-nan", "rieffel-hbar-inf",
         "pair-hbar-nan", "sweep-hbars-nan", "ktheory-hbar-inf", "config-hbar-nan",
         "sweep-hbars-malformed", "sweep-hbars-complex", "zeta-s-list-malformed",
         "zeta-coeffs-malformed", "config-s-list-malformed"],
)
def test_bad_counts_and_lengths_exit_two(tmp_path, capsys, argv, config, message):
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + "\n")
        argv += ("--config", str(cfg))
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_invalid_grid_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rieffel", "--hbar", "0.3", "--grid", "300"])
    assert exc.value.code == 2


def test_deterministic_output(capsys):
    args = ("zeta", "--f", "fourier", "--coeffs", "1,0.5", "--s-list", "2,1.5",
            "--n-modes", "150")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_pair_row(capsys):
    code, out, _ = run_cli(
        capsys, "pair", "--hbar", "0.3", "--modes", "200", "--zeta-modes", "400"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["hbar", "closed_form", "local_formula", "fedosov", "integer"]
    row = dict(zip(header, rows[0]))
    assert row["integer"] == 0.0
    assert abs(row["closed_form"]) < 1e-6


def test_pair_contradicted_integer_exits_one(capsys):
    # the 200-mode localizer reads 1; the closed form and local formula read 0
    code, out, err = run_cli(capsys, "pair", "--hbar", "0.9", "--modes", "200")
    assert code == 1
    assert "operator index 1 at hbar=0.9 contradicts the closed form" in err
    assert out == ""


def test_sweep_rows_end_in_integers(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--hbars", "0.3,1.3", "--modes", "200",
        "--zeta-modes", "300",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert [row[-1] for row in rows] == [0.0, -1.0]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "row.csv"
    code, out, _ = run_cli(
        capsys, "ktheory", "--m", "1", "--n", "1", "--hbar", "0.3",
        "--output", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("m,n,hbar,b,")


def _modules_after_cli_import(prefix):
    src = str(Path(nctorus.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import sys, nctorus.cli; print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return out.strip()


def test_cli_import_loads_no_scipy():
    assert _modules_after_cli_import("scipy") == "[]"


def test_cli_import_loads_no_mpmath():
    # mpmath is imported on first use, by the odd zeta and the Mellin route's Gamma
    assert _modules_after_cli_import("mpmath") == "[]"
