import json

import numpy as np
import pytest

from nctorus.cli import main


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
