"""CLI surface: outputs, exit codes, determinism."""

import csv
import io
import json

import pytest

from checkerboard.bessel import bessel_j0, bessel_j1
from checkerboard.cli import CSV_HEADER, format_amplitude, main
from checkerboard.paths import AmplitudePolynomial


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_member_example(capsys):
    code, out, err = run_cli(capsys, "member", "--t", "5/1", "--x", "3/1")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["member"] is True
    assert payload["witness"] == {"n": 1, "m": 1, "p": 2, "q": 1}


def test_member_negative(capsys):
    code, out, err = run_cli(capsys, "member", "--t", "1", "--x", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is False
    assert payload["witness"] is None


def test_boost_with_application(capsys):
    code, out, err = run_cli(capsys, "boost", "--p", "2", "--q", "1",
                             "--apply-t", "5", "--apply-x", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"] == {"a11": "5/4", "a12": "-3/4",
                                 "a21": "-3/4", "a22": "5/4"}
    assert payload["velocity"] == "3/5"
    assert payload["determinant"] == "1/1"
    assert payload["applied"] == {"t": "4/1", "x": "0/1"}


def test_boost_half_application_rejected(capsys):
    code, out, err = run_cli(capsys, "boost", "--p", "2", "--q", "1",
                             "--apply-t", "5")
    assert code == 3
    assert "error:" in err


def test_spectrum(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--max-pq", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    assert payload["velocities"] == ["-3/5", "0/1", "3/5"]


def test_enumerate_text(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--P", "2", "--Q", "1",
                             "--start", "R", "--end", "R")
    assert code == 0
    assert out == "RLR bends=2 to_right=1 to_left=1 amplitude=(i*eps0)\n"


def test_enumerate_json(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--P", "2", "--Q", "2",
                             "--start", "R", "--end", "L", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert {e["path"] for e in payload["paths"]} == {"RRLL", "RLRL"}
    rrll = next(e for e in payload["paths"] if e["path"] == "RRLL")
    assert rrll["bends"] == 1
    assert rrll["counted_bends"] == 0
    assert rrll["amplitude"] == {"0": 1}


def test_enumerate_cap(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--P", "14", "--Q", "14",
                             "--start", "R", "--end", "L", "--cap", "10")
    assert code == 4
    assert "error:" in err


def test_exact(capsys):
    code, out, err = run_cli(capsys, "exact", "--P", "2", "--Q", "2",
                             "--t", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["eps0"] == "1/8"
    assert payload["v"] == "0/1"
    mp = payload["components"]["psi_mp"]
    assert mp["re"] == "63/64"
    assert mp["im"] == "0/1"
    assert mp["re_float"] == 0.984375


def test_propagator_example(capsys):
    code, out, err = run_cli(capsys, "propagator", "--t", "1", "--x", "0")
    assert code == 0
    payload = json.loads(out)
    comps = payload["components"]
    assert comps["psi_mp"]["re"] == pytest.approx(float(bessel_j0(1.0)), abs=1e-15)
    assert comps["psi_mp"]["im"] == 0.0
    assert comps["psi_pp"]["im"] == pytest.approx(float(bessel_j1(1.0)), abs=1e-15)
    assert comps["psi_pp"] == comps["psi_mm"]


def test_propagator_large_s(capsys):
    # J0(49) = -0.052900033322273515 (mpmath), once printed as 0.957
    code, out, err = run_cli(capsys, "propagator", "--t", "49", "--x", "0")
    assert code == 0
    psi_pm = json.loads(out)["components"]["psi_pm"]["re"]
    assert abs(psi_pm - -0.052900033322273515) <= 16 * 2.0 ** -53 * (1 + 49)


def test_converge_quadratic_csv(capsys):
    code, out, err = run_cli(capsys, "converge", "--model", "quadratic",
                             "--v", "0", "--t", "2", "--p", "4,8,16")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 1 + 3 * 4
    mp_errs = [float(r[10]) for r in rows[1:] if r[5] == "psi_mp"]
    assert mp_errs == sorted(mp_errs, reverse=True)
    assert all(r[0] == "1" for r in rows[1:])


def test_converge_linear_warning(capsys):
    code, out, err = run_cli(capsys, "converge", "--model", "linear",
                             "--v", "0", "--t", "2", "--n", "8,9")
    assert code == 0
    assert "N=9" in err and "marker row" in err
    rows = list(csv.reader(io.StringIO(out)))
    marker = [r for r in rows[1:] if r[5] == "warning"]
    assert len(marker) == 1
    assert marker[0][1] == "9" and marker[0][2] == "0"


def test_converge_missing_sizes(capsys):
    code, out, err = run_cli(capsys, "converge", "--model", "quadratic",
                             "--v", "0", "--t", "2")
    assert code == 3
    assert "requires --p" in err


def test_dirac_check(capsys):
    code, out, err = run_cli(capsys, "dirac-check", "--t0", "1", "--t1", "1.4",
                             "--xfrac", "0.3", "--h", "0.04")
    assert code == 0
    payload = json.loads(out)
    for key, value in payload["ratio"].items():
        assert 3.5 <= value <= 4.5, (key, value)
    assert payload["margin"] == pytest.approx(0.08)


def test_dirac_check_past_grid_window(capsys):
    # t1 + h = 7.02 > GRID_WINDOW: the grid refuses instead of degrading
    code, out, err = run_cli(capsys, "dirac-check", "--t0", "1", "--t1", "7",
                             "--xfrac", "0.4", "--h", "0.02")
    assert code == 3
    assert out == "" and "window" in err


def test_series_tol_removed(capsys):
    for sub in (["propagator", "--t", "2", "--x", "1"],
                ["converge", "--model", "quadratic", "--v", "0", "--t", "2",
                 "--p", "4"]):
        assert run_cli(capsys, *sub, "--series-tol", "1e-12")[0] == 2


def test_usage_error_exit_code(capsys):
    assert run_cli(capsys, "member", "--t", "abc", "--x", "0")[0] == 2
    assert run_cli(capsys, "nosuchcommand")[0] == 2
    assert run_cli(capsys, "converge", "--model", "quadratic", "--v", "0",
                   "--t", "2", "--p", "4,x")[0] == 2


def test_domain_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "propagator", "--t", "1", "--x", "2")
    assert code == 3
    assert "light cone" in err


def test_output_files_byte_identical(tmp_path, capsys):
    args = ["converge", "--model", "quadratic", "--v", "3/5", "--t", "2",
            "--p", "4,8"]
    f1 = tmp_path / "a.csv"
    f2 = tmp_path / "b.csv"
    assert main(args + ["--output", str(f1)]) == 0
    assert main(args + ["--output", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["propagator", "--t", "nan", "--x", "0"],
    ["propagator", "--t", "1", "--x", "nan"],
    ["dirac-check", "--t0", "0.5", "--t1", "3", "--xfrac", "0.4", "--h", "nan"],
    ["dirac-check", "--t0", "nan", "--t1", "3", "--xfrac", "0.4", "--h", "0.02"],
    ["dirac-check", "--t0", "0.5", "--t1", "inf", "--xfrac", "0.4", "--h", "0.02"],
])
def test_non_finite_input_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "finite" in err


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(capsys, "exact", "--P", "2", "--Q", "2",
                             "--t", "1", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}")
    assert not target.exists()


def test_propagator_output_file_round_trip(tmp_path, capsys):
    f = tmp_path / "prop.json"
    assert main(["propagator", "--t", "2", "--x", "0.5",
                 "--output", str(f)]) == 0
    payload = json.loads(f.read_text())
    assert payload["schema_version"] == 1
    assert payload["s"] == pytest.approx((4 - 0.25) ** 0.5)
    capsys.readouterr()


def test_format_amplitude():
    assert format_amplitude(AmplitudePolynomial({0: 1, 2: 3})) == \
        "1 + 3*(i*eps0)^2"
    assert format_amplitude(AmplitudePolynomial({1: 1})) == "(i*eps0)"
    assert format_amplitude(AmplitudePolynomial()) == "0"
