"""CLI surface: outputs, exit codes, determinism."""

import contextlib
import csv
import io
import json
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from checkerboard import cli
from checkerboard.bessel import bessel_j0, bessel_j1
from checkerboard.cli import CSV_HEADER, main
from checkerboard.paths import AmplitudePolynomial
from checkerboard.propagator import LatticeSpec, exact_parts
from checkerboard.spacetime import format_rational
from test_paths import poly_of

U = 2.0 ** -53  # float64 unit roundoff


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
    for half in (["--apply-t", "5"], ["--apply-x", "3"]):
        code, out, err = run_cli(capsys, "boost", "--p", "2", "--q", "1", *half)
        assert code == 2
        assert out == "" and "--apply-t and --apply-x go together" in err


def test_spectrum(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--max-pq", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    assert payload["velocities"] == ["-3/5", "0/1", "3/5"]


@pytest.mark.parametrize("argv", [["--max-pq", "513"],
                                  ["--max-pq", "100000"],
                                  ["--max-pq", "3", "--cap", "2"]])
def test_spectrum_cap_exits_4(capsys, argv):
    code, out, err = run_cli(capsys, "spectrum", *argv)
    assert code == 4
    assert out == "" and "exceeds spectrum cap" in err


def test_spectrum_cap_raised_admits(capsys, monkeypatch):
    code, expected, err = run_cli(capsys, "spectrum", "--max-pq", "3")
    assert code == 0
    monkeypatch.setattr(cli, "DEFAULT_SPECTRUM_CAP", 2)
    code, out, err = run_cli(capsys, "spectrum", "--max-pq", "3")
    assert code == 4 and "max_pq = 3 exceeds spectrum cap 2" in err
    assert run_cli(capsys, "spectrum", "--max-pq", "3", "--cap", "3") == (
        0, expected, "")


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
    # the one JSON encoder writes rationals and polynomials, nothing else
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        cli._json(object())


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
    assert comps["psi_mp"]["re"] == pytest.approx(bessel_j0(1.0).value, abs=1e-15)
    assert comps["psi_mp"]["im"] == 0.0
    assert comps["psi_pp"]["im"] == pytest.approx(bessel_j1(1.0).value, abs=1e-15)
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


def test_converge_negative_velocity_mirrors_positive(capsys):
    # a negative rational goes in as --v=-3/5; argparse reads "-3/5" after
    # a space as an option. P and Q swap, so psi_pp and psi_mm swap too.
    code, neg, err = run_cli(capsys, "converge", "--model", "quadratic",
                             "--v=-3/5", "--t", "2", "--p", "4")
    assert code == 0
    code, pos, err = run_cli(capsys, "converge", "--model", "quadratic",
                             "--v", "3/5", "--t", "2", "--p", "8")
    assert code == 0
    neg_rows = {r[5]: r for r in csv.reader(io.StringIO(neg))}
    pos_rows = {r[5]: r for r in csv.reader(io.StringIO(pos))}
    mirror = {"psi_pp": "psi_mm", "psi_mm": "psi_pp",
              "psi_pm": "psi_pm", "psi_mp": "psi_mp"}
    for name, other in mirror.items():
        a, b = neg_rows[name], pos_rows[other]
        assert (a[1], a[2], a[4]) == ("4", "8", "-3/5")
        assert (b[1], b[2], b[4]) == ("8", "4", "3/5")
        assert a[6:] == b[6:], name


@pytest.mark.parametrize("sub,flags", [
    ("member", ("--t", "--x")), ("boost", ("--apply-t", "--apply-x")),
    ("converge", ("--v",))])
def test_negative_rational_help(capsys, sub, flags):
    assert main([sub, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for flag in flags:
        assert f"negative: {flag}=-" in text, flag


def test_negative_rational_flags(capsys):
    code, out, err = run_cli(capsys, "boost", "--p", "2", "--q", "1",
                             "--apply-t", "5", "--apply-x=-3/1")
    assert code == 0
    assert json.loads(out)["applied"] == {"t": "17/2", "x": "-15/2"}
    code, out, err = run_cli(capsys, "member", "--t", "5", "--x=-3/1")
    assert code == 0 and json.loads(out)["member"] is True


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
    # a model without its size list is a usage error, not a domain error
    for model, flag in (("quadratic", "--p"), ("linear", "--n")):
        code, out, err = run_cli(capsys, "converge", "--model", model,
                                 "--v", "0", "--t", "2")
        assert code == 2
        assert out == "" and f"requires {flag}" in err


def test_converge_other_models_sizes_refused(capsys):
    # the size list of the model not chosen is a usage error, not ignored
    for model, own, other in (("quadratic", "--p", "--n"),
                              ("linear", "--n", "--p")):
        code, out, err = run_cli(capsys, "converge", "--model", model,
                                 "--v", "0", "--t", "2", own, "8",
                                 other, "8")
        assert code == 2
        assert out == "" and f"does not take {other}" in err


@pytest.mark.parametrize("argv", [
    ["exact", "--P", "2048", "--Q", "2049", "--t", "1"],
    ["exact", "--P", "5", "--Q", "3", "--t", "1", "--cap", "7"],
    ["converge", "--model", "quadratic", "--v", "0", "--t", "2",
     "--p", "4,8,2049"],
    ["converge", "--model", "linear", "--v", "0", "--t", "2", "--n", "8,16",
     "--cap", "15"],
])
def test_lattice_cap_exits_4(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 4
    assert out == "" and "exceeds lattice cap" in err


def test_lattice_cap_raised_admits(capsys):
    code, out, err = run_cli(capsys, "exact", "--P", "5", "--Q", "3",
                             "--t", "1", "--cap", "8")
    assert code == 0
    assert out == run_cli(capsys, "exact", "--P", "5", "--Q", "3",
                          "--t", "1")[1]
    code, out, err = run_cli(capsys, "converge", "--model", "linear", "--v",
                             "0", "--t", "2", "--n", "8,16", "--cap", "16")
    assert code == 0
    assert len(list(csv.reader(io.StringIO(out)))) == 1 + 2 * 4


def test_dirac_check(capsys):
    code, out, err = run_cli(capsys, "dirac-check", "--t0", "1", "--t1", "1.4",
                             "--xfrac", "0.3", "--h", "0.04")
    assert code == 0
    payload = json.loads(out)
    for key, value in payload["ratio"].items():
        assert 3.5 <= value <= 4.5, (key, value)
    assert payload["margin"] == pytest.approx(0.08)


def test_dirac_check_past_grid_window(capsys):
    # s reaches t1 + h = 7.02, past the [0, 6] the grid once stopped at
    code, out, err = run_cli(capsys, "dirac-check", "--t0", "1", "--t1", "7",
                             "--xfrac", "0.4", "--h", "0.02")
    assert code == 0
    orders = json.loads(out)["observed_order"]
    assert all(order >= 1.8 for order in orders.values()), orders


def test_dirac_check_past_bessel_window_refused(capsys):
    # t1 + h = 50.1 leaves [0, 50]; the grid refuses rather than extrapolate
    code, out, err = run_cli(capsys, "dirac-check", "--t0", "49", "--t1", "50",
                             "--xfrac", "0.1", "--h", "0.1")
    assert code == 3
    assert out == "" and "window" in err


@pytest.mark.parametrize("h", ["1e-5", "1e-300", "5e-324"])
def test_dirac_check_grid_cap_exits_4(capsys, h):
    # before the cap, 1e-5 died allocating 447 GiB and 1e-300 on numpy's
    # array size limit
    code, out, err = run_cli(capsys, "dirac-check", "--t0", "0.5", "--t1", "3",
                             "--xfrac", "0.4", "--h", h)
    assert code == 4
    assert out == "" and err.startswith("error: ") and "grid cap" in err


def test_dirac_check_cap_raised_admits(capsys, monkeypatch):
    argv = ["dirac-check", "--t0", "1", "--t1", "1.4", "--xfrac", "0.3",
            "--h", "0.04"]
    code, expected, err = run_cli(capsys, *argv)
    assert code == 0
    # a default below the fine grid's 1035 nodes makes this grid too big
    monkeypatch.setattr(cli, "DEFAULT_GRID_CAP", 1000)
    code, out, err = run_cli(capsys, *argv)
    assert code == 4 and "at least 1035 nodes" in err
    assert run_cli(capsys, *argv, "--cap", "1035") == (0, expected, "")


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
    # numbers are ASCII digits with an optional sign, nothing that int()
    # also takes: underscores, spaces, a signed denominator, other digits
    for argv in (["exact", "--P", "1_0", "--Q", "2", "--t", "1"],
                 ["exact", "--P", "2", "--Q", " 2", "--t", "1"],
                 ["exact", "--P", "2", "--Q", "2", "--t", "1_0"],
                 ["exact", "--P", "2", "--Q", "2", "--t", "1",
                  "--cap", "\u0663"],
                 ["member", "--t", "+3/+5", "--x", "0"],
                 ["boost", "--p", "2", "--q", "1_0"],
                 ["spectrum", "--max-pq", "3 "],
                 ["converge", "--model", "quadratic", "--v", "0", "--t", "2",
                  "--p", "4, 8"],
                 ["converge", "--model", "linear", "--v", "0", "--t", "2",
                  "--n", "8,,16"],
                 ["enumerate", "--P", "2", "--Q", "2", "--start", "X",
                  "--end", "L"]):
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv


def test_domain_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "propagator", "--t", "1", "--x", "2")
    assert code == 3
    assert "light cone" in err
    code, out, err = run_cli(capsys, "enumerate", "--P", "-1", "--Q", "2",
                             "--start", "R", "--end", "L")
    assert (code, out, err) == (
        3, "", "error: segment counts P, Q must be >= 0\n")


@pytest.mark.parametrize("t", ["1e-200", "1e-160"])
def test_propagator_where_t_squared_underflows(capsys, t):
    # t^2 is 0 at 1e-200 and subnormal at 1e-160; proper_time scales t
    # and x by a power of two before it squares
    mpmath = pytest.importorskip("mpmath")
    code, out, err = run_cli(capsys, "propagator", "--t", t, "--x", "0")
    assert code == 0
    payload = json.loads(out)
    comps = payload["components"]
    with mpmath.workdps(40):
        s = mpmath.mpf(float(t))  # s = t at x = 0
        assert abs(payload["s"] - s) <= 2 * U * s
        assert abs(comps["psi_pm"]["re"] - mpmath.besselj(0, s)) <= 16 * U
        j1 = mpmath.besselj(1, s)  # psi_pp = psi_mm = i (t / s) J1(s)
        assert abs(comps["psi_pp"]["im"] - j1) <= 8 * U * j1
    assert comps["psi_pp"] == comps["psi_mm"]


def test_converge_where_t_squared_underflows(capsys):
    # the sweep's closed forms at t = 1e-200, where t^2 is 0
    mpmath = pytest.importorskip("mpmath")
    code, out, err = run_cli(capsys, "converge", "--model", "quadratic",
                             "--v", "0", "--t", "1/1" + "0" * 200, "--p", "2")
    assert code == 0
    rows = {r["component"]: r for r in csv.DictReader(io.StringIO(out))}
    with mpmath.workdps(40):
        s = mpmath.mpf(1e-200)
        j0, j1 = mpmath.besselj(0, s), mpmath.besselj(1, s)
        for name in ("psi_pm", "psi_mp"):
            assert abs(float(rows[name]["closed_re"]) - j0) <= 16 * U
        for name in ("psi_pp", "psi_mm"):
            assert abs(float(rows[name]["closed_im"]) - j1) <= 8 * U * j1


def test_propagator_refuses_s_past_the_window_by_its_value(capsys):
    # t^2 overflows here; s = 8.66e199 is finite and leaves [0, 50]
    mpmath = pytest.importorskip("mpmath")
    code, out, err = run_cli(capsys, "propagator", "--t", "1e200",
                             "--x", "5e199")
    assert (code, out) == (3, "")
    s = float(re.search(r"arguments \[([^,]+),", err).group(1))
    with mpmath.workdps(40):
        ref = mpmath.sqrt(mpmath.mpf(1e200) ** 2 - mpmath.mpf(5e199) ** 2)
        assert abs(s - ref) <= 2 * U * ref


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
] + [["propagator", "--t", text, "--x", "0"]  # any case, read by _real
     for text in ("NaN", "+nan", "INF", "Infinity", "+iNfInItY")])
def test_non_finite_input_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "finite" in err


def test_exact_prints_values_past_the_int_str_limit(capsys):
    # the numerators at P = Q = 512 have 5,538 digits, past the 4,300 that
    # Python converts to str by default; main lifts the limit for the run
    # and puts it back
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "exact", "--P", "512", "--Q", "512",
                             "--t", "2")
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    parts = exact_parts(LatticeSpec(512, 512, Fraction(2)))
    sys.set_int_max_str_digits(0)
    try:
        want = {name: {"re": format_rational(re), "im": format_rational(im)}
                for name, (re, im) in parts.items()}
    finally:
        sys.set_int_max_str_digits(limit)
    got = json.loads(out)["components"]
    assert {name: {"re": c["re"], "im": c["im"]}
            for name, c in got.items()} == want


BIG = "1" + "0" * 5000  # 5,001 digits, past the 4,300 int() reads by default


@pytest.mark.parametrize("argv, message", [
    (["exact", "--P", BIG + "x", "--Q", "2", "--t", "1"],
     "argument --P: expected an integer, got <a 5004-character str>"),
    (["member", "--t", BIG + "x", "--x", "0"], "argument --t: expected a "
     "rational 'a/b' or integer, got <a 5004-character str>"),
    (["converge", "--model", "quadratic", "--v", "0", "--t", "2",
      "--p", "4," + "9" * 5000 + "x"],
     "argument --p: expected an integer, got <a 5003-character str>"),
    (["enumerate", "--P", "2", "--Q", "2", "--start", "R" * 5000,
      "--end", "L"], "argument --start: expected R or L, got "
     "<a 5002-character str>"),
    (["converge", "--model", "q" * 5000, "--v", "0", "--t", "2"],
     "argument --model: invalid choice: <a 5002-character str>"),
    (["enumerate", "--P", "2", "--Q", "2", "--start", "R", "--end", "L",
      "--format", "j" * 5000],
     "argument --format: invalid choice: <a 5002-character str>"),
    (["member", "--t", "1", "--x", "0", "y" * 5000],
     "unrecognized arguments: <a 5002-character str>"),
    (["c" * 5000], "argument command: invalid choice: <a 5002-character str>"),
    (["boost", "--p", "1", "--q", "2", "--apply=" + "x" * 5000],
     "ambiguous option: <a 5010-character str> could match --apply-t, "
     "--apply-x"),
    (["--help=" + "x" * 5000], "argument -h/--help: ignored explicit "
     "argument <a 5002-character str>"),
    (["-h" + "x" * 5000], "argument -h/--help: ignored explicit argument "
     "<a 5002-character str>"),
    (["member", "--help=" + "x" * 5000], "argument -h/--help: ignored "
     "explicit argument <a 5002-character str>"),
    (["member", "--t", "1", "--x", "0", "--output", "o" * 5000],
     "error: cannot write <a 5002-character str>: File name too long"),
    (["member", "--t", "1", "--x", "0", "y " * 2500],
     "unrecognized arguments: <a 5002-character str>"),
    (["boost", "--p", "1", "--q", "2", "--apply=" + "x " * 2500],
     "ambiguous option: <a 5010-character str> could match --apply-t, "
     "--apply-x"),
    (["--help=" + "x " * 2500], "argument -h/--help: ignored explicit "
     "argument <a 5002-character str>"),
    (["member", "--t", "1", "--x", "0", "y" * 200, "y" * 300, "z"],
     "unrecognized arguments: <a 202-character str> <a 302-character str> z"),
], ids=["integer", "rational", "integer list", "direction", "choice",
        "format", "extra argument", "subcommand", "ambiguous option",
        "help value", "short help value", "subcommand help value",
        "output", "spaced extra argument", "spaced ambiguous option",
        "spaced help value", "nested extra arguments"])
def test_a_long_flag_is_a_short_usage_error(capsys, argv, message):
    # each once echoed a long value whole, up to 5,214 bytes of stderr; a long
    # value is written by the length of its repr, as the caller gave it
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(message + "\n") and len(err.encode()) <= 300


@pytest.mark.parametrize("argv, message", [
    (["converge", "--model", "q", "--v", "0", "--t", "2"],
     "argument --model: invalid choice: 'q'"),
    (["member", "--t", "1", "--x", "0", "y", "--z"],
     "unrecognized arguments: y --z"),
], ids=["choice", "extra arguments"])
def test_a_short_refused_word_is_written_whole(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and err.endswith(message + "\n")


@pytest.mark.parametrize("v, n, row_v, written", [
    ("1/1" + "0" * 5000, "8", "1/1" + "0" * 5000,
     ("8", "<a 16610-bit number>")),
    ("1/2", "1" * 5002, "1/2", ("<a 16614-bit number>", "1/2")),
    ("0", "9", "0/1", ("9", "0")),
], ids=["long velocity", "long size", "zero velocity"])
def test_a_marker_warning_writes_its_values_through_brief(capsys, v, n, row_v,
                                                          written):
    # the first two once echoed v or N in full, over 5,000 bytes of stderr
    code, out, err = run_cli(capsys, "converge", "--model", "linear",
                             "--v", v, "--t", "2", "--n", n,
                             "--cap", "9" * len(n))
    assert code == 0
    assert out == (",".join(CSV_HEADER) + "\n"
                   f"1,{n},0,2/1,{row_v},warning,0,0,0,0,0,0\n")
    assert err == (f"warning: N={written[0]} cannot realize v={written[1]} "
                   "with integer segment counts; emitting marker row\n")
    assert len(err.encode()) <= 300


@pytest.mark.parametrize("text", ["1_0", " 2", "0.0_4", "2 ", "\u0663",
                                  "0x10", "1e5_0", "."])
@pytest.mark.parametrize("flag", ["propagator --t", "dirac-check --h"])
def test_a_real_flag_reads_a_strict_decimal_literal(capsys, flag, text):
    # float() takes all but 0x10 and ".": --t 1_0 once ran at t = 10.0
    command, name = flag.split()
    argv = {"propagator": ["--t", "1", "--x", "0"],
            "dirac-check": ["--t0", "0.5", "--t1", "3", "--xfrac", "0.4",
                            "--h", "0.02"]}[command]
    argv[argv.index(name) + 1] = text
    code, out, err = run_cli(capsys, command, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"argument {name}: expected a decimal literal, "
                        f"got {text!r}\n")


@pytest.mark.parametrize("text", ["2", "+2", "2.", ".5", "2.50", "25e-1",
                                  "0.025E+2", "2.5e0"])
def test_a_real_flag_reads_every_decimal_spelling(capsys, text):
    code, out, _ = run_cli(capsys, "propagator", "--t", text, "--x", "0")
    assert code == 0 and json.loads(out)["t"] == float(text)


@pytest.mark.parametrize("argv, exit_code, message", [
    (["exact", "--P", BIG, "--Q", "2", "--t", "1"], 4,
     "error: P + Q = <a 16610-bit number> exceeds lattice cap 4096"),
    (["spectrum", "--max-pq", BIG], 4,
     "error: max_pq = <a 16610-bit number> exceeds spectrum cap 512"),
    (["exact", "--P", "10", "--Q", "2", "--t", BIG], 3,
     "error: psi_pp lies past float range\n"),
])
def test_a_flag_past_the_int_str_limit_reaches_the_library(
        capsys, argv, exit_code, message):
    # main lifts the limit before parsing: such a flag was once a usage
    # error (exit 2) that echoed all its digits
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (exit_code, "") and err.startswith(message)
    assert not re.search(r"[0-9]{603}", err)  # nothing past 2,000 bits
    assert sys.get_int_max_str_digits() == limit


# a rational whose numerator and denominator reach 10^400, as a flag value
RATIONALS = st.integers(0, 400).flatmap(lambda d: st.builds(
    lambda a, b: format_rational(Fraction(a, b)),
    st.integers(-10 ** d, 10 ** d), st.integers(1, 10 ** d)))
SIZES = st.integers(0, 40).map(str)


def converge_runs(model, size_flag):
    return st.builds(
        lambda v, t, sizes: ["converge", "--model", model, f"--v={v}",
                             f"--t={t}", size_flag, ",".join(sizes)],
        st.one_of(st.sampled_from(["0/1", "3/5", "-5/13"]), RATIONALS),
        RATIONALS, st.lists(SIZES, min_size=1, max_size=3))


CLI_RUNS = st.one_of(
    st.builds(lambda t, x: ["member", f"--t={t}", f"--x={x}"],
              RATIONALS, RATIONALS),
    st.builds(lambda p, q, t, x: ["boost", f"--p={p}", f"--q={q}",
                                  f"--apply-t={t}", f"--apply-x={x}"],
              SIZES, SIZES, RATIONALS, RATIONALS),
    st.builds(lambda P, Q, t: ["exact", "--P", P, "--Q", Q, f"--t={t}"],
              SIZES, SIZES, RATIONALS),
    converge_runs("quadratic", "--p"), converge_runs("linear", "--n"))


@given(argv=CLI_RUNS)
@example(argv=["exact", "--P", "2", "--Q", "2", "--t", f"2{'0' * 155}"])
@example(argv=["converge", "--model", "quadratic", "--v", "0",
               "--t", f"1{'0' * 400}", "--p", "4"])
@settings(max_examples=150, deadline=None)
def test_extreme_rationals_exit_0_3_or_4(argv):
    # whatever the values, a run succeeds or refuses; a refusal writes
    # nothing to stdout, and no exception escapes main
    limit = sys.get_int_max_str_digits()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 3, 4), (code, err.getvalue())
    assert code == 0 or out.getvalue() == ""
    assert sys.get_int_max_str_digits() == limit


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(capsys, "exact", "--P", "2", "--Q", "2",
                             "--t", "1", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {str(target)!r}: ")
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
    # the amplitude column of `enumerate --format text`
    assert str(poly_of({0: 1, 2: 3})) == "1 + 3*(i*eps0)^2"
    assert str(poly_of({1: 1})) == "(i*eps0)"
    assert str(AmplitudePolynomial()) == "0"
