"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the [PASS]/[FAIL]
lines alongside pytest's own verdicts. Each criterion carries its runtime
budget as an assertion where one is stated. Frozen reference values are
40-digit series evaluations, recorded before the code under test existed.
"""

import csv
import io
import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from checkerboard.cli import CSV_HEADER, main
from checkerboard.dirac import ROW_KEYS, Region, dirac_residual
from checkerboard.paths import (Direction, bend_records, count_paths,
                                enumerate_paths, sector_sum_bruteforce)
from checkerboard.propagator import (closed_matrix, convergence_sweep,
                                     exact_component, linear_converge)
from checkerboard.spacetime import (apply_boost, boost, compose, is_member,
                                    make_point)

R, L = Direction.R, Direction.L

J0_ORACLE = {
    0.5: 0.93846980724081290423,
    1.0: 0.76519768655796655145,
    2.0: 0.22389077914123566805,
    5.0: -0.17759677131433830435,
    10.0: -0.24593576445134833520,
}
J1_ORACLE = {
    0.5: 0.24226845767487388638,
    1.0: 0.44005058574493351596,
    2.0: 0.57672480775687338720,
    5.0: -0.32757913759146522204,
    10.0: 0.04347274616886143667,
}


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_1_exact_sums_match_enumeration():
    with criterion(1, "exact sector sums equal brute-force enumeration, "
                      "P+Q <= 17, all sectors, integer equality"):
        start = time.perf_counter()
        checked = 0
        for total in range(2, 18):
            for P in range(1, total):
                Q = total - P
                for s, e in itertools.product((R, L), repeat=2):
                    assert exact_component(P, Q, s, e) == \
                        sector_sum_bruteforce(P, Q, s, e), (P, Q, s, e)
                    checked += 1
        assert checked == 4 * sum(n - 1 for n in range(2, 18))
        assert time.perf_counter() - start < 60.0


def test_criterion_2_closed_forms_match_bessel_oracle():
    with criterion(2, "closed forms at x=0 match the frozen series oracle "
                      "to 1e-10 for t in {0.5, 1, 2, 5, 10}"):
        for t in (0.5, 1.0, 2.0, 5.0, 10.0):
            m = closed_matrix(t, 0.0)
            assert abs(m.psi_mp.real - J0_ORACLE[t]) < 1e-10, t
            assert m.psi_mp.imag == 0.0
            assert m.psi_pm == m.psi_mp
            assert abs(m.psi_pp.imag - J1_ORACLE[t]) < 1e-10, t
            assert m.psi_pp.real == 0.0
            assert m.psi_mm == m.psi_pp
        # published 10-digit anchors
        assert round(J0_ORACLE[1.0], 10) == 0.7651976866
        assert round(J1_ORACLE[1.0], 10) == 0.4400505857


def test_criterion_3_quadratic_convergence():
    with criterion(3, "quadratic-lattice psi_mp error at v=0, t=2 strictly "
                      "decreasing over P in {4..128}, 10x overall"):
        start = time.perf_counter()
        rows = convergence_sweep(2, 0, [4, 8, 16, 32, 64, 128])
        errs = [row.abs_err for row in rows if row.component == "psi_mp"]
        assert len(errs) == 6
        assert all(a > b for a, b in zip(errs, errs[1:])), errs
        assert errs[-1] <= errs[0] / 10.0, errs
        assert time.perf_counter() - start < 30.0


def test_criterion_4_dirac_residual_second_order():
    with criterion(4, "Dirac residual decays at order 2 on t in [0.5, 3], "
                      "|x| <= 0.4t; corrupted control stalls"):
        start = time.perf_counter()
        region = Region(t0=0.5, t1=3.0, xfrac=0.4)
        honest = dirac_residual(region, h=0.02)
        for key in ROW_KEYS:
            assert 3.5 <= honest.ratio[key] <= 4.5, (key, honest.ratio)
        corrupted = dirac_residual(region, h=0.02, j0_scale=1.01)
        for key in ROW_KEYS:
            assert corrupted.ratio[key] < 2.0, (key, corrupted.ratio)
            assert corrupted.max_residual_h2[key] > 1e-3, (
                key, corrupted.max_residual_h2)
        assert time.perf_counter() - start < 10.0


def test_criterion_5_group_exactness():
    with criterion(5, "1000 random boost pairs: exact closure and det 1; "
                      "membership preserved for 100 witnessed points"):
        start = time.perf_counter()
        rng = random.Random(20260816)

        def draw(limit):
            value = rng.randint(1, limit)
            return value if rng.random() < 0.5 else -value

        for _ in range(1000):
            p1, q1 = draw(10 ** 6), draw(10 ** 6)
            p2, q2 = draw(10 ** 6), draw(10 ** 6)
            b1, b2 = boost(p1, q1), boost(p2, q2)
            composed = compose(b1, b2)
            assert composed == boost(p1 * p2, q1 * q2), (p1, q1, p2, q2)
            assert b1.determinant == 1 and composed.determinant == 1
        for _ in range(100):
            generators = (draw(1000), rng.randint(1, 1000),
                          rng.randint(1, 100), rng.randint(1, 100))
            pt = make_point(*generators)
            assert is_member(pt) is not None, generators
            moved = apply_boost(boost(draw(1000), draw(1000)), pt)
            assert is_member(moved) is not None, generators
        assert time.perf_counter() - start < 10.0


def test_criterion_6_path_combinatorics():
    with criterion(6, "closed-form path counts equal enumeration for "
                      "P, Q <= 7; 8-segment worked example reproduced"):
        for P, Q in itertools.product(range(1, 8), range(1, 8)):
            for s, e in itertools.product((R, L), repeat=2):
                counted = {}
                for path in enumerate_paths(P, Q, s, e):
                    bends = len(bend_records(path))
                    counted[bends] = counted.get(bends, 0) + 1
                for bends in range(0, P + Q + 1):
                    assert count_paths(P, Q, s, e, bends) == \
                        counted.get(bends, 0), (P, Q, s, e, bends)
        # five reversals: two toward the right (L -> R), three toward
        # the left (R -> L)
        fixtures = [p for p in enumerate_paths(5, 3, R, L)
                    if sorted(side.value for side, _ in bend_records(p))
                    == ["L", "L", "R", "R", "R"]]
        assert fixtures
        for path in fixtures:
            assert path.count(R) == 5 and path.count(L) == 3
            assert len(path) == 8
            # every bend but the last is counted
            assert len(bend_records(path)[:-1]) == 4


def test_criterion_7_baseline_agreement():
    with criterion(7, "uniform-lattice psi_mp deviation at v=0, t=2 "
                      "strictly decreasing over N in {8..256}; both "
                      "models improve 10x end to end"):
        lin_rows = linear_converge(2, 0, [8, 16, 32, 64, 128, 256])
        lin_errs = [row.abs_err for row in lin_rows
                    if row.component == "psi_mp"]
        assert len(lin_errs) == 6
        assert all(a > b for a, b in zip(lin_errs, lin_errs[1:])), lin_errs
        assert lin_errs[-1] <= lin_errs[0] / 10.0, lin_errs
        quad_rows = convergence_sweep(2, 0, [4, 128])
        quad_errs = [row.abs_err for row in quad_rows
                     if row.component == "psi_mp"]
        assert quad_errs[-1] <= quad_errs[0] / 10.0, quad_errs


def test_criterion_8_cli_contract(tmp_path, capsys):
    with criterion(8, "CLI examples reproduce stated outputs; identical "
                      "configs give byte-identical files"):
        code = main(["member", "--t", "5/1", "--x", "3/1"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["member"] is True
        assert payload["witness"] == {"n": 1, "m": 1, "p": 2, "q": 1}

        code = main(["propagator", "--t", "1", "--x", "0"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["components"]["psi_mp"]["re"]
                   - J0_ORACLE[1.0]) < 1e-10
        assert abs(payload["components"]["psi_pp"]["im"]
                   - J1_ORACLE[1.0]) < 1e-10

        converge_args = ["converge", "--model", "quadratic", "--v", "0",
                         "--t", "2", "--p", "4,8,16,32,64"]
        code = main(converge_args)
        out = capsys.readouterr().out
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == CSV_HEADER
        errs = [float(r[10]) for r in rows[1:] if r[5] == "psi_mp"]
        assert len(errs) == 5
        assert all(a > b for a, b in zip(errs, errs[1:])), errs

        for name, args in (("member", ["member", "--t", "5/1", "--x", "3/1"]),
                           ("prop", ["propagator", "--t", "1", "--x", "0"]),
                           ("conv", converge_args)):
            f1 = tmp_path / f"{name}_1.out"
            f2 = tmp_path / f"{name}_2.out"
            assert main(args + ["--output", str(f1)]) == 0
            assert main(args + ["--output", str(f2)]) == 0
            assert f1.read_bytes() == f2.read_bytes(), name
        capsys.readouterr()
