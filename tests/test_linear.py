"""Uniform-lattice baseline: counts as coefficients, sweep with skip rows."""

import itertools
from fractions import Fraction
from math import comb

import pytest

from checkerboard.cli import main
from checkerboard.errors import InvalidParameterError
from checkerboard.paths import (Direction, bend_records, count_paths,
                                enumerate_paths)
from checkerboard.propagator import (COMPONENT_ORDER, WARNING_COMPONENT,
                                     LinearSpec, linear_component,
                                     linear_converge, split_counts)
from test_paths import poly_of

R, L = Direction.R, Direction.L


def test_split_counts():
    assert split_counts(8, 0) == (4, 4)
    assert split_counts(9, 0) is None
    assert split_counts(8, Fraction(1, 2)) == (6, 2)
    assert split_counts(4, Fraction(3, 5)) is None
    assert split_counts(2, Fraction(1, 2)) is None  # would need Q = 1/2
    assert split_counts(1, 0) is None
    # |v| too close to 1 for this N: P or Q would hit 0
    assert split_counts(4, Fraction(1)) is None
    with pytest.raises(InvalidParameterError, match="finite"):
        split_counts(4, float("nan"))


def test_linear_component_examples():
    assert linear_component(2, 2, R, L).to_json_dict() == {"0": 1, "2": 1}
    assert linear_component(2, 1, R, R).to_json_dict() == {"1": 1}
    # 5 right, 3 left, mixed sector, 5 reversals: C(4,2) * C(2,2) = 6
    assert linear_component(5, 3, R, L).coeff(4) == 6
    with pytest.raises(InvalidParameterError):
        linear_component(0, 1, R, L)


def test_linear_component_matches_enumeration():
    for P, Q in itertools.product(range(1, 6), range(1, 6)):
        for start, end in itertools.product((R, L), repeat=2):
            poly = linear_component(P, Q, start, end)
            by_bends = {}
            for path in enumerate_paths(P, Q, start, end):
                bends = len(bend_records(path))
                by_bends[bends] = by_bends.get(bends, 0) + 1
            expected = {R_ - 1: c for R_, c in by_bends.items()}
            assert {k: poly.coeff(k) for k in poly.orders()} == expected


def test_linear_component_matches_count_paths():
    # the path-count oracle, at sizes enumeration cannot reach
    for P, Q in itertools.product(range(1, 41), repeat=2):
        for start, end in itertools.product((R, L), repeat=2):
            expected = poly_of(
                {R_ - 1: count_paths(P, Q, start, end, R_)
                 for R_ in range(1, P + Q)})
            assert linear_component(P, Q, start, end) == expected, \
                (P, Q, start, end)


def test_count_paths_consistency():
    # same counts the component builder consumes, checked directly
    assert count_paths(5, 3, R, L, 5) == 6
    assert count_paths(2, 2, R, L, 1) == 1
    assert count_paths(2, 2, R, L, 3) == 1


def test_linear_spec():
    # N is worked out from P + Q; one passed by keyword is checked
    assert LinearSpec(6, 2, Fraction(2)).N == 8
    assert LinearSpec(N=8, P=6, Q=2, t=Fraction(2)) == \
        LinearSpec(6, 2, Fraction(2))
    with pytest.raises(InvalidParameterError, match="N = P \\+ Q"):
        LinearSpec(N=7, P=6, Q=2, t=Fraction(2))
    with pytest.raises(TypeError):
        LinearSpec(8, 6, 2, Fraction(2))


def test_linear_row_is_the_binomial_row():
    # every n <= 1024 against Pascal's rule, which builds math.comb's
    # rows; math.comb itself at every entry of a sample of n
    pascal = [1]
    for n in range(1025):
        assert LinearSpec.row(n) == pascal, n
        pascal = [1] + [a + b for a, b in zip(pascal, pascal[1:])] + [1]
    for n in (*range(65), 255, 383, 1023, 1024):
        assert LinearSpec.row(n) == [comb(n, k) for k in range(n + 1)], n


def test_linear_converge_warning_rows():
    rows = linear_converge(2, 0, [8, 9, 10])
    warnings = [row for row in rows if row.component == WARNING_COMPONENT]
    assert len(warnings) == 1
    w = warnings[0]
    assert (w.P, w.Q) == (9, 0)
    assert w.abs_err == 0.0 and w.exact_re == 0.0
    regular = [row for row in rows if row.component != WARNING_COMPONENT]
    assert len(regular) == 2 * len(COMPONENT_ORDER)
    assert {row.P for row in regular} == {4, 5}


def test_linear_converge_errors_shrink():
    # first-order model: 8 -> 128 refines 16x, so a 10x error drop is safe
    rows = linear_converge(2, 0, [8, 16, 32, 64, 128])
    errs = [row.abs_err for row in rows if row.component == "psi_mp"]
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < errs[0] / 10


def test_linear_converge_validation():
    with pytest.raises(InvalidParameterError):
        linear_converge(0, 0, [8])
    with pytest.raises(InvalidParameterError):
        linear_converge(2, 1, [8])
    for t, v in ((float("nan"), 0), (float("inf"), 0), (2, float("nan"))):
        with pytest.raises(InvalidParameterError, match="finite"):
            linear_converge(t, v, [8])
    for sizes in ([0], [-4], [8, 0]):
        with pytest.raises(InvalidParameterError):
            linear_converge(2, 0, sizes)
    # N = 1 is a size, just one that cannot realize any velocity
    assert [row.component for row in linear_converge(2, 0, [1])] == \
        [WARNING_COMPONENT]


def test_converge_cli_refuses_non_positive_n(capsys):
    # as --model quadratic --p 0 is: exit 3, not two warning rows
    code = main(["converge", "--model", "linear", "--v", "0", "--t", "2",
                 "--n", "0,-4"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == "" and "N must be >= 1" in captured.err


def test_linear_converge_velocity():
    rows = linear_converge(2, Fraction(1, 2), [8, 12])
    regular = [row for row in rows if row.component != WARNING_COMPONENT]
    assert {(row.P, row.Q) for row in regular} == {(6, 2), (9, 3)}
    for row in regular:
        assert row.v == Fraction(1, 2)
