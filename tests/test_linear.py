"""Uniform-lattice baseline: counts as coefficients, sweep with skip rows."""

import itertools
from fractions import Fraction

import pytest

from checkerboard.cli import main
from checkerboard.errors import InvalidParameterError
from checkerboard.linear import (LinearSpec, WARNING_COMPONENT,
                                 linear_component, linear_converge,
                                 linear_matrix, linear_parts, split_counts)
from checkerboard.paths import (AmplitudePolynomial, Direction, count_paths,
                                enumerate_paths)
from checkerboard.propagator import COMPONENT_ORDER

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
                by_bends[path.bends] = by_bends.get(path.bends, 0) + 1
            expected = {R_ - 1: c for R_, c in by_bends.items()}
            assert {k: poly.coeff(k) for k in poly.orders()} == expected


def test_linear_component_matches_count_paths():
    # the path-count oracle, at sizes enumeration cannot reach
    for P, Q in itertools.product(range(1, 41), repeat=2):
        for start, end in itertools.product((R, L), repeat=2):
            expected = AmplitudePolynomial(
                {R_ - 1: count_paths(P, Q, start, end, R_)
                 for R_ in range(1, P + Q)})
            assert linear_component(P, Q, start, end) == expected, \
                (P, Q, start, end)


@pytest.mark.parametrize("P,Q", [(1, 1), (7, 2), (3, 11), (64, 32)])
def test_linear_parts_match_each_sector(P, Q):
    spec = LinearSpec(N=P + Q, P=P, Q=Q, t=Fraction(5, 3))
    parts = linear_parts(spec)
    assert parts["psi_pm"] == parts["psi_mp"]
    for name, (start, end) in (("psi_pp", (R, R)), ("psi_pm", (L, R)),
                               ("psi_mp", (R, L)), ("psi_mm", (L, L))):
        assert parts[name] == \
            linear_component(P, Q, start, end).evaluate_exact(spec.epsilon)


def test_count_paths_consistency():
    # same counts the component builder consumes, checked directly
    assert count_paths(5, 3, R, L, 5) == 6
    assert count_paths(2, 2, R, L, 1) == 1
    assert count_paths(2, 2, R, L, 3) == 1


def test_linear_spec():
    spec = LinearSpec(N=8, P=6, Q=2, t=Fraction(2))
    assert spec.epsilon == Fraction(1, 4)
    assert spec.v == Fraction(1, 2)
    assert spec.x == Fraction(1)
    with pytest.raises(InvalidParameterError):
        LinearSpec(N=7, P=6, Q=2, t=Fraction(2))
    with pytest.raises(InvalidParameterError):
        LinearSpec(N=2, P=2, Q=0, t=Fraction(1))
    with pytest.raises(InvalidParameterError):
        LinearSpec(N=4, P=2, Q=2, t=Fraction(-1))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InvalidParameterError, match="finite"):
            LinearSpec(N=4, P=2, Q=2, t=bad)


def test_linear_matrix_realness_pattern():
    for P, Q in itertools.product(range(1, 6), range(1, 6)):
        m = linear_matrix(LinearSpec(N=P + Q, P=P, Q=Q, t=Fraction(3, 2)))
        assert m.psi_pm.imag == 0 and m.psi_mp.imag == 0
        assert m.psi_pp.real == 0 and m.psi_mm.real == 0
        assert m.psi_pm == m.psi_mp
        if P == Q:
            assert m.psi_pp == m.psi_mm


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
    assert captured.out == "" and "N >= 1" in captured.err


def test_linear_converge_velocity():
    rows = linear_converge(2, Fraction(1, 2), [8, 12])
    regular = [row for row in rows if row.component != WARNING_COMPONENT]
    assert {(row.P, row.Q) for row in regular} == {(6, 2), (9, 3)}
    for row in regular:
        assert row.v == Fraction(1, 2)
