"""Exact lattice components, closed forms, and the convergence machinery."""

import dataclasses
import itertools
import pickle
import random
import re
import sys
from fractions import Fraction
from math import prod, sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checkerboard import propagator
from checkerboard.errors import (DomainError, InvalidParameterError,
                                 ResourceLimitError)
from checkerboard.paths import (Direction, count_paths, enumerate_paths,
                               sector_sum_bruteforce)
from checkerboard.propagator import (COMPONENT_ORDER, DEFAULT_LATTICE_CAP,
                                     LatticeSpec, LinearSpec,
                                     PropagatorMatrix, closed_matrix,
                                     convergence_sweep, elem_sym_table,
                                     exact_component, exact_parts,
                                     linear_component, linear_converge,
                                     linear_parts,
                                     pq_identity_check, proper_time)
from test_lattice_equation import LATTICES
from test_paths import fraction_per_term

try:
    import mpmath
except ImportError:  # pragma: no cover
    mpmath = None

R, L = Direction.R, Direction.L
SECTORS = {"psi_pp": (R, R), "psi_pm": (L, R), "psi_mp": (R, L),
           "psi_mm": (L, L)}
U = 2.0 ** -53  # float64 unit roundoff
SPEC_IDS = [spec.__name__ for spec, _ in LATTICES]

# Reference values computed with an independent 40-digit evaluation of the
# defining series, frozen before this module was written.
J0_REF = {
    0.5: 0.9384698072408129,
    1.0: 0.76519768655796655,
    1.6: 0.45540216763938071,
    2.0: 0.22389077914123567,
}
J1_REF = {
    0.5: 0.24226845767487389,
    1.0: 0.44005058574493352,
    2.0: 0.57672480775687339,
}


def brute_elem_sym(values, k):
    return sum(prod(c) for c in itertools.combinations(values, k))


def test_elem_sym_examples():
    t3 = elem_sym_table(3)
    assert t3.values == (1, 9, 23, 15)
    assert elem_sym_table(0).values == (1,)
    with pytest.raises(InvalidParameterError):
        elem_sym_table(-1)


def test_elem_sym_against_subset_sums():
    for n in range(0, 11):
        odds = [2 * j - 1 for j in range(1, n + 1)]
        table = elem_sym_table(n)
        for k in range(n + 1):
            assert table.values[k] == brute_elem_sym(odds, k), (n, k)


@pytest.mark.parametrize("n", range(1, 13))
def test_elem_sym_e1_is_square(n):
    assert elem_sym_table(n).values[1] == n * n


PLAIN_MAX_N = 300


def plain_elem_sym_rows():
    """e_k rows of the odd numbers for n = 0..PLAIN_MAX_N, each grown from
    [1] by the plain recurrence e_k(new) = e_k(old) + (2n-1) e_{k-1}(old)."""
    rows, row = [(1,)], [1]
    for n in range(1, PLAIN_MAX_N + 1):
        row = [a + (2 * n - 1) * b for a, b in zip(row + [0], [0] + row)]
        rows.append(tuple(row))
    return rows


PLAIN_ROWS = plain_elem_sym_rows()


def test_elem_sym_table_equals_plain_recurrence_ascending_and_descending():
    for order in (range(PLAIN_MAX_N + 1), range(PLAIN_MAX_N, -1, -1)):
        elem_sym_table.cache_clear()
        for n in order:
            assert elem_sym_table(n).values == PLAIN_ROWS[n], n


@given(st.lists(st.one_of(st.integers(min_value=0, max_value=PLAIN_MAX_N),
                          st.none()), max_size=40))
@settings(max_examples=40, deadline=None)
def test_elem_sym_table_equals_plain_recurrence_in_any_order(calls):
    """None in the list clears the cache, so a table is built cold, from a
    warm chain or from a chain that was cleared part way."""
    elem_sym_table.cache_clear()
    for n in calls:
        if n is None:
            elem_sym_table.cache_clear()
        else:
            assert elem_sym_table(n).values == PLAIN_ROWS[n], n


def test_readme_cache_counts_are_current():
    """README "Exact evaluation" states the tables two sweeps leave held;
    each stated call is run after cache_clear() and must leave exactly
    its stated tables."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    stated = re.findall(
        r"`(convergence_sweep\([^`]*\))`\s+holds\s+tables\s+"
        r"\[([\d,\s]*)\]", readme)
    assert len(stated) == 2
    for call, tables in stated:
        elem_sym_table.cache_clear()
        eval(call, {"convergence_sweep": convergence_sweep,
                    "Fraction": Fraction})
        assert sorted(propagator._odd_row) == \
            [int(n) for n in tables.split(",")], call


def test_a_descending_sweep_hits_the_chain_tables():
    # the largest size's cold chain 63, 31, 15, 7, 3, 1, 0 holds every
    # table the smaller sizes read, and its table 127 extends 63; the
    # sizes after it build nothing
    elem_sym_table.cache_clear()
    first = convergence_sweep(2, Fraction(3, 5), [128])
    held = dict(propagator._odd_row)
    assert sorted(held) == [0, 1, 3, 7, 15, 31, 63, 127]
    rest = convergence_sweep(2, Fraction(3, 5), [64, 32, 16, 8])
    assert propagator._odd_row == held
    assert all(propagator._odd_row[n] is held[n] for n in held)
    elem_sym_table.cache_clear()
    assert convergence_sweep(2, Fraction(3, 5), [128, 64, 32, 16, 8]) == \
        first + rest


def test_a_missing_table_extends_the_longest_one_held_below_it():
    # a fresh store logs every table read, its own reads included
    reads = []

    class Logged(type(propagator._odd_row)):
        def __getitem__(self, n):
            reads.append(n)
            return super().__getitem__(n)

    store = Logged()
    for n, read in ((9, [9, 4, 1, 0]),  # none held: the halving chain
                    (7, [7, 4]), (3, [3, 1]), (2, [2, 1]),
                    (30, [30, 9]), (9, [9])):
        reads.clear()
        assert store[n] == PLAIN_ROWS[n]
        assert reads == read, n


def test_the_shorter_axis_is_looked_up_first():
    for (P, Q), read in {(3, 2): [1, 2], (2, 3): [1, 2], (7, 1): [0, 6],
                         (4, 4): [3]}.items():
        reads = []

        def row(n):
            reads.append(n)
            return PLAIN_ROWS[n]

        e_right, e_left = propagator._axis_rows(row, P, Q)
        assert (e_right, e_left) == (PLAIN_ROWS[P - 1], PLAIN_ROWS[Q - 1])
        assert reads == read, (P, Q)
    assert e_right is e_left  # P == Q: one row, read once


def test_the_33rd_table_drops_the_oldest():
    elem_sym_table.cache_clear()
    for n in range(33):
        assert elem_sym_table(n).values == PLAIN_ROWS[n]
    assert sorted(propagator._odd_row) == list(range(1, 33))
    # a held table read again is not renewed: the oldest one inserted
    # goes first, and a table dropped is built again when asked for
    assert elem_sym_table(1).values == PLAIN_ROWS[1]
    assert elem_sym_table(0).values == (1,)
    assert sorted(propagator._odd_row) == [0] + list(range(2, 33))
    assert elem_sym_table(40).values == PLAIN_ROWS[40]
    assert sorted(propagator._odd_row) == [0] + list(range(3, 33)) + [40]


SECTOR_CALLS = {
    "exact_component": lambda s, e: exact_component(4, 2, s, e),
    "linear_component": lambda s, e: linear_component(4, 2, s, e),
    "sector_sum_bruteforce": lambda s, e: sector_sum_bruteforce(4, 2, s, e),
    "enumerate_paths": lambda s, e: list(enumerate_paths(4, 2, s, e)),
    "count_paths": lambda s, e: count_paths(4, 2, s, e, 1),
}


@pytest.mark.parametrize("call", SECTOR_CALLS.values(), ids=SECTOR_CALLS)
def test_sector_functions_refuse_a_direction_that_is_not_a_direction(call):
    # a string passed every `is Direction.R` test as L: ('R', 'R') gave
    # the L, L sector, and the brute-force walk agreed, so no cross-check
    # could see it
    for start, end in (("R", "R"), ("L", R), (R, "L"), (0, L), (R, None)):
        with pytest.raises(InvalidParameterError, match="Direction"):
            call(start, end)
    call(R, L)
    assert str(exact_component(4, 2, R, R)) == "9*(i*eps0) + 23*(i*eps0)^3"


def test_sector_builders_refuse_past_the_lattice_cap_before_any_table():
    # (5000, 5000) took 22.6 s to build its n = 4,999 table before the cap
    elem_sym_table.cache_clear()
    with pytest.raises(ResourceLimitError,
                       match=f"P \\+ Q = 10000 exceeds lattice cap {DEFAULT_LATTICE_CAP}"):
        exact_component(5000, 5000, R, L)
    with pytest.raises(ResourceLimitError, match="n = 5000 exceeds lattice"):
        elem_sym_table(5000)
    assert sorted(propagator._odd_row) == []
    # one size over the cap is refused; the cap bounds it inclusively
    for build in (exact_component, linear_component):
        with pytest.raises(ResourceLimitError, match="P \\+ Q = 8 exceeds lattice cap 7"):
            build(5, 3, R, L, cap=7)
        for start, end in itertools.product((R, L), repeat=2):
            assert build(5, 3, start, end, cap=8) == build(5, 3, start, end)
    with pytest.raises(ResourceLimitError, match="n = 9 exceeds lattice cap 8"):
        elem_sym_table(9, cap=8)
    assert elem_sym_table(9, cap=9) == elem_sym_table(9)


class _Checked(Exception):
    """Raised by the check_cap spy once the caller's check has run."""


@pytest.mark.parametrize("build,size", [
    (lambda: elem_sym_table(9000, cap=10000), 9000),
    (lambda: exact_component(5000, 5000, R, L, cap=10000), 10000),
], ids=["elem_sym_table", "exact_component"])
def test_a_raised_cap_reaches_the_tables_it_builds(monkeypatch, build, size):
    # a size past the default cap is checked once, against the caller's
    # raised cap, on the caller's own size. The spy runs the real check,
    # then stops the call before its O(n^2) work, so these sizes cost
    # nothing; the chain's own lack of checks is the next test's
    seen, check = [], propagator.check_cap

    def spy(name, value, kind, cap):
        check(name, value, kind, cap)
        seen.append(value)
        raise _Checked

    monkeypatch.setattr(propagator, "check_cap", spy)
    with pytest.raises(_Checked):
        build()
    assert seen == [size]


def test_a_table_chain_runs_no_check_of_its_own(monkeypatch):
    # on an empty store table 9 extends 4, 4 extends 1 and 1 extends 0:
    # four tables built under the caller's one check, whose cap admits 9
    # and nothing above it
    seen, check = [], propagator.check_cap

    def spy(name, value, kind, cap):
        check(name, value, kind, cap)
        seen.append((value, cap))

    monkeypatch.setattr(propagator, "check_cap", spy)
    elem_sym_table.cache_clear()
    assert elem_sym_table(9, cap=9).values == PLAIN_ROWS[9]
    assert seen == [(9, 9)]
    assert sorted(propagator._odd_row) == [0, 1, 4, 9]
    for n in (4, 1, 0):  # the chain's tables, each now held
        assert elem_sym_table(n, cap=n).values == PLAIN_ROWS[n]
    assert seen == [(9, 9), (4, 4), (1, 1), (0, 0)]
    assert sorted(propagator._odd_row) == [0, 1, 4, 9]


def test_the_cap_is_no_part_of_the_cache_key():
    # the three ways to ask for table 300 share one entry: the first
    # builds the chain 300, 149, 74, 36, 17, 8, 3, 1, 0 and the others
    # read it
    elem_sym_table.cache_clear()
    tables = [elem_sym_table(300), elem_sym_table(300, 4096),
              elem_sym_table(300, cap=5000)]
    assert tables[0] == tables[1] == tables[2]
    assert tables[0].values == PLAIN_ROWS[300]
    assert tables[0].values is tables[1].values is tables[2].values
    assert sorted(propagator._odd_row) == [0, 1, 3, 8, 17, 36, 74, 149, 300]


def test_long_rationals_stay_out_of_sweep_errors():
    # a velocity of 5,001 digits, and one from 2,200-digit generators, are
    # shown by their size: Python's int-to-str limit (640 digits at its
    # lowest) would turn the DomainError into a bare ValueError
    wide = Fraction(10**5000 + 1, 10**5000 + 3)
    p, q = 10**2200 + 1, 10**2199 + 7
    member = Fraction(p * p - q * q, p * p + q * q)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(DomainError, match=r"^velocity <a 16610-bit "
                           r"number> is not in the spectrum"):
            convergence_sweep(2, wide, [4])
        with pytest.raises(DomainError, match=r"^P = 3 cannot realize "
                           r"v = <a \d+-bit number>: P must be a positive "
                           r"multiple of <a \d+-bit number>$"):
            convergence_sweep(2, member, [3])
        with pytest.raises(DomainError, match="outside the open forward"):
            linear_converge(2, wide, [4])
    finally:
        sys.set_int_max_str_digits(limit)
    # short values print as they always did
    for v, P, text in (
            (Fraction(1, 3), 4, "velocity 1/3 is not in the spectrum "
             "(p^2-q^2)/(p^2+q^2)"),
            (Fraction(3, 5), 5, "P = 5 cannot realize v = 3/5: P must be a "
             "positive multiple of 2")):
        with pytest.raises(DomainError) as info:
            convergence_sweep(2, v, [P])
        assert str(info.value) == text


def test_exact_component_examples():
    assert exact_component(2, 2, R, L).to_json_dict() == {"0": 1, "2": 1}
    assert exact_component(2, 1, R, R).to_json_dict() == {"1": 1}
    five_three = exact_component(5, 3, R, L)
    assert five_three.coeff(0) == 1
    assert five_three.coeff(2) == 64
    with pytest.raises(InvalidParameterError):
        exact_component(0, 2, R, L)


def test_exact_component_matches_bruteforce():
    for P, Q in itertools.product(range(1, 6), range(1, 6)):
        for start, end in itertools.product((R, L), repeat=2):
            assert exact_component(P, Q, start, end) == \
                sector_sum_bruteforce(P, Q, start, end), (P, Q, start, end)


def test_sector_symmetries():
    for P, Q in itertools.product(range(1, 7), range(1, 7)):
        assert exact_component(P, Q, R, L) == exact_component(P, Q, L, R)
        assert exact_component(P, Q, R, R) == exact_component(Q, P, L, L)


# each spec's step by its own name, and (step, v) at (P, Q) and t = 2
SPEC_VALUES = [
    (LatticeSpec, "eps0", {(5, 3): (Fraction(2, 34), Fraction(16, 34)),
                           (6, 2): (Fraction(2, 40), Fraction(32, 40))}),
    (LinearSpec, "epsilon", {(5, 3): (Fraction(2, 8), Fraction(2, 8)),
                             (6, 2): (Fraction(2, 8), Fraction(4, 8))}),
]


@pytest.mark.parametrize("spec,step_name,values", SPEC_VALUES,
                         ids=[spec.__name__ for spec, *_ in SPEC_VALUES])
def test_spec_places_and_refuses_endpoints(spec, step_name, values):
    for (P, Q), (step, v) in values.items():
        lattice = spec(P, Q, Fraction(2))
        assert (getattr(lattice, step_name), lattice.v) == (step, v)
        assert lattice.step == step and lattice.x == 2 * v
    for P, Q, t in ((0, 3, 1), (2, 0, 1), (1, 1, 0), (2, 2, -1)):
        with pytest.raises(InvalidParameterError):
            spec(P, Q, Fraction(t))
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InvalidParameterError, match="finite"):
            spec(1, 1, bad)


@pytest.mark.parametrize("spec", [spec for spec, _ in LATTICES],
                         ids=SPEC_IDS)
def test_spec_refuses_a_P_or_Q_that_is_not_an_integer(spec):
    # 2.0 once gave LatticeSpec an eps0 of 0.125, a float, and
    # LinearSpec(2.5, 2, 1) a step for a lattice that cannot exist
    for P, Q in ((2.0, 2), (2, 2.5), (Fraction(2), 2), (2, Fraction(5, 2)),
                 ("2", 2)):
        with pytest.raises(InvalidParameterError, match="integer P and Q"):
            spec(P, Q, Fraction(1))
    # a numpy integer is an integer, and the spec keeps it as an int
    lattice = spec(np.int64(5), np.int32(3), Fraction(2))
    assert (type(lattice.P), type(lattice.Q)) == (int, int)
    assert lattice == spec(5, 3, Fraction(2))
    assert exact_parts(lattice) == exact_parts(spec(5, 3, Fraction(2)))


SIZE_DOORS = {
    "elem_sym_table": lambda n: elem_sym_table(n).values,
    "exact_component": lambda n: exact_component(n, 2, R, L),
    "exact_component Q": lambda n: exact_component(2, n, L, L),
    "linear_component": lambda n: linear_component(n, 2, R, L),
    "sector_sum_bruteforce": lambda n: sector_sum_bruteforce(n, 2, R, L),
    "enumerate_paths": lambda n: list(enumerate_paths(2, n, R, L)),
    "count_paths": lambda n: count_paths(n, 2, R, L, 1),
    "count_paths R": lambda n: count_paths(4, 3, R, R, n),
    "LatticeSpec": lambda n: exact_parts(LatticeSpec(n, 2, 1)),
    "LinearSpec": lambda n: linear_parts(LinearSpec(2, n, 1)),
}


@pytest.mark.parametrize("call", SIZE_DOORS.values(), ids=SIZE_DOORS)
def test_sizes_are_checked_at_the_door(call):
    # 3.0 once gave a bare TypeError from a range deep inside, nan a
    # RecursionError and True the size 1; a float must never reach the
    # table store, where 2.0 == 2 would read table 2
    bad = (2.0, 2.5, 3.0, True, False, float("nan"), np.bool_(True))
    elem_sym_table.cache_clear()
    for size in bad:
        with pytest.raises(InvalidParameterError, match="integer"):
            call(size)
    assert sorted(propagator._odd_row) == []
    assert call(np.int64(3)) == call(3)
    for size in bad:  # with tables 1, 2 and 3 held, still refused
        with pytest.raises(InvalidParameterError, match="integer"):
            call(size)


def test_numpy_integer_endpoints_give_the_int_values():
    # t = np.int64(7) once ran the exact sums in wrapping int64: psi_pp
    # came out near 1.3e-13 i, against -1.137 i
    parts = exact_parts(LatticeSpec(8, 8, np.int64(7)))
    assert parts == exact_parts(LatticeSpec(8, 8, 7))
    assert all(type(part.numerator) is int
               for pair in parts.values() for part in pair)
    assert convergence_sweep(np.int64(7), 0, [8]) == \
        convergence_sweep(7, 0, [8])
    # v = 3 is no velocity; the refusal was an AttributeError
    for v in (np.int64(3), 3):
        with pytest.raises(DomainError, match="^velocity 3 is not in"):
            convergence_sweep(2, v, [2])


def test_exact_parts_examples():
    parts = exact_parts(LatticeSpec(P=2, Q=2, t=Fraction(1)))
    assert parts["psi_mp"] == (Fraction(63, 64), 0)
    assert parts["psi_pm"] == parts["psi_mp"]
    parts21 = exact_parts(LatticeSpec(P=2, Q=1, t=Fraction(1)))
    assert parts21["psi_pp"] == (0, Fraction(1, 5))


@pytest.mark.parametrize("spec", [spec for spec, _ in LATTICES],
                         ids=SPEC_IDS)
def test_parts_realness_pattern(spec):
    for P, Q in itertools.product(range(1, 7), range(1, 7)):
        parts = exact_parts(spec(P, Q, Fraction(3, 2)))
        assert parts["psi_pm"][1] == 0 and parts["psi_mp"][1] == 0
        assert parts["psi_pp"][0] == 0 and parts["psi_mm"][0] == 0
        assert parts["psi_pm"] == parts["psi_mp"]
        if P == Q:
            assert parts["psi_pp"] == parts["psi_mm"]


def test_closed_matrix_against_reference():
    for t, j0 in J0_REF.items():
        m = closed_matrix(t, 0.0)
        assert m.psi_mp.real == pytest.approx(j0, abs=1e-12)
        assert m.psi_pm == m.psi_mp
    for t, j1 in J1_REF.items():
        m = closed_matrix(t, 0.0)
        assert m.psi_pp == pytest.approx(complex(0, j1), abs=1e-12)
        assert m.psi_mm == m.psi_pp


def test_closed_matrix_off_axis_reference():
    # frozen independent evaluation at t=2, x=0.6 (s = 1.9078784028338913)
    m = closed_matrix(2.0, 0.6)
    assert m.psi_mp.real == pytest.approx(0.27724074954314954, abs=1e-12)
    assert m.psi_pp.imag == pytest.approx(0.79170811235944277, abs=1e-12)
    assert m.psi_mm.imag == pytest.approx(0.42630436819354611, abs=1e-12)


def test_closed_matrix_parity():
    m_plus = closed_matrix(2.0, 0.7)
    m_minus = closed_matrix(2.0, -0.7)
    assert m_plus.psi_mp == m_minus.psi_mp
    assert m_plus.psi_pp == m_minus.psi_mm
    assert m_plus.psi_mm == m_minus.psi_pp


def test_propagator_matrix_is_a_frozen_record():
    # slots=True keeps what a frozen dataclass gives its callers
    m = closed_matrix(2.0, 0.7)
    same = PropagatorMatrix(psi_pp=m.psi_pp, psi_pm=m.psi_pm,
                            psi_mp=m.psi_mp, psi_mm=m.psi_mm)
    assert m == same and hash(m) == hash(same)
    assert m != dataclasses.replace(m, psi_mm=0j)
    assert pickle.loads(pickle.dumps(m)) == m
    assert [f.name for f in dataclasses.fields(m)] == list(COMPONENT_ORDER)
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.psi_pp = 0j


@pytest.mark.skipif(mpmath is None, reason="mpmath not installed")
def test_closed_matrix_relative_near_light_cone():
    # psi_pp and psi_mm divide J1(s) by s, so J1 must keep its relative
    # accuracy as s -> 0: t = 1, x = 1 - d, 400 points with d in
    # [1e-15, 1e-3], against mpmath at the same float (t, x).
    with mpmath.workdps(40):
        for d in (10.0 ** (-15 + 12 * i / 399) for i in range(400)):
            x = 1.0 - d
            m = closed_matrix(1.0, x)
            X = mpmath.mpf(x)
            s = mpmath.sqrt((1 - X) * (1 + X))
            j1 = mpmath.besselj(1, s)
            for name, ref in (("psi_pp", (1 + X) / s * j1),
                              ("psi_mm", (1 - X) / s * j1)):
                got = getattr(m, name)
                assert got.real == 0.0, (name, d)
                assert abs(got.imag - ref) <= 8 * U * ref, (name, d)


def test_closed_matrix_domain():
    with pytest.raises(DomainError):
        closed_matrix(1.0, 1.0)
    with pytest.raises(DomainError):
        closed_matrix(1.0, -1.5)
    with pytest.raises(DomainError):
        closed_matrix(0.0, 0.0)
    with pytest.raises(DomainError):
        closed_matrix(-2.0, 0.0)
    for t, x in ((float("nan"), 0.0), (1.0, float("nan")),
                 (float("inf"), 0.0), (float("inf"), float("inf"))):
        with pytest.raises(DomainError):
            closed_matrix(t, x)
    # proper_time owns these refusals; closed_matrix meets them through it
    for t, x in ((1.0, -1.0), (0.0, 0.0), (float("nan"), 0.0)):
        with pytest.raises(DomainError):
            proper_time(t, x)


def test_proper_time_is_the_plain_form_where_that_is_normal():
    rng = random.Random(12)
    for _ in range(4000):
        t = 10.0 ** rng.uniform(-150.0, 150.0)
        x = t * rng.uniform(-1.0, 1.0)
        product = (t - x) * (t + x)
        if t > abs(x) and product >= sys.float_info.min:
            assert proper_time(t, x) == sqrt(product), (t, x)


@pytest.mark.skipif(mpmath is None, reason="mpmath not installed")
def test_closed_matrix_where_the_square_underflows():
    # (t - x)(t + x) underflows to 0 here; proper_time scales first
    t, x = 1e-200, 9.999999999999998e-201
    m = closed_matrix(t, x)
    with mpmath.workdps(40):
        T, X = mpmath.mpf(t), mpmath.mpf(x)
        s = mpmath.sqrt((T - X) * (T + X))
        assert abs(proper_time(t, x) - s) <= 2 * U * s
        assert m.psi_pm == m.psi_mp
        assert abs(m.psi_pm - mpmath.besselj(0, s)) <= 16 * U
        j1 = mpmath.besselj(1, s)
        for got, ref in ((m.psi_pp, (T + X) / s * j1),
                         (m.psi_mm, (T - X) / s * j1)):
            assert got.real == 0.0
            assert abs(got.imag - ref) <= 8 * U * ref


@pytest.mark.parametrize("P,Q", [(5, 3), (2, 1), (7, 7), (12, 5)])
def test_pq_identity(P, Q):
    assert pq_identity_check(P, Q)


def test_pq_identity_refuses_an_empty_axis():
    with pytest.raises(InvalidParameterError, match="P, Q must be >= 1"):
        pq_identity_check(0, 1)


def _component_errors(rows, component):
    return [row.abs_err for row in rows if row.component == component]


def test_sweep_single_row_reference():
    rows = convergence_sweep(1, 0, [2])
    assert [row.component for row in rows] == list(COMPONENT_ORDER)
    row = rows[COMPONENT_ORDER.index("psi_mp")]
    assert row.P == 2 and row.Q == 2
    assert row.exact_re == pytest.approx(0.984375, abs=0)
    assert row.abs_err == pytest.approx(0.21917731344203345, abs=1e-14)


def test_sweep_errors_shrink():
    rows = convergence_sweep(2, 0, [4, 8, 16])
    errs = _component_errors(rows, "psi_mp")
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < errs[0]


def test_sweep_velocity_scaling():
    rows = convergence_sweep(2, Fraction(3, 5), [4, 8])
    assert {(row.P, row.Q) for row in rows} == {(4, 2), (8, 4)}
    with pytest.raises(DomainError):
        convergence_sweep(2, Fraction(3, 5), [5])  # 5 not a multiple of 2
    with pytest.raises(DomainError):
        convergence_sweep(2, Fraction(1, 3), [4])  # not a spectrum velocity
    with pytest.raises(InvalidParameterError, match="t must be > 0"):
        convergence_sweep(0, 0, [4])
    for t, v in ((float("nan"), 0), (float("inf"), 0), (2, float("nan"))):
        with pytest.raises(InvalidParameterError, match="finite"):
            convergence_sweep(t, v, [4])


def test_deviation_rows_against_a_zero_reference():
    # P = 1 leaves the right axis no counted bend, so psi_pp is exactly 0;
    # against a zero reference rel_err is 0 for a zero deviation, else inf
    spec = LatticeSpec(1, 2, Fraction(1))
    parts = exact_parts(spec)
    assert parts["psi_pp"] == (0, 0) and parts["psi_mm"] != (0, 0)
    zero = propagator.PropagatorMatrix(psi_pp=0j, psi_pm=1 + 0j,
                                       psi_mp=1 + 0j, psi_mm=0j)
    rows = {row.component: row
            for row in propagator._deviation_rows(spec, parts, zero)}
    assert rows["psi_pp"].abs_err == 0.0 and rows["psi_pp"].rel_err == 0.0
    assert rows["psi_mm"].abs_err > 0.0
    assert rows["psi_mm"].rel_err == float("inf")


# P = 1 or Q = 1 (an empty diagonal row), P = Q (one row for both axes),
# P != Q both ways, and the refine benchmark's largest sizes
PARTS_SIZES = [(1, 1), (1, 6), (5, 1), (7, 2), (3, 11), (9, 9), (64, 32),
               (256, 128), (128, 256), (192, 128)]


@pytest.mark.parametrize("P,Q", PARTS_SIZES)
@pytest.mark.parametrize("spec,component", LATTICES, ids=SPEC_IDS)
def test_parts_match_each_sector(spec, component, P, Q):
    # the mixed sum is evaluated once and reported twice; each mixed
    # orientation evaluated on its own must give that same value
    lattice = spec(P, Q, Fraction(5, 3))
    parts = exact_parts(lattice)
    assert parts["psi_pm"] == parts["psi_mp"]
    for name, (start, end) in SECTORS.items():
        assert parts[name] == \
            component(P, Q, start, end).evaluate_exact(lattice.step)
    # one segment on an axis leaves that axis's diagonal sector no path
    assert (P > 1, Q > 1) == (parts["psi_pp"] != (0, 0),
                              parts["psi_mm"] != (0, 0))


def test_parts_build_no_amplitude_polynomial(monkeypatch):
    def refuse(*args):
        raise AssertionError("AmplitudePolynomial built")

    cases = [(component, spec(P, Q, Fraction(7, 4)))
             for P, Q in ((1, 3), (4, 4), (6, 5))
             for spec, component in LATTICES]
    want = [{name: fraction_per_term(component(spec.P, spec.Q, *dirs),
                                     spec.step)
             for name, dirs in SECTORS.items()}
            for component, spec in cases]
    monkeypatch.setattr(propagator, "AmplitudePolynomial", refuse)
    with pytest.raises(AssertionError):
        exact_component(2, 2, R, L)
    assert [exact_parts(spec) for _, spec in cases] == want


def assert_parts_equal_oracle(P, Q, t):
    """exact_parts at (P, Q, t) on both lattices equals the Fraction-per-term
    oracle applied to each sector polynomial."""
    for spec, component in LATTICES:
        lattice = spec(P, Q, t)
        parts, step = exact_parts(lattice), lattice.step
        polys = {name: component(P, Q, *dirs) for name, dirs in SECTORS.items()}
        # the two mixed sectors are one polynomial: run the oracle once
        assert polys["psi_pm"] == polys["psi_mp"]
        oracle = {name: fraction_per_term(polys[name], step)
                  for name in ("psi_pp", "psi_pm", "psi_mm")}
        oracle["psi_mp"] = oracle["psi_pm"]
        for name in polys:
            assert parts[name] == oracle[name], \
                (P, Q, t, name, component.__name__)


@given(P=st.integers(min_value=1, max_value=64),
       Q=st.integers(min_value=1, max_value=64),
       t=st.fractions(min_value=Fraction(1, 1000), max_value=1000,
                      max_denominator=1000))
@settings(max_examples=60, deadline=None)
def test_parts_equal_fraction_per_term_oracle(P, Q, t):
    assert_parts_equal_oracle(P, Q, t)


@pytest.mark.parametrize("P,Q", [(512, 512), (384, 256)])
def test_large_parts_equal_fraction_per_term_oracle(P, Q):
    assert_parts_equal_oracle(P, Q, Fraction(2))


def test_lattice_cap_refuses_before_any_table():
    assert DEFAULT_LATTICE_CAP >= 385  # the refine benchmark's largest P + Q
    elem_sym_table.cache_clear()
    with pytest.raises(ResourceLimitError, match=f"cap {DEFAULT_LATTICE_CAP}"):
        exact_parts(LatticeSpec(P=DEFAULT_LATTICE_CAP, Q=1, t=Fraction(1)))
    with pytest.raises(ResourceLimitError, match="P \\+ Q = 8 exceeds lattice cap 7"):
        exact_parts(LatticeSpec(P=5, Q=3, t=Fraction(1)), cap=7)
    assert sorted(propagator._odd_row) == []
    with pytest.raises(ResourceLimitError, match="cap 7"):
        linear_parts(LinearSpec(P=5, Q=3, t=Fraction(1)), cap=7)
    # the cap bounds P + Q inclusively, and raising it admits the lattice
    assert exact_parts(LatticeSpec(P=5, Q=3, t=Fraction(1)), cap=8) == \
        exact_parts(LatticeSpec(P=5, Q=3, t=Fraction(1)))


def test_sweeps_check_every_size_before_the_first(monkeypatch):
    def no_work(*args):
        raise AssertionError("a size was evaluated before the refusal")

    # both sweeps evaluate every size through exact_parts
    monkeypatch.setattr(propagator, "exact_parts", no_work)
    with pytest.raises(ResourceLimitError, match="P \\+ Q = 24 exceeds"):
        convergence_sweep(2, Fraction(3, 5), [4, 16], cap=20)
    with pytest.raises(ResourceLimitError, match="P \\+ Q = 32 exceeds"):
        linear_converge(2, 0, [8, 9, 32], cap=31)
    # and an admitted sweep does reach the patched evaluation
    with pytest.raises(AssertionError, match="evaluated"):
        convergence_sweep(2, Fraction(3, 5), [4], cap=20)
    with pytest.raises(AssertionError, match="evaluated"):
        linear_converge(2, 0, [8], cap=31)
