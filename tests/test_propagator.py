"""Exact lattice components, closed forms, and the convergence machinery."""

import itertools
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checkerboard.errors import DomainError, InvalidParameterError
from checkerboard.paths import Direction, sector_sum_bruteforce
from checkerboard.propagator import (COMPONENT_ORDER, LatticeSpec,
                                     closed_matrix, convergence_sweep,
                                     elem_sym_table, exact_component,
                                     exact_matrix, exact_parts, gamma_of,
                                     pq_identity_check, psi_mp_term,
                                     series_psi_mp)

R, L = Direction.R, Direction.L

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
    assert t3.e(0) == 1
    assert t3.e(4) == 0
    with pytest.raises(InvalidParameterError):
        elem_sym_table(-1)


def test_elem_sym_against_subset_sums():
    for n in range(0, 11):
        odds = [2 * j - 1 for j in range(1, n + 1)]
        table = elem_sym_table(n)
        for k in range(n + 1):
            assert table.e(k) == brute_elem_sym(odds, k), (n, k)


@pytest.mark.parametrize("n", range(1, 13))
def test_elem_sym_e1_is_square(n):
    assert elem_sym_table(n).e(1) == n * n


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


def test_lattice_spec():
    spec = LatticeSpec(P=5, Q=3, t=Fraction(2))
    assert spec.eps0 == Fraction(2, 34)
    assert spec.v == Fraction(16, 34)
    assert spec.x == spec.t * spec.v
    with pytest.raises(InvalidParameterError):
        LatticeSpec(P=0, Q=3, t=Fraction(1))
    with pytest.raises(InvalidParameterError):
        LatticeSpec(P=1, Q=1, t=Fraction(0))
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InvalidParameterError, match="finite"):
            LatticeSpec(P=1, Q=1, t=bad)


def test_exact_matrix_examples():
    m = exact_matrix(LatticeSpec(P=2, Q=2, t=Fraction(1)))
    assert m.psi_mp == complex(0.984375, 0)
    assert m.psi_pm == m.psi_mp
    m21 = exact_matrix(LatticeSpec(P=2, Q=1, t=Fraction(1)))
    assert m21.psi_pp == complex(0, 0.2)


def test_exact_parts_realness_pattern():
    for P, Q in itertools.product(range(1, 7), range(1, 7)):
        parts = exact_parts(LatticeSpec(P=P, Q=Q, t=Fraction(3, 2)))
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


def test_gamma_of():
    assert gamma_of(0) == 1
    assert gamma_of(Fraction(3, 5)) == Fraction(5, 4)
    assert gamma_of(Fraction(8, 17)) == Fraction(17, 15)
    assert gamma_of(0.6) == pytest.approx(1.25)
    # rational but not a spectrum velocity: falls back to float
    g = gamma_of(Fraction(1, 3))
    assert isinstance(g, float)
    assert g == pytest.approx(1.0606601717798212)
    with pytest.raises(DomainError):
        gamma_of(1)
    with pytest.raises(DomainError):
        gamma_of(-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            gamma_of(bad)


@pytest.mark.parametrize("P,Q", [(5, 3), (2, 1), (7, 7), (12, 5)])
def test_pq_identity(P, Q):
    assert pq_identity_check(P, Q)


def test_series_psi_mp():
    assert series_psi_mp(2.0, 0.0, 1) == complex(1, 0)
    assert series_psi_mp(2.0, 0.0, 30).real == \
        pytest.approx(J0_REF[2.0], abs=1e-12)
    # v = 3/5 gives gamma = 5/4 and s = 1.6
    assert series_psi_mp(2.0, 0.6, 30).real == \
        pytest.approx(J0_REF[1.6], abs=1e-12)
    with pytest.raises(InvalidParameterError):
        series_psi_mp(2.0, 0.0, 0)
    with pytest.raises(DomainError):
        series_psi_mp(2.0, 1.0, 5)


def test_psi_mp_term():
    assert psi_mp_term(4, 4, 1, 1) == complex(1, 0)
    # R = 3: -(P Q eps0)^2
    val = psi_mp_term(2, 2, 1, 3)
    assert val == pytest.approx(complex(-(4 * 0.125) ** 2, 0))
    with pytest.raises(InvalidParameterError):
        psi_mp_term(2, 2, 1, 2)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InvalidParameterError, match="finite"):
            psi_mp_term(2, 2, bad, 1)


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
    for t, v in ((float("nan"), 0), (float("inf"), 0), (2, float("nan"))):
        with pytest.raises(InvalidParameterError, match="finite"):
            convergence_sweep(t, v, [4])


@pytest.mark.parametrize("P,Q", [(1, 1), (7, 2), (3, 11), (64, 32)])
def test_parts_match_each_sector(P, Q):
    # the mixed sum is evaluated once and reported twice; each mixed
    # orientation evaluated on its own must give that same value
    spec = LatticeSpec(P=P, Q=Q, t=Fraction(5, 3))
    parts = exact_parts(spec)
    assert parts["psi_pm"] == parts["psi_mp"]
    for name, (start, end) in (("psi_pp", (R, R)), ("psi_pm", (L, R)),
                               ("psi_mp", (R, L)), ("psi_mm", (L, L))):
        assert parts[name] == \
            exact_component(P, Q, start, end).evaluate_exact(spec.eps0)


@given(P=st.integers(min_value=1, max_value=9),
       Q=st.integers(min_value=1, max_value=9))
@settings(max_examples=30)
def test_exact_matrix_matches_exact_parts(P, Q):
    spec = LatticeSpec(P=P, Q=Q, t=Fraction(7, 4))
    parts = exact_parts(spec)
    m = exact_matrix(spec)
    for name in COMPONENT_ORDER:
        re, im = parts[name]
        assert m.component(name) == complex(float(re), float(im))
