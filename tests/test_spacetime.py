"""Exact-rational spacetime: membership, boosts, velocity spectrum."""

from dataclasses import fields
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from checkerboard.errors import InvalidParameterError, ResourceLimitError
from checkerboard.spacetime import (DEFAULT_SPECTRUM_CAP, BoostMatrix,
                                    MembershipWitness, SpacetimePoint,
                                    apply_boost, boost, compose,
                                    format_rational, is_member, make_point,
                                    matrix_product, parse_rational,
                                    rational_square_root, spectrum_membership,
                                    to_fraction, velocity_spectrum)

nonzero = st.integers(min_value=-1000, max_value=1000).filter(lambda n: n != 0)
rationals = st.fractions(min_value=-10**6, max_value=10**6,
                         max_denominator=10**6)


def test_make_point_examples():
    assert make_point(1, 1, 2, 1) == SpacetimePoint(Fraction(5), Fraction(3))
    assert make_point(1, 1, 1, 1) == SpacetimePoint(Fraction(2), Fraction(0))
    assert make_point(-1, 2, 3, 1) == SpacetimePoint(Fraction(-5), Fraction(-4))


def test_make_point_rejects_zero_generators():
    for bad in [(0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)]:
        with pytest.raises(InvalidParameterError):
            make_point(*bad)


@given(n=nonzero, m=nonzero, p=nonzero, q=nonzero)
def test_make_point_inside_light_cone(n, m, p, q):
    pt = make_point(n, m, p, q)
    assert abs(pt.x) < abs(pt.t)


def test_rational_square_root_examples():
    assert rational_square_root(Fraction(4)) == Fraction(2)
    assert rational_square_root(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_square_root(Fraction(2)) is None
    assert rational_square_root(Fraction(0)) is None
    assert rational_square_root(Fraction(-9)) is None
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InvalidParameterError, match="finite"):
            rational_square_root(bad)


@given(r=rationals.filter(lambda f: f != 0))
def test_rational_square_root_recovers_squares(r):
    root = rational_square_root(r * r)
    assert root == abs(r)


def test_is_member_examples():
    w = is_member(SpacetimePoint(Fraction(5), Fraction(3)))
    assert w == MembershipWitness(n=1, m=1, p=2, q=1)
    # ints and floats are exact rationals too; nan and inf are refused
    for t, x in ((5, 3), (5.0, 3.0), (Fraction(10, 2), 3)):
        assert is_member(SpacetimePoint(t, x)) == w
    for t, x in ((float("nan"), 3), (5, float("nan")), (float("inf"), 3)):
        with pytest.raises(InvalidParameterError):
            is_member(SpacetimePoint(t, x))
    assert is_member(SpacetimePoint(Fraction(3), Fraction(1))) is None
    # light cone itself is excluded (l = 0 would need q = 0)
    assert is_member(SpacetimePoint(Fraction(2), Fraction(2))) is None
    assert is_member(SpacetimePoint(Fraction(0), Fraction(0))) is None


@given(n=nonzero, m=nonzero, p=nonzero, q=nonzero)
def test_witness_soundness(n, m, p, q):
    pt = make_point(n, m, p, q)
    w = is_member(pt)
    assert w is not None
    assert make_point(w.n, w.m, w.p, w.q) == pt
    # canonical form
    assert w.p > 0 and w.q > 0 and w.m > 0


def test_boost_examples():
    # the generator is all a boost stores; its entries follow from it
    assert [f.name for f in fields(BoostMatrix)] == ["p", "q"]
    b = boost(2, 1)
    assert (b.a11, b.a12, b.a21, b.a22) == \
        (Fraction(5, 4), Fraction(-3, 4), Fraction(-3, 4), Fraction(5, 4))
    assert b.velocity == Fraction(3, 5)

    ident = boost(1, 1)
    assert ident.a11 == 1 and ident.a12 == 0

    b31 = boost(3, 1)
    assert (b31.a11, b31.a12) == (Fraction(5, 3), Fraction(-4, 3))
    assert b31.velocity == Fraction(4, 5)


def test_boost_rejects_zero():
    with pytest.raises(InvalidParameterError):
        boost(0, 1)
    with pytest.raises(InvalidParameterError):
        boost(1, 0)


@pytest.mark.parametrize("p, q", [(4, 2), (0, 1), (1, 0), (-2, 1), (-1, -1)])
def test_boost_matrix_refuses_a_generator_that_is_not_canonical(p, q):
    # boost() is the one place that reduces a generator
    with pytest.raises(InvalidParameterError, match="not canonical"):
        BoostMatrix(p, q)


def test_boost_matrix_equals_the_reduced_boost():
    assert BoostMatrix(2, 1) == boost(4, 2) == boost(-2, -1)
    assert BoostMatrix(1, -3) == boost(-1, 3)


@given(p=nonzero, q=nonzero)
def test_boost_determinant_is_one(p, q):
    assert boost(p, q).determinant == 1


@given(p=nonzero, q=nonzero)
def test_boost_generator_canonical(p, q):
    b = boost(p, q)
    assert b.p > 0
    from math import gcd
    assert gcd(b.p, abs(b.q)) == 1
    # sign variants give the identical matrix and generator
    assert boost(-p, -q) == b


def test_apply_boost_examples():
    pt = SpacetimePoint(Fraction(5), Fraction(3))
    assert apply_boost(boost(1, 1), pt) == pt
    moved = apply_boost(boost(2, 1), SpacetimePoint(Fraction(2), Fraction(0)))
    assert moved == SpacetimePoint(Fraction(5, 2), Fraction(-3, 2))
    assert is_member(apply_boost(boost(2, 1), pt)) is not None


@given(n=nonzero, m=nonzero, p=nonzero, q=nonzero, bp=nonzero, bq=nonzero)
def test_membership_preserved_under_boost(n, m, p, q, bp, bq):
    pt = make_point(n, m, p, q)
    assert is_member(apply_boost(boost(bp, bq), pt)) is not None


def test_compose_examples():
    b21 = boost(2, 1)
    assert compose(b21, boost(1, 1)) == b21
    doubled = compose(b21, b21)
    assert doubled == boost(4, 1)
    assert doubled.velocity == Fraction(15, 17)
    assert compose(b21, boost(1, 2)) == boost(1, 1)


@given(p1=nonzero, q1=nonzero, p2=nonzero, q2=nonzero)
def test_compose_closure_law(p1, q1, p2, q2):
    b1, b2 = boost(p1, q1), boost(p2, q2)
    composed = compose(b1, b2)
    assert composed == boost(p1 * p2, q1 * q2)
    # and the generator law agrees with the literal matrix product
    assert matrix_product(b1, b2) == \
        (composed.a11, composed.a12, composed.a21, composed.a22)


@given(p1=nonzero, q1=nonzero, p2=nonzero, q2=nonzero, p3=nonzero, q3=nonzero)
@settings(max_examples=50)
def test_compose_associative(p1, q1, p2, q2, p3, q3):
    b1, b2, b3 = boost(p1, q1), boost(p2, q2), boost(p3, q3)
    assert compose(compose(b1, b2), b3) == compose(b1, compose(b2, b3))


@given(p=nonzero, q=nonzero)
def test_inverse_pair(p, q):
    assert compose(boost(p, q), boost(q, p)) == boost(1, 1)


def test_velocity_spectrum_examples():
    assert velocity_spectrum(1) == [Fraction(0)]
    assert velocity_spectrum(2) == [Fraction(-3, 5), Fraction(0), Fraction(3, 5)]
    with pytest.raises(InvalidParameterError):
        velocity_spectrum(0)


def test_velocity_spectrum_cap():
    # refused before any work: 10**9 would otherwise build 10**18 pairs
    for max_pq in (DEFAULT_SPECTRUM_CAP + 1, 10**9):
        with pytest.raises(ResourceLimitError,
                           match=f"exceeds spectrum cap {DEFAULT_SPECTRUM_CAP}"):
            velocity_spectrum(max_pq)
    with pytest.raises(ResourceLimitError, match="max_pq = 3 exceeds"):
        velocity_spectrum(3, cap=2)
    assert velocity_spectrum(3, cap=3) == velocity_spectrum(3)


def test_velocity_spectrum_equals_the_set_of_all_pairs():
    # the definition: every pair (p, q), one set, sorted; velocity_spectrum
    # keeps only the coprime pairs and no set
    values = set()
    for n in range(1, 65):
        # the pairs with max(p, q) = n join those of max_pq = n - 1
        for m in range(1, n + 1):
            for p, q in ((m, n), (n, m)):
                values.add(Fraction(p * p - q * q, p * p + q * q))
        assert velocity_spectrum(n) == sorted(values), n


def test_velocity_spectrum_at_the_cap():
    # one velocity per coprime pair (p, q) with p, q <= 512, that is
    # 2 (phi(1) + ... + phi(512)) - 1 of them; strictly ascending and
    # symmetric about 0
    assert DEFAULT_SPECTRUM_CAP == 512
    spec = velocity_spectrum(DEFAULT_SPECTRUM_CAP)
    assert len(spec) == 159_703
    assert all(a < b for a, b in zip(spec, spec[1:]))
    assert spec == [-v for v in reversed(spec)]


@pytest.mark.parametrize("max_pq", [1, 2, 3, 5, 8])
def test_velocity_spectrum_properties(max_pq):
    spec = velocity_spectrum(max_pq)
    assert spec == sorted(spec)
    assert all(-1 < v < 1 for v in spec)
    assert all(-v in spec for v in spec)
    assert len(set(spec)) == len(spec)


@given(n=nonzero, m=nonzero, p=nonzero, q=nonzero, bp=nonzero, bq=nonzero)
def test_boosted_velocity_stays_in_spectrum(n, m, p, q, bp, bq):
    moved = apply_boost(boost(bp, bq), make_point(n, m, p, q))
    assert spectrum_membership(moved.x / moved.t) is not None


def test_spectrum_membership_examples():
    assert spectrum_membership(Fraction(0)) == (1, 1)
    assert spectrum_membership(Fraction(3, 5)) == (2, 1)
    assert spectrum_membership(Fraction(1, 3)) is None
    assert spectrum_membership(Fraction(1)) is None
    assert spectrum_membership(Fraction(-9, 8)) is None
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InvalidParameterError, match="finite"):
            spectrum_membership(bad)


@given(p=st.integers(min_value=1, max_value=10**6),
       q=st.integers(min_value=1, max_value=10**6))
def test_spectrum_membership_recovers_boost_generator(p, q):
    assume(gcd(p, q) == 1)
    assert spectrum_membership(boost(p, q).velocity) == (p, q)


def test_rational_serialization():
    assert format_rational(Fraction(5)) == "5/1"
    assert format_rational(Fraction(-3, 5)) == "-3/5"
    assert format_rational(Fraction(6, -10)) == "-3/5"
    assert parse_rational("5/1") == Fraction(5)
    assert parse_rational("-3/5") == Fraction(-3, 5)
    assert parse_rational("+7") == Fraction(7)
    assert parse_rational("-0/9") == 0
    # int() takes spaces, underscores, a signed denominator and non-ASCII
    # digits; parse_rational takes none of them
    for bad in ("1/0", "abc", "1.5", "5/", "1/2/3", " 7 ", "1_0", " 3 / 5",
                "+3/+5", "3/-5", "\u0663", "7\n", ""):
        with pytest.raises(InvalidParameterError, match="rational"):
            parse_rational(bad)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InvalidParameterError, match="finite"):
            format_rational(bad)


def test_to_fraction_gives_python_int_parts():
    # Fraction(np.int64(7)) keeps int64 parts, whose products wrap
    for value, exact in ((np.int64(7), Fraction(7)),
                         (np.int32(-3), Fraction(-3)),
                         (Fraction(np.int64(6), np.int64(4)), Fraction(3, 2)),
                         (Fraction(5, 3), Fraction(5, 3)), (2, Fraction(2)),
                         (0.5, Fraction(1, 2))):
        got = to_fraction(value)
        assert got == exact
        assert (type(got.numerator), type(got.denominator)) == (int, int)


@given(r=rationals)
def test_rational_round_trip(r):
    assert parse_rational(format_rational(r)) == r
