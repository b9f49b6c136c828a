"""Lattice paths: enumeration oracle, bend bookkeeping, amplitudes."""

import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from checkerboard.errors import InvalidParameterError, ResourceLimitError
from checkerboard.paths import (AmplitudePolynomial, BendRecord, Direction,
                                LatticePath, bend_records, count_paths,
                                enumerate_paths, path_amplitude,
                                sector_sum_bruteforce, total_path_count)

R, L = Direction.R, Direction.L


def P_of(text):
    return LatticePath.from_string(text)


def test_path_parsing_and_counts():
    p = P_of("RRLRLL")
    assert str(p) == "RRLRLL"
    assert p.rights == 3 and p.lefts == 3
    assert p.start_dir is R and p.end_dir is L
    assert p.bends == 3
    assert p.bends_to_left == 2   # R followed by L, twice
    assert p.bends_to_right == 1  # L followed by R, once
    with pytest.raises(InvalidParameterError):
        P_of("RXL")


def test_enumerate_examples():
    assert [str(p) for p in enumerate_paths(2, 1, R, L)] == ["RRL"]
    assert [str(p) for p in enumerate_paths(2, 2, R, L)] == ["RRLL", "RLRL"]
    # single-sector emptiness is a result, not an error
    assert list(enumerate_paths(1, 1, R, R)) == []


def test_enumerate_is_exhaustive_and_ordered():
    for P, Q in itertools.product(range(6), range(6)):
        if P + Q == 0:
            continue
        seen = []
        for start, end in itertools.product((R, L), repeat=2):
            texts = []
            for path in enumerate_paths(P, Q, start, end):
                assert path.rights == P and path.lefts == Q
                assert path.start_dir is start and path.end_dir is end
                texts.append(str(path))
            # lexicographic with R before L
            assert texts == sorted(texts, key=lambda s: s.replace("R", "0")
                                   .replace("L", "1")), (P, Q, start, end)
            seen.extend(texts)
        # every interleaving shows up exactly once across the four sectors
        assert len(seen) == comb(P + Q, P)
        assert len(set(seen)) == len(seen)
    # straight and empty sectors
    assert [str(p) for p in enumerate_paths(0, 3, L, L)] == ["LLL"]
    assert [str(p) for p in enumerate_paths(1, 0, R, R)] == ["R"]
    assert list(enumerate_paths(3, 0, R, L)) == []
    assert list(enumerate_paths(0, 1, R, R)) == []
    assert list(enumerate_paths(0, 0, R, R)) == []


def test_enumeration_cap():
    with pytest.raises(ResourceLimitError, match="cap 24"):
        list(enumerate_paths(13, 12, R, L))
    # explicit cap raise unlocks it
    assert sum(1 for _ in enumerate_paths(13, 12, R, L, cap=25)) > 0
    with pytest.raises(ResourceLimitError, match="cap 10"):
        list(enumerate_paths(6, 5, R, L, cap=10))


def test_figure_fixture_path_present():
    """The worked 8-segment example: P=5, Q=3 admits a 5-bend path with
    two reversals toward the right and three toward the left, of which
    4 are counted."""
    matches = [p for p in enumerate_paths(5, 3, R, L)
               if p.bends == 5 and p.bends_to_right == 2 and p.bends_to_left == 3]
    assert matches, "no 5-bend path in the (5, 3) right-to-left sector"
    for p in matches:
        recs = bend_records(p)
        assert len(recs) == 5
        assert sum(1 for rec in recs if rec.counted) == 4
        assert p.rights + p.lefts == 8


def test_count_paths_examples():
    assert count_paths(5, 3, R, L, 5) == 6
    assert count_paths(2, 1, R, L, 1) == 1
    assert count_paths(3, 3, R, L, 2) == 0  # parity mismatch
    assert count_paths(2, 1, R, R, 2) == 1  # the single path RLR
    with pytest.raises(InvalidParameterError):
        count_paths(-1, 3, R, L, 1)


def test_count_paths_matches_enumeration():
    for P, Q in itertools.product(range(1, 6), range(1, 6)):
        for start, end in itertools.product((R, L), repeat=2):
            by_bends = {}
            for path in enumerate_paths(P, Q, start, end):
                by_bends[path.bends] = by_bends.get(path.bends, 0) + 1
            for bends in range(P + Q + 1):
                assert count_paths(P, Q, start, end, bends) == \
                    by_bends.get(bends, 0), (P, Q, start, end, bends)


def test_count_paths_degenerate_straight():
    # a straight path exists only when the other direction is absent
    assert count_paths(3, 0, R, R, 0) == 1
    assert count_paths(0, 3, L, L, 0) == 1
    assert count_paths(3, 1, R, R, 0) == 0
    assert count_paths(0, 0, R, R, 0) == 0


def test_total_path_count():
    for P, Q in itertools.product(range(1, 6), range(1, 6)):
        for start, end in itertools.product((R, L), repeat=2):
            assert total_path_count(P, Q, start, end) == \
                sum(1 for _ in enumerate_paths(P, Q, start, end))


def test_bend_records_examples():
    assert bend_records(P_of("RRLL")) == [BendRecord(R, 2, False)]
    assert bend_records(P_of("RLRL")) == [
        BendRecord(R, 1, True), BendRecord(L, 1, True), BendRecord(R, 2, False)]
    assert bend_records(P_of("RRR")) == []


def test_bend_records_structure():
    for P, Q in itertools.product(range(1, 6), range(1, 6)):
        for path in enumerate_paths(P, Q, R, L):
            recs = bend_records(path)
            assert len(recs) == path.bends
            assert all(not rec.counted for rec in recs[-1:])
            assert all(rec.counted for rec in recs[:-1])
            # coordinates increase strictly along each side
            for side, bound in ((R, P), (L, Q)):
                coords = [rec.coord for rec in recs if rec.side is side]
                assert coords == sorted(coords)
                assert len(set(coords)) == len(coords)
                assert all(1 <= c <= bound for c in coords)
            # in this sector the determined bend closes the last right run
            assert recs[-1].side is R and recs[-1].coord == P
            counted_r = [rec.coord for rec in recs if rec.counted and rec.side is R]
            counted_l = [rec.coord for rec in recs if rec.counted and rec.side is L]
            assert all(c <= P - 1 for c in counted_r)
            assert all(c <= Q - 1 for c in counted_l)


def test_counted_coords_are_a_bijection():
    """Per sector and bend count, (right coord set, left coord set) is a
    faithful key: distinct paths never collide and the key count matches
    the closed-form path count."""
    for P, Q in itertools.product(range(1, 6), range(1, 6)):
        for start, end in itertools.product((R, L), repeat=2):
            keys = {}
            for path in enumerate_paths(P, Q, start, end):
                recs = bend_records(path)
                key = (path.bends,
                       frozenset(r.coord for r in recs if r.counted and r.side is R),
                       frozenset(r.coord for r in recs if r.counted and r.side is L))
                assert key not in keys, (P, Q, start, end, key)
                keys[key] = path


def test_path_amplitude_examples():
    assert path_amplitude(P_of("RRL")) == AmplitudePolynomial.monomial(0, 1)
    assert path_amplitude(P_of("RLRL")) == AmplitudePolynomial.monomial(2, 1)
    assert path_amplitude(P_of("RRLRLL")) == AmplitudePolynomial.monomial(2, 3)
    assert path_amplitude(P_of("RLR")) == AmplitudePolynomial.monomial(1, 1)


def test_amplitude_polynomial_algebra():
    a = AmplitudePolynomial.monomial(0, 1)
    b = AmplitudePolynomial.monomial(2, 3)
    s = a + b
    assert s.coeff(0) == 1 and s.coeff(2) == 3 and s.coeff(1) == 0
    assert s.orders() == [0, 2]
    assert s + AmplitudePolynomial.zero() == s
    assert AmplitudePolynomial.monomial(1, 0) == AmplitudePolynomial.zero()
    assert s.to_json_dict() == {"0": 1, "2": 3}


def test_amplitude_evaluation_exact():
    poly = AmplitudePolynomial({0: 1, 2: 1})
    re, im = poly.evaluate_exact(Fraction(1, 8))
    assert (re, im) == (Fraction(63, 64), Fraction(0))
    poly_odd = AmplitudePolynomial({1: 1, 3: 15})
    re, im = poly_odd.evaluate_exact(Fraction(1, 2))
    # i/2 + 15 (i/2)^3 = i/2 - 15 i/8
    assert (re, im) == (Fraction(0), Fraction(1, 2) - Fraction(15, 8))


@given(st.dictionaries(st.integers(min_value=0, max_value=12),
                       st.integers(min_value=-1000, max_value=1000),
                       max_size=8),
       st.fractions(min_value=-2, max_value=2, max_denominator=100))
def test_amplitude_evaluation_matches_complex(coeffs, eps0):
    poly = AmplitudePolynomial(coeffs)
    re, im = poly.evaluate_exact(eps0)
    direct = sum(c * (1j * complex(eps0)) ** k for k, c in coeffs.items())
    assert complex(float(re), float(im)) == pytest.approx(direct, abs=1e-6)


def test_sector_sum_examples():
    one = AmplitudePolynomial.monomial(0, 1)
    assert sector_sum_bruteforce(2, 1, R, L) == one
    assert sector_sum_bruteforce(2, 2, R, L) == AmplitudePolynomial({0: 1, 2: 1})
    assert sector_sum_bruteforce(2, 1, R, R) == AmplitudePolynomial.monomial(1, 1)


def test_sector_sum_coefficients_nonnegative():
    for P, Q in itertools.product(range(1, 6), range(1, 6)):
        for start, end in itertools.product((R, L), repeat=2):
            poly = sector_sum_bruteforce(P, Q, start, end)
            assert all(poly.coeff(k) > 0 for k in poly.orders())
