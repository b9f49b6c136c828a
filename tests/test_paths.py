"""Lattice paths: enumeration oracle, bend bookkeeping, amplitudes."""

import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from math import comb
from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from checkerboard.cli import main
from checkerboard.errors import InvalidParameterError, ResourceLimitError
from checkerboard.paths import (DEFAULT_ENUMERATION_CAP, AmplitudePolynomial,
                                Direction, bend_records, count_paths,
                                enumerate_paths, path_amplitude,
                                sector_sum_bruteforce)

R, L = Direction.R, Direction.L


def poly_of(coeffs):
    """The polynomial with coefficient c at order k for each k: c in
    coeffs, built from its even and odd rows with every gap as 0."""
    rows = ([], [])
    for k, c in coeffs.items():
        row = rows[k % 2]
        row.extend([0] * (k // 2 + 1 - len(row)))
        row[k // 2] = c
    return AmplitudePolynomial(*rows)


def fraction_per_term(poly, eps0):
    """Evaluation oracle: one Fraction per term c_k (i eps0)^k, with i^k
    sorted into the real or imaginary part by k mod 4."""
    eps0 = Fraction(eps0)
    re = im = Fraction(0)
    for k in poly.orders():
        term = poly.coeff(k) * eps0 ** k * (1 if k % 4 < 2 else -1)
        if k % 2:
            im += term
        else:
            re += term
    return re, im


def P_of(text):
    return tuple(Direction(c) for c in text)


def text_of(path):
    """The path as the CLI prints it."""
    return "".join(d.value for d in path)


def bends(path):
    """Every reversal of the path, the final one included."""
    return len(bend_records(path))


def test_path_parsing_and_counts(capsys):
    p = P_of("RRLRLL")
    assert text_of(p) == "RRLRLL"
    pairs = bend_records(p)
    assert len(pairs) == 3
    assert [side for side, _ in pairs] == [R, L, R]  # R->L twice, L->R once
    with pytest.raises(ValueError):
        P_of("RXL")
    # hold bend_records to the path's string, and the CLI's counted_bends
    # to "all but the last"
    for P, Q, start, end in itertools.product(range(7), range(7), (R, L),
                                              (R, L)):
        counts = {}
        for path in enumerate_paths(P, Q, start, end):
            text = text_of(path)
            sides = [side for side, _ in bend_records(path)]
            assert sides.count(R) == text.count("RL"), text
            assert sides.count(L) == text.count("LR"), text
            counts[text] = len(sides)
        assert main(["enumerate", "--P", str(P), "--Q", str(Q), "--start",
                     str(start), "--end", str(end), "--format", "json"]) == 0
        entries = json.loads(capsys.readouterr().out)["paths"]
        assert {e["path"]: e["counted_bends"] for e in entries} == {
            text: max(b - 1, 0) for text, b in counts.items()}


def test_enumerate_examples():
    assert [text_of(p) for p in enumerate_paths(2, 1, R, L)] == ["RRL"]
    assert [text_of(p) for p in enumerate_paths(2, 2, R, L)] == [
        "RRLL", "RLRL"]
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
                assert type(path) is tuple
                assert path.count(R) == P and path.count(L) == Q
                assert path[0] is start and path[-1] is end
                texts.append(text_of(path))
            # lexicographic with R before L
            assert texts == sorted(texts, key=lambda s: s.replace("R", "0")
                                   .replace("L", "1")), (P, Q, start, end)
            seen.extend(texts)
        # every interleaving shows up exactly once across the four sectors
        assert len(seen) == comb(P + Q, P)
        assert len(set(seen)) == len(seen)
    # straight and empty sectors
    assert list(enumerate_paths(0, 3, L, L)) == [(L, L, L)]
    assert list(enumerate_paths(1, 0, R, R)) == [(R,)]
    assert list(enumerate_paths(3, 0, R, L)) == []
    assert list(enumerate_paths(0, 1, R, R)) == []
    assert list(enumerate_paths(0, 0, R, R)) == []


def test_enumeration_cap():
    with pytest.raises(ResourceLimitError, match="cap 24"):
        list(enumerate_paths(13, 12, R, L))
    # explicit cap raise unlocks it; the generator checks the cap before
    # its first path, so one path shows the refusal is gone
    assert next(enumerate_paths(13, 12, R, L, cap=25))
    with pytest.raises(ResourceLimitError, match="cap 10"):
        list(enumerate_paths(6, 5, R, L, cap=10))


def test_figure_fixture_path_present():
    """The worked 8-segment example: P=5, Q=3 admits a 5-bend path with
    two reversals toward the right and three toward the left, of which
    4 are counted."""
    matches = [p for p in enumerate_paths(5, 3, R, L)
               if [side for side, _ in bend_records(p)].count(L) == 2
               and bends(p) == 5]
    assert matches, "no 5-bend path in the (5, 3) right-to-left sector"
    for p in matches:
        pairs = bend_records(p)
        assert [side for side, _ in pairs].count(R) == 3
        assert len(pairs[:-1]) == 4  # every bend but the last is counted
        assert len(p) == 8


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
                by_bends[bends(path)] = by_bends.get(bends(path), 0) + 1
            for R_ in range(P + Q + 1):
                assert count_paths(P, Q, start, end, R_) == \
                    by_bends.get(R_, 0), (P, Q, start, end, R_)


def test_count_paths_degenerate_straight():
    # a straight path exists only when the other direction is absent
    assert count_paths(3, 0, R, R, 0) == 1
    assert count_paths(0, 3, L, L, 0) == 1
    assert count_paths(3, 1, R, R, 0) == 0
    assert count_paths(0, 0, R, R, 0) == 0


def test_bend_records_examples():
    assert bend_records(P_of("RRLL")) == [(R, 2)]
    assert bend_records(P_of("RLRL")) == [(R, 1), (L, 1), (R, 2)]
    assert bend_records(P_of("RRR")) == []


def test_bend_records_structure():
    for P, Q in itertools.product(range(1, 6), range(1, 6)):
        for path in enumerate_paths(P, Q, R, L):
            pairs = bend_records(path)
            text = text_of(path)
            assert len(pairs) == text.count("RL") + text.count("LR")
            # coordinates increase strictly along each side
            for side, bound in ((R, P), (L, Q)):
                coords = [c for s, c in pairs if s is side]
                assert coords == sorted(coords)
                assert len(set(coords)) == len(coords)
                assert all(1 <= c <= bound for c in coords)
            # in this sector the determined bend closes the last right run
            assert pairs[-1] == (R, P)
            counted_r = [c for s, c in pairs[:-1] if s is R]
            counted_l = [c for s, c in pairs[:-1] if s is L]
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
                pairs = bend_records(path)
                key = (len(pairs),
                       frozenset(c for s, c in pairs[:-1] if s is R),
                       frozenset(c for s, c in pairs[:-1] if s is L))
                assert key not in keys, (P, Q, start, end, key)
                keys[key] = path


def test_path_amplitude_examples():
    assert path_amplitude(P_of("RRL")) == poly_of({0: 1})
    assert path_amplitude(P_of("RLRL")) == poly_of({2: 1})
    assert path_amplitude(P_of("RRLRLL")) == poly_of({2: 3})
    assert path_amplitude(P_of("RLR")) == poly_of({1: 1})


def test_path_amplitude_is_the_product_over_counted_records():
    # path_amplitude is one monomial: the product over every bend but
    # the last, each giving i (2 coord - 1) eps0
    paths = [P_of(text) for text in ("R", "RRR", "LLL")]
    for total in range(2, 11):
        for P in range(total + 1):
            for start, end in itertools.product((R, L), repeat=2):
                paths.extend(enumerate_paths(P, total - P, start, end))
    for path in paths:
        counted = bend_records(path)[:-1]
        coeff = 1
        for _, coord in counted:
            coeff *= 2 * coord - 1
        assert path_amplitude(path) == poly_of({len(counted): coeff}), \
            text_of(path)


def test_amplitude_polynomial_algebra():
    s = poly_of({0: 1, 1: 0, 2: 3})
    assert s.coeff(0) == 1 and s.coeff(2) == 3 and s.coeff(1) == 0
    assert s.orders() == [0, 2]
    assert poly_of({1: 0}) == AmplitudePolynomial()
    # a non-polynomial is unequal, even the constant that one stands for
    one = AmplitudePolynomial((1,))
    assert (one == 1) is False and (one != 1) is True
    assert repr(s) == "AmplitudePolynomial(1 + 3*(i*eps0)^2)"
    assert s.to_json_dict() == {"0": 1, "2": 3}


def test_row_zeros_are_no_terms():
    # zeros in a gap, at the end of a row, or filling a row change none
    # of the outputs the CLI and the checks read
    plain = AmplitudePolynomial((1, 0, 3), (0, -2))
    for poly in (AmplitudePolynomial((1, 0, 3, 0, 0), (0, -2)),
                 AmplitudePolynomial((1, 0, 3), (0, -2, 0)),
                 AmplitudePolynomial([1, 0, 3, 0], [0, -2, 0, 0])):
        assert poly == plain and plain == poly
        assert poly.orders() == plain.orders() == [0, 3, 4]
        assert [poly.coeff(k) for k in range(-4, 12)] == \
            [plain.coeff(k) for k in range(-4, 12)]
        assert str(poly) == str(plain) == "1 + -2*(i*eps0)^3 + 3*(i*eps0)^4"
        assert poly.to_json_dict() == plain.to_json_dict() == \
            {"0": 1, "3": -2, "4": 3}
    for zero in (AmplitudePolynomial((0,)), AmplitudePolynomial((), (0, 0)),
                 AmplitudePolynomial((0, 0), (0,))):
        assert zero == AmplitudePolynomial() and zero != plain
        assert zero.orders() == [] and str(zero) == "0"
        assert zero.to_json_dict() == {}
        assert zero.coeff(0) == zero.coeff(1) == 0


def test_a_mapping_of_orders_is_refused():
    # tuple() of a dict keeps its keys, so a dict would silently become
    # the row of its orders
    for even, odd in (({0: 1, 2: 3}, ()), ((), {1: 5}), ({}, {}),
                      (MappingProxyType({0: 1}), ()), ((), Counter([1]))):
        with pytest.raises(TypeError, match="not a mapping of orders"):
            AmplitudePolynomial(even, odd)


def test_coeff_outside_the_rows_is_zero():
    poly = AmplitudePolynomial((5, 6), (7, 8))
    assert [poly.coeff(k) for k in range(4)] == [5, 7, 6, 8]
    # a negative order must not wrap round to the end of a row
    assert [poly.coeff(k) for k in (-1, -2, -3, -4, -5)] == [0] * 5
    assert [poly.coeff(k) for k in (4, 5, 6, 99)] == [0] * 4


def test_both_rows_filled_evaluate_to_the_oracle():
    even, odd = (3, -1, 0, 7, 2**90), (-4, 0, 5, 11)
    poly = AmplitudePolynomial(even, odd)
    assert poly.orders() == [0, 1, 2, 5, 6, 7, 8]
    padded = AmplitudePolynomial(even + (0, 0), odd + (0,))
    for eps0 in (Fraction(0), Fraction(1, 3), Fraction(-7, 2), 5):
        assert poly.evaluate_exact(eps0) == fraction_per_term(poly, eps0)
        assert padded.evaluate_exact(eps0) == poly.evaluate_exact(eps0)


def test_straight_path_is_the_one_even_start_is_end_sector():
    # a start-is-end sector has odd orders, but for the straight path,
    # whose amplitude 1 sits at order 0
    straight = sector_sum_bruteforce(3, 0, R, R)
    assert straight == AmplitudePolynomial((1,))
    assert straight.orders() == [0] and straight.coeff(0) == 1
    assert straight == path_amplitude(P_of("RRR"))
    assert sector_sum_bruteforce(3, 1, R, R).orders() == [1]


def test_amplitude_evaluation_exact():
    poly = poly_of({0: 1, 2: 1})
    re, im = poly.evaluate_exact(Fraction(1, 8))
    assert (re, im) == (Fraction(63, 64), Fraction(0))
    poly_odd = poly_of({1: 1, 3: 15})
    re, im = poly_odd.evaluate_exact(Fraction(1, 2))
    # i/2 + 15 (i/2)^3 = i/2 - 15 i/8
    assert (re, im) == (Fraction(0), Fraction(1, 2) - Fraction(15, 8))


@pytest.mark.parametrize("coeffs", [
    {},                          # the zero polynomial
    {0: 7},                      # order 0 only
    {1: 2, 3: -5, 7: 11},        # odd orders only
    {0: -3, 2: 9, 4: 1},         # even orders only
    {0: 1, 1: 2, 5: 3, 8: -4},   # gaps and both parities
    {13: 3**40},                 # one high order, big coefficient
])
@pytest.mark.parametrize("eps0", [
    Fraction(0), Fraction(-3, 7), Fraction(5, 2), Fraction(1, 2**70),
    3, -2, 0.1, -1.75,
])
def test_evaluation_edge_cases_match_oracle(coeffs, eps0):
    poly = poly_of(coeffs)
    re, im = poly.evaluate_exact(eps0)
    assert type(re) is Fraction and type(im) is Fraction
    assert (re, im) == fraction_per_term(poly, eps0)
    if not any(k % 2 == 0 for k in coeffs):
        assert re == 0
    if eps0 == 0:
        assert (re, im) == (coeffs.get(0, 0), 0)


@given(st.dictionaries(st.integers(min_value=0, max_value=40),
                       st.integers(min_value=-10**30, max_value=10**30),
                       max_size=12),
       st.fractions(max_denominator=10**12))
def test_evaluation_equals_oracle(coeffs, eps0):
    poly = poly_of(coeffs)
    assert poly.evaluate_exact(eps0) == fraction_per_term(poly, eps0)


# 2^k - 1, 2^k and 2^k + 1 terms per parity: Estrin's passes pad an odd
# count with a zero at the first pass only, at none, or at all but the last
ESTRIN_COUNTS = sorted({c for k in range(9) for c in (2**k - 1, 2**k, 2**k + 1)
                        if 1 <= c <= 257})


def big_coefficients(count, seed):
    rng = random.Random(seed)
    return [rng.choice((-1, 1)) * (rng.getrandbits(1200) | 1)
            for _ in range(count)]


@pytest.mark.parametrize("count", ESTRIN_COUNTS)
@pytest.mark.parametrize("layout", ["even", "odd", "mixed"])
def test_evaluation_at_every_estrin_padding_matches_oracle(count, layout):
    cs = big_coefficients(count, count)
    if layout == "mixed":  # count terms of each parity, signs mixed
        coeffs = dict(enumerate(cs + big_coefficients(count, -count)))
    else:
        first = 0 if layout == "even" else 1
        coeffs = {first + 2 * j: c for j, c in enumerate(cs)}
    poly = poly_of(coeffs)
    assert len(poly.orders()) == len(coeffs)
    for eps0 in (Fraction(2, 131073), Fraction(-5, 3), Fraction(0)):
        assert poly.evaluate_exact(eps0) == fraction_per_term(poly, eps0), \
            eps0


@given(st.dictionaries(st.integers(min_value=0, max_value=12),
                       st.integers(min_value=-1000, max_value=1000),
                       max_size=8),
       st.fractions(min_value=-2, max_value=2, max_denominator=100))
def test_amplitude_evaluation_matches_complex(coeffs, eps0):
    poly = poly_of(coeffs)
    re, im = poly.evaluate_exact(eps0)
    direct = sum(c * (1j * complex(eps0)) ** k for k, c in coeffs.items())
    assert complex(float(re), float(im)) == pytest.approx(direct, abs=1e-6)


def test_sector_sum_examples():
    one = poly_of({0: 1})
    assert sector_sum_bruteforce(2, 1, R, L) == one
    assert sector_sum_bruteforce(2, 2, R, L) == poly_of({0: 1, 2: 1})
    assert sector_sum_bruteforce(2, 1, R, R) == poly_of({1: 1})


def test_sector_sum_equals_the_per_path_sum():
    # the walk against the definition enumerate prints: one path_amplitude
    # per enumerated path, including empty, one-segment and one-axis sectors
    # and every start and end. P + Q <= 14 holds every such shape with
    # several runs on both axes; the path count doubles per step of this
    # bound (P, Q <= 10 took a fifth of the suite), and test_acceptance.py
    # checks the closed forms against the walk alone up to P + Q = 17.
    for P, Q in itertools.product(range(15), repeat=2):
        if P + Q > 14:
            continue
        for start, end in itertools.product((R, L), repeat=2):
            total = {}
            for path in enumerate_paths(P, Q, start, end):
                amp = path_amplitude(path)
                for k in amp.orders():
                    total[k] = total.get(k, 0) + amp.coeff(k)
            assert sector_sum_bruteforce(P, Q, start, end) == \
                poly_of(total), (P, Q, start, end)


def test_evaluation_of_gapped_bruteforce_sums_matches_oracle():
    # one sector of each parity, summed, with interior orders dropped: the
    # dense gather pads each gap with 0, in both parities
    for P, Q in ((7, 6), (9, 4)):
        coeffs = {}
        for start, end in ((R, L), (R, R)):
            brute = sector_sum_bruteforce(P, Q, start, end)
            coeffs.update((k, brute.coeff(k)) for k in brute.orders())
        gapped = poly_of({k: c for k, c in coeffs.items() if k % 3 != 2})
        assert 1 in gapped.orders() and 5 not in gapped.orders()
        assert 4 in gapped.orders() and 8 not in gapped.orders()
        for eps0 in (Fraction(1, 85), Fraction(-7, 3), Fraction(0)):
            assert gapped.evaluate_exact(eps0) == \
                fraction_per_term(gapped, eps0), (P, Q, eps0)


def test_sector_sum_deep_sectors():
    # thousands of segments on one axis: the walk keeps its own stack, so
    # depth never reaches the interpreter's recursion limit. Where the
    # other axis has one segment left, the pop closes every path itself
    cases = {(3000, 0, R, R): {0: 1}, (2999, 1, R, L): {0: 1},
             (1, 2999, L, R): {0: 1},
             # R^j L R^(2999 - j) for j = 1..2998, one counted bend 2j - 1
             (2999, 1, R, R): {1: 2998 ** 2},
             # L R^j L R^(2998 - j) for j = 1..2997 counts L1 (1) and R_j
             # (2j - 1), the bend at L2 last; L L R^2998 counts none. The
             # closing run ends on end's axis
             (2998, 2, L, R): {0: 1, 2: 2997 ** 2},
             (2, 2998, R, L): {0: 1, 2: 2997 ** 2},
             # R L^j R L^(2997 - j) R for j = 1..2996 counts R1 (1), L_j
             # (2j - 1) and R2 (3), the bend at L2997 last: the closing
             # run ends on the other axis, whose last bend weighs 3. R R
             # L^2997 R counts R2 (3) and R L^2997 R R counts R1 (1)
             (3, 2997, R, R): {1: 3 + 1, 3: 3 * 2996 ** 2},
             (2997, 3, L, L): {1: 3 + 1, 3: 3 * 2996 ** 2}}
    for (P, Q, start, end), coeffs in cases.items():
        assert sector_sum_bruteforce(P, Q, start, end, cap=3000) == \
            poly_of(coeffs), (P, Q, start, end)


def test_sector_sum_refusals():
    over = DEFAULT_ENUMERATION_CAP + 1
    for P in (0, 1, over // 2, over):
        with pytest.raises(ResourceLimitError, match=f"cap {over - 1}"):
            sector_sum_bruteforce(P, over - P, R, L)
    for P, Q in ((-1, 3), (3, -1), (-1, 10**9)):
        with pytest.raises(InvalidParameterError):
            sector_sum_bruteforce(P, Q, R, R)


def test_sector_sum_coefficients_nonnegative():
    for P, Q in itertools.product(range(1, 6), range(1, 6)):
        for start, end in itertools.product((R, L), repeat=2):
            poly = sector_sum_bruteforce(P, Q, start, end)
            assert all(poly.coeff(k) > 0 for k in poly.orders())
