"""J0/J1, scalar and grid routes, against frozen references, mpmath and
their own error bounds."""

import sys
from fractions import Fraction
from math import ceil, inf, nextafter, sqrt, ulp

import numpy as np
import pytest

from checkerboard import bessel
from checkerboard.bessel import (MAX_SERIES_TERMS, SERIES_WINDOW, bessel_j0,
                                 bessel_j0_j1, bessel_j1, j0_j1_values,
                                 j0_values, j1_values)
from checkerboard.errors import InvalidParameterError, OutOfRangeError
from checkerboard.propagator import (PropagatorMatrix, closed_matrix,
                                     proper_time)

try:
    import mpmath
except ImportError:  # pragma: no cover
    mpmath = None

# 20-digit mpmath evaluations at large arguments, where the alternating
# series cancels about s log10(e) digits.
J0_LARGE = {
    20.0: 0.16702466434058315473,
    30.0: -0.086367983581040211336,
    40.0: 0.0073668905842372895535,
    49.9: 0.045788625467906904725,
}
J1_LARGE = {
    20.0: 0.066833124175850045579,
    30.0: -0.11875106261662293652,
    40.0: 0.12603831803758499921,
    49.9: -0.10279695736888544360,
}
U = 2.0 ** -53  # float64 unit roundoff


def within_16u(s):
    """The accuracy every J0/J1 value must reach: 16u(1 + s)."""
    return 16.0 * U * (1.0 + np.asarray(s, dtype=np.float64))


# 40-digit mpmath evaluations, frozen. Chosen to bracket the zeros of J0
# and to cover the arguments the propagator tests lean on.
J0_TABLE = {
    0.0: 1.0,
    0.5: 0.93846980724081290423,
    1.0: 0.76519768655796655145,
    1.6: 0.45540216763938071331,
    2.0: 0.22389077914123566805,
    2.4048255576957727686: 0.0,  # first zero, to float precision
    5.0: -0.17759677131433830435,
    10.0: -0.24593576445134833520,
}
J1_TABLE = {
    0.0: 0.0,
    0.5: 0.24226845767487388638,
    1.0: 0.44005058574493351596,
    2.0: 0.57672480775687338720,
    5.0: -0.32757913759146522204,
    10.0: 0.04347274616886143667,
}


def test_j0_against_frozen_table():
    for s, ref in J0_TABLE.items():
        assert bessel_j0(s).value == pytest.approx(ref, abs=1e-12), s


def test_j1_against_frozen_table():
    for s, ref in J1_TABLE.items():
        assert bessel_j1(s).value == pytest.approx(ref, abs=1e-12), s


# (s, value, terms_used, error_bound) of the scalar series, frozen from the
# implementation whose loop recomputed each term's divisor; the tighter
# loop must return the same bits. The J1 rows below s = 1 (1e-08 and 0.5)
# carry the bound whose rounding term counts the extra bits there.
J0_SERIES_BITS = [
    (0.0, 1.0, 1, 1.1123914289701278e-16),
    (1e-08, 1.0, 1, 1.3623000297280366e-16),
    (0.5, 0.9384698072408131, 7, 2.0301685679791075e-16),
    (1.73, 0.38062760162703285, 11, 5.4880958718500634e-17),
    (6.0, 0.15064525725099703, 19, 1.0733516804311771e-16),
    (12.0, 0.047689310796833556, 29, 2.4087856779568795e-17),
    (20.0, 0.16702466434058316, 41, 2.736741615343688e-17),
    (45.0, 0.11581867067325642, 75, 1.2436164070584154e-16),
    (49.9, 0.04578862546790685, 82, 7.074798449530829e-17),
    (50.0, 0.05581232766925174, 82, 9.339808166866018e-17),
]
J1_SERIES_BITS = [
    (0.0, 0.0, 1, 2.16840434497101e-19),
    (1e-08, 5e-09, 1, 4.776079464570095e-25),
    (0.5, 0.2422684576748739, 7, 1.8892222855559918e-17),
    (1.73, 0.5793234669251777, 11, 5.866889005862187e-17),
    (6.0, -0.2766838581275656, 19, 4.361732634414976e-17),
    (12.0, -0.22344710449062768, 28, 1.0095669086537154e-16),
    (20.0, 0.06683312417585001, 40, 4.802163761830276e-17),
    (45.0, 0.028348854376424558, 75, 4.2298518296715335e-17),
    (49.9, -0.10279695736888546, 82, 3.345677801767593e-17),
    (50.0, -0.09751182812517516, 82, 4.031420467200586e-17),
]


def series_bits(r):
    """(value, terms_used, error_bound) with floats as hex, so -0.0 and
    0.0 differ too."""
    return r.value.hex(), r.terms_used, r.error_bound.hex()


@pytest.mark.parametrize("fn, table", [(bessel_j0, J0_SERIES_BITS),
                                       (bessel_j1, J1_SERIES_BITS)])
def test_series_bits_frozen(fn, table):
    for s, value, terms, bound in table:
        assert series_bits(fn(s)) == (value.hex(), terms, bound.hex()), s


def test_series_bits_frozen_loose_tol():
    assert series_bits(bessel_j0(12.0, tol=1e-6)) == (
        (0.04768948232136961).hex(), 21, (1.8435914821274317e-07).hex())
    assert series_bits(bessel_j1(12.0, tol=1e-6)) == (
        (-0.22344770282505907).hex(), 20, (6.452570187402643e-07).hex())


def oracle_series(s, order, tol):
    """(value, terms_used, error_bound) by one division of each term by
    the whole integer 4 q^2 (k + 1)(k + 1 + order) and a stop test after
    every term: the loop that the shift and small divisor in bessel must
    match bit for bit, frozen here."""
    p, q = s.as_integer_ratio()
    extra = max(0, q.bit_length() - p.bit_length()) if order and p else 0
    bits = ceil(s * 1.4426950408889634) + 64 + extra
    one = 1 << bits
    floor = 0 if extra else one
    num, den = p * p, 4 * q * q
    term = one if order == 0 else (p << bits) // (2 * q)
    total = k = 0
    d = den * (1 + order)
    while True:
        total += -term if k & 1 else term
        term = term * num // d
        k += 1
        d = den * (k + 1) * (k + 1 + order)
        if k == MAX_SERIES_TERMS or (
                num <= d and term < tol * (abs(total) + floor)):
            break
    rounding = (k + 1) << (bits - 63 - extra)
    value = total / one
    bound = nextafter((term + rounding) / one, inf) + ulp(value) / 2
    return value, k, nextafter(bound, inf)


# 5,000 seeded arguments over the window, 1,000 in [0, 2) where J1 below
# s = 1 carries extra bits, and the edges: zero, subnormal and tiny s, the
# grid's 2^-27, both sides of 1, and the top of the window.
DENSE_S = sorted({*np.random.default_rng(16).uniform(0.0, 50.0, 5000).tolist(),
                  *np.random.default_rng(17).uniform(0.0, 2.0, 1000).tolist(),
                  0.0, 5e-324, 1e-300, 2.0 ** -27, nextafter(1.0, 0.0), 1.0,
                  nextafter(1.0, 2.0), 2.0, 49.999999999, 50.0})


# tol >= 1 stops on the first decreasing term, where a stop test one
# divisor early would differ; from 1e300 up the hoisted bound is infinite
@pytest.mark.parametrize("tol", [1e-300, 1e-16, 1e-6, 0.5, 2.0, 1e3, 1e10,
                                 1e300, sys.float_info.max])
def test_series_bits_equal_frozen_loop(tol):
    for s in DENSE_S:
        for order, fn in ((0, bessel_j0), (1, bessel_j1)):
            value, terms, bound = oracle_series(s, order, tol)
            assert series_bits(fn(s, tol=tol)) == (
                value.hex(), terms, bound.hex()), (order, s)


def test_j0_j1_pair_equals_the_two_series():
    for s in DENSE_S:
        j0, j1 = bessel_j0_j1(s)
        assert (j0.hex(), j1.hex()) == (bessel_j0(s).value.hex(),
                                        bessel_j1(s).value.hex()), s


def oracle_steps(s, order):
    """(k, S_k, |term_k|, decreasing, floor) along the oracle's loop for
    k <= MAX_SERIES_TERMS: the sum of the first k terms, the next term,
    whether the terms from k on decrease (num <= 4 q^2 d_k) and the stop
    test's floor on |sum|."""
    p, q = s.as_integer_ratio()
    extra = max(0, q.bit_length() - p.bit_length()) if order and p else 0
    bits = ceil(s * 1.4426950408889634) + 64 + extra
    floor = 0 if extra else 1 << bits
    num, den = p * p, 4 * q * q
    term = 1 << bits if order == 0 else (p << bits) // (2 * q)
    total = 0
    for k in range(MAX_SERIES_TERMS + 1):
        yield k, total, term, num <= den * (k + 1) * (k + 1 + order), floor
        total += -term if k & 1 else term
        term = term * num // (den * (k + 1) * (k + 1 + order))


def oracle_peak(s, order):
    """(k, S_k, |term_k|, floor) at the first k >= 1 where the terms start
    to decrease, found by linear search."""
    return next((k, total, term, floor)
                for k, total, term, down, floor in oracle_steps(s, order)
                if k and down)


def just_above(d):
    """The least float s with (s/2)^2 > d."""
    s = 2.0 * sqrt(d)
    while Fraction(s) ** 2 > 4 * d:
        s = nextafter(s, 0.0)
    while Fraction(s) ** 2 <= 4 * d:
        s = nextafter(s, inf)
    return s


def test_peak_index_equals_linear_search():
    # At s = 2m, (s/2)^2 is J0's divisor m^2 itself, so the peak is there;
    # just above a divisor of either order it is one index further. A tol
    # no term reaches stops the sum exactly at the peak.
    cases = [(0, 2.0 * m) for m in range(1, 26)]
    cases += [(0, just_above(m * m)) for m in range(1, 25)]
    cases += [(1, just_above(m * (m + 1))) for m in range(1, 25)]
    for order, s in cases:
        fn = (bessel_j0, bessel_j1)[order]
        assert fn(s, tol=1e300).terms_used == oracle_peak(s, order)[0], (
            order, s)


# (order, s, tol) whose exact stop term lies in the hoisted band
# [tol (|S_peak| + floor), tol (|S_peak| + term_peak + floor)): there the
# exact test ends the sum while a bound without term_peak would run on
HOISTED_BAND = [(0, 3.213, 0.7), (0, 3.889, 1.0), (1, 4.028, 0.9),
                (0, 11.841, 2.0), (1, 36.729, 2.0)]


def test_exact_stop_inside_hoisted_band():
    for order, s, tol in HOISTED_BAND:
        fn = (bessel_j0, bessel_j1)[order]
        value, terms, bound = oracle_series(s, order, tol)
        assert series_bits(fn(s, tol=tol)) == (
            value.hex(), terms, bound.hex()), (order, s)
        _, total, peak_term, floor = oracle_peak(s, order)
        stop = next(term for k, _, term, _, _ in oracle_steps(s, order)
                    if k == terms)
        assert (tol * (abs(total) + floor) <= stop
                < tol * (abs(total) + peak_term + floor)), (order, s)


def sum_at(s, order, tol):
    """bessel._sum at s with the setup of bessel_j0 and bessel_j1, outside
    the window too."""
    p, q = s.as_integer_ratio()
    bits = ceil(s * 1.4426950408889634) + 64
    return bessel._sum(p, q, p * p, 2 * q.bit_length(), bits, order, tol)


def test_tail_pairs_up_to_the_cap():
    # Beyond the window the terms are still far from zero at the cap: at
    # s = 200 (peak index 99, odd) and s = 202 (peak 100, even) a tol no
    # term meets runs the hoisted pairs to the cap. A tol whose integer
    # bound lies just above term 199 (or term 198) leaves the pairs there,
    # at an odd (even) k, and the exact test adds the rest.
    for s in (200.0, 202.0):
        for order in (0, 1):
            peak, peak_total, peak_term, floor = oracle_peak(s, order)
            assert peak == (99 if s == 200.0 else 100)
            terms = [term for _, _, term, _, _ in oracle_steps(s, order)]
            *_, (_, total, term, _, _) = oracle_steps(s, order)
            want = (total, term, MAX_SERIES_TERMS, 0)
            assert sum_at(s, order, 1e-300) == want, (s, order)
            band = abs(peak_total) + peak_term + floor
            for last in (199, 198):
                tol = 2 * terms[last] / band
                assert terms[last] < ceil(tol * band) <= terms[last - 1]
                assert sum_at(s, order, tol) == want, (s, order, last)


def test_tight_tol_stops_where_the_floored_terms_vanish():
    # at s = 50 the floored terms reach zero after 104 of them, long before
    # the cap, so even tol = 1e-300 ends there
    for fn in (bessel_j0, bessel_j1):
        assert fn(50.0, tol=1e-300).terms_used == 104 < MAX_SERIES_TERMS


def matrix_bits(m):
    return [(c.real.hex(), c.imag.hex())
            for c in (m.psi_pp, m.psi_pm, m.psi_mp, m.psi_mm)]


def test_closed_matrix_equals_frozen_loop():
    # 2,000 points: 1,600 boosted over the window, 400 of them with s in
    # (40, 50), and 400 next to the light cone at t = 1, |x| = 1 - delta
    rng = np.random.default_rng(18)
    s = np.concatenate([rng.uniform(0.0, 50.0, 1200),
                        rng.uniform(40.0, 50.0, 400)])
    eta = rng.uniform(-3.0, 3.0, s.size)
    cone = 1.0 - np.logspace(-15.0, -1.0, 400)
    ts = np.concatenate([s * np.cosh(eta), np.ones(400)])
    xs = np.concatenate([s * np.sinh(eta), cone * np.resize([1.0, -1.0], 400)])
    for t, x in zip(ts.tolist(), xs.tolist()):
        r = proper_time(t, x)
        j0 = oracle_series(r, 0, 1e-16)[0]
        j1 = oracle_series(r, 1, 1e-16)[0]
        want = PropagatorMatrix(complex(0.0, (t + x) / r * j1),
                                complex(j0, 0.0), complex(j0, 0.0),
                                complex(0.0, (t - x) / r * j1))
        assert matrix_bits(closed_matrix(t, x)) == matrix_bits(want), (t, x)


def test_closed_matrix_builds_no_series_record(monkeypatch):
    def refuse(*args):
        raise AssertionError("SeriesResult built")

    want = matrix_bits(closed_matrix(5.0, 3.0))
    monkeypatch.setattr(bessel, "SeriesResult", refuse)
    with pytest.raises(AssertionError):
        bessel_j0(4.0)
    assert matrix_bits(closed_matrix(5.0, 3.0)) == want


def test_zero_argument():
    r0 = bessel_j0(0.0)
    assert r0.value == 1.0
    r1 = bessel_j1(0.0)
    assert r1.value == 0.0


@pytest.mark.skipif(mpmath is None, reason="mpmath not installed")
def test_j1_small_argument_linear():
    # Below s = 1 the stop test is tol |sum|, so the first omitted term is
    # below tol |J1| = 0.45u |J1|; with the final rounding the value is
    # within 3u |J1|.
    with mpmath.workdps(30):
        for s in (1e-8, 1e-6, 1e-4):
            exact = mpmath.besselj(1, mpmath.mpf(s))
            err = abs(mpmath.mpf(bessel_j1(s).value) - exact)
            assert err <= 3 * U * exact, s


@pytest.mark.skipif(mpmath is None, reason="mpmath not installed")
def test_j1_below_one_within_two_ulp():
    # |value - J1| <= error_bound <= 2 ulp(J1) on 2001 log-spaced points of
    # [1e-300, 1]; two arguments where a stop test with an absolute floor
    # left 2u are now within half an ulp
    with mpmath.workdps(30):
        for s in np.logspace(-300.0, 0.0, 2001).tolist():
            r = bessel_j1(s)
            exact = mpmath.besselj(1, mpmath.mpf(s))
            err = float(abs(mpmath.mpf(r.value) - exact))
            assert err <= r.error_bound <= 2 * ulp(float(exact)), s
        for s in (4.2210263201569026e-08, 0.011052951411260243):
            exact = mpmath.besselj(1, mpmath.mpf(s))
            err = float(abs(mpmath.mpf(bessel_j1(s).value) - exact))
            assert err <= 0.5 * ulp(float(exact)), s


@pytest.mark.parametrize("s", [0.5, 2.0, 7.5, 15.0])
@pytest.mark.parametrize("fn", [bessel_j0, bessel_j1])
def test_truncation_bound_is_honest(fn, s):
    # a loose tolerance stops the sum early; the first omitted term must
    # still bound the distance to the full sum
    short = fn(s, tol=1e-6)
    full = fn(s)
    assert short.terms_used < full.terms_used
    assert abs(short.value - full.value) <= short.error_bound


def test_default_stop_behavior():
    r = bessel_j0(2.0)
    assert r.terms_used < MAX_SERIES_TERMS
    assert r.error_bound < 1e-15 * (abs(r.value) + 1.0)
    # a loose tolerance stops earlier than a tight one
    loose = bessel_j0(10.0, tol=1e-6)
    tight = bessel_j0(10.0, tol=1e-16)
    assert loose.terms_used < tight.terms_used


def test_derivative_identity():
    # J0' = -J1, by central difference
    h = 1e-6
    for s in (0.8, 2.3, 6.0):
        deriv = (bessel_j0(s + h).value - bessel_j0(s - h).value) / (2 * h)
        assert deriv == pytest.approx(-bessel_j1(s).value, abs=1e-7)


def test_out_of_range():
    with pytest.raises(OutOfRangeError):
        bessel_j0(-0.1)
    with pytest.raises(OutOfRangeError):
        bessel_j1(SERIES_WINDOW + 0.1)
    with pytest.raises(OutOfRangeError):
        bessel_j0(float("nan"))
    with pytest.raises(OutOfRangeError):
        bessel_j1(float("inf"))
    # the boundary itself is allowed
    bessel_j0(SERIES_WINDOW)
    for bad in (float("nan"), float("inf"), -1.0, 0.0):
        with pytest.raises(InvalidParameterError):
            bessel_j0(1.0, tol=bad)
        with pytest.raises(InvalidParameterError):
            bessel_j1(1.0, tol=bad)


@pytest.mark.skipif(mpmath is None, reason="mpmath not installed")
def test_live_mpmath_cross_check():
    mpmath.mp.dps = 30
    for s in (0.1, 0.9, 1.7, 3.3, 4.9, 6.2, 8.8, 10.0):
        assert bessel_j0(s).value == pytest.approx(
            float(mpmath.besselj(0, s)), abs=1e-14)
        assert bessel_j1(s).value == pytest.approx(
            float(mpmath.besselj(1, s)), abs=1e-14)


@pytest.mark.parametrize("s", sorted(J0_LARGE))
def test_large_arguments_against_frozen_mpmath(s):
    for fn, table in ((bessel_j0, J0_LARGE), (bessel_j1, J1_LARGE)):
        r = fn(s)
        assert abs(r.value - table[s]) <= within_16u(s), (fn.__name__, s)
        assert r.error_bound <= within_16u(s)


@pytest.mark.skipif(mpmath is None, reason="mpmath not installed")
def test_scalar_sweep_within_error_bound():
    # |value - J| <= error_bound <= 16u(1 + s) on 2001 points of [0, 50]
    with mpmath.workdps(30):
        for s in np.linspace(0.0, SERIES_WINDOW, 2001).tolist():
            for order, fn in ((0, bessel_j0), (1, bessel_j1)):
                r = fn(s)
                exact = mpmath.besselj(order, mpmath.mpf(s))
                err = float(abs(mpmath.mpf(r.value) - exact))
                assert err <= r.error_bound <= within_16u(s), (order, s)


def scalar_j0(values):
    return np.array([bessel_j0(s).value for s in values])


def scalar_j1(values):
    return np.array([bessel_j1(s).value for s in values])


# 2001 points of [0, 50] and arguments that stress the recurrence: 2/s
# overflowing, subnormal and tiny s whose growth forces the rescaling,
# next to s = 50, which sets the start order for the whole array.
GRID_S = np.linspace(0.0, SERIES_WINDOW, 2001)
ADVERSARIAL = np.array([0.0, 5e-324, 1e-300, 1e-8, 2.0 ** -16, 1e-3,
                        49.9, 50.0])


def mpmath_j0_j1(values):
    with mpmath.workdps(30):
        return (np.array([float(mpmath.besselj(0, v)) for v in values]),
                np.array([float(mpmath.besselj(1, v)) for v in values]))


def per_point(values):
    """Each point as its own array, so the start order fits that point."""
    pairs = [j0_j1_values(np.array([v])) for v in values]
    return (np.concatenate([p[0] for p in pairs]),
            np.concatenate([p[1] for p in pairs]))


@pytest.mark.skipif(mpmath is None, reason="mpmath not installed")
@pytest.mark.parametrize("layout", [per_point, j0_j1_values],
                         ids=["per_point", "one_array"])
def test_grid_within_16u_of_mpmath(layout):
    ref0, ref1 = mpmath_j0_j1(GRID_S.tolist())
    j0, j1 = layout(GRID_S)
    assert np.all(np.abs(j0 - ref0) <= within_16u(GRID_S))
    assert np.all(np.abs(j1 - ref1) <= within_16u(GRID_S))


@pytest.mark.skipif(mpmath is None, reason="mpmath not installed")
@pytest.mark.parametrize("layout", [per_point, j0_j1_values],
                         ids=["per_point", "one_array"])
def test_grid_adversarial_arguments(layout):
    # pytest turns any RuntimeWarning (overflow, 0 * inf) into a failure
    ref0, ref1 = mpmath_j0_j1(ADVERSARIAL.tolist())
    j0, j1 = layout(ADVERSARIAL)
    assert np.all(np.abs(j0 - ref0) <= within_16u(ADVERSARIAL))
    assert np.all(np.abs(j1 - ref1) <= within_16u(ADVERSARIAL))
    assert (j0[0], j1[0]) == (1.0, 0.0)
    # below 2^-27, J1 is s/2 to the last bit
    assert j1[2] == 5e-301 and j1[3] == 5e-9


def test_grid_matches_scalar_route():
    s = np.linspace(0.0, SERIES_WINDOW, 401)
    j0, j1 = j0_j1_values(s)
    assert np.all(np.abs(j0 - scalar_j0(s)) <= within_16u(s))
    assert np.all(np.abs(j1 - scalar_j1(s)) <= within_16u(s))
    assert np.array_equal(j0_values(s), j0)
    assert np.array_equal(j1_values(s), j1)


def test_grid_shape_preserved():
    s = np.linspace(0.5, 3.0, 24).reshape(2, 3, 4)
    out = j0_values(s)
    assert out.shape == (2, 3, 4)
    assert out[1, 2, 3] == pytest.approx(bessel_j0(s[1, 2, 3]).value, abs=1e-13)
    # scalars and lists come back as arrays too
    assert j1_values([1.0, 2.0]).shape == (2,)
    assert j0_values(1.0).shape == ()


def test_grid_empty_array():
    out = j0_values(np.array([]))
    assert out.shape == (0,)
    assert [a.shape for a in j0_j1_values(np.empty((2, 0)))] == [(2, 0)] * 2


def test_grid_range_validation():
    with pytest.raises(OutOfRangeError):
        j0_values(np.array([0.5, -0.01]))
    with pytest.raises(OutOfRangeError):
        j1_values(np.array([51.0]))
    with pytest.raises(OutOfRangeError):
        j0_values(np.array([1.0, np.nan, 2.0]))
    with pytest.raises(OutOfRangeError):
        j0_j1_values([SERIES_WINDOW + 0.1])
    # one route over all of [0, 50], on both sides of 6 and 16
    mixed = np.array([0.0, 6.0, 16.0, SERIES_WINDOW])
    assert j0_values(mixed) == pytest.approx(scalar_j0(mixed), abs=1e-13)
    assert j1_values(mixed) == pytest.approx(scalar_j1(mixed), abs=1e-13)
