"""Scalar series J0/J1 against frozen references and their own tail bound."""

import pytest

from checkerboard.bessel import (MAX_SERIES_TERMS, SERIES_WINDOW, bessel_j0,
                                 bessel_j1)
from checkerboard.errors import InvalidParameterError, OutOfRangeError

try:
    import mpmath
except ImportError:  # pragma: no cover
    mpmath = None

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
        assert float(bessel_j0(s)) == pytest.approx(ref, abs=1e-12), s


def test_j1_against_frozen_table():
    for s, ref in J1_TABLE.items():
        assert float(bessel_j1(s)) == pytest.approx(ref, abs=1e-12), s


def test_zero_argument():
    r0 = bessel_j0(0.0)
    assert float(r0) == 1.0
    r1 = bessel_j1(0.0)
    assert float(r1) == 0.0


def test_j1_small_argument_linear():
    for s in (1e-8, 1e-6, 1e-4):
        assert float(bessel_j1(s)) == pytest.approx(s / 2, rel=1e-8)


@pytest.mark.parametrize("s", [0.5, 2.0, 7.5, 15.0])
@pytest.mark.parametrize("fn", [bessel_j0, bessel_j1])
def test_truncation_bound_is_honest(fn, s):
    # in the decreasing regime the first omitted term bounds the tail
    base_terms = int(s / 2) + 3
    short = fn(s, terms=base_terms)
    long = fn(s, terms=base_terms + 8)
    assert abs(float(short) - float(long)) <= short.truncation_bound


def test_default_stop_behavior():
    r = bessel_j0(2.0)
    assert r.terms_used < MAX_SERIES_TERMS
    assert r.truncation_bound < 1e-15 * (abs(float(r)) + 1.0)
    # a loose tolerance stops earlier than a tight one
    loose = bessel_j0(10.0, tol=1e-6)
    tight = bessel_j0(10.0, tol=1e-16)
    assert loose.terms_used < tight.terms_used


def test_terms_parameter():
    r = bessel_j0(3.0, terms=1)
    assert float(r) == 1.0
    assert r.terms_used == 1
    r2 = bessel_j1(3.0, terms=2)
    # (s/2) - (s/2)^3 / 2
    assert float(r2) == pytest.approx(1.5 - 1.5 ** 3 / 2, rel=1e-15)
    with pytest.raises(InvalidParameterError):
        bessel_j0(1.0, terms=0)


def test_derivative_identity():
    # J0' = -J1, by central difference
    h = 1e-6
    for s in (0.8, 2.3, 6.0):
        deriv = (float(bessel_j0(s + h)) - float(bessel_j0(s - h))) / (2 * h)
        assert deriv == pytest.approx(-float(bessel_j1(s)), abs=1e-7)


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


@pytest.mark.skipif(mpmath is None, reason="mpmath not installed")
def test_live_mpmath_cross_check():
    mpmath.mp.dps = 30
    for s in (0.1, 0.9, 1.7, 3.3, 4.9, 6.2, 8.8, 10.0):
        assert float(bessel_j0(s)) == pytest.approx(
            float(mpmath.besselj(0, s)), abs=1e-14)
        assert float(bessel_j1(s)) == pytest.approx(
            float(mpmath.besselj(1, s)), abs=1e-14)
