"""Bessel J0 and J1, the package's one Bessel module.

Scalar route (bessel_j0, bessel_j1), the reference for every other number
the package prints. It sums the power series
J0(s) = sum_k (-1)^k (s/2)^(2k) / (k!)^2 and
J1(s) = sum_k (-1)^k (s/2)^(2k+1) / (k! (k+1)!) term by term,
term_{k+1} = -term_k (s/2)^2 / d_k with d_k = (k+1)(k+1+order), so the
closed forms lean on no special-function library. The partial sums grow
to about e^s before cancelling to O(1): about s log2(e) bits are lost.
So s is taken exactly as the integer ratio p/q of the float and the terms
are summed in fixed point with F = ceil(s log2 e) + 64 fractional bits,
on every platform (J1 below s = 1, which is about s/2, gets extra =
about log2(1/s) more, so its value keeps 64 significant bits). q is a
power of two, so (s/2)^2 = p^2 / 2^sh with sh = 2 bitlength(q), and each
term is floored once, as (term p^2 >> sh) // d_k: a shift and a small
divisor (d_k <= 40,200 up to the cap) give the integer one division by
4 q^2 d_k gives, since floor(floor(a / 2^sh) / d) = floor(a / (2^sh d)).
Against that one division, the field benchmark's 2,000 closed_matrix
points fell from 0.074 to 0.058 s (sum of best-of times, 2-CPU x86-64).
An error made at term j reaches term j + m scaled by at most
(s/2)^(2m) / (m!)^2, so K computed terms carry at most K I0(s) <= K e^s
units of 2^-F of rounding, that is K 2^-(63 + extra) (one bit spare for
the float ceil). error_bound adds that to the tail and to the final
rounding to float64. The stop test runs only once the terms decrease
(p^2 <= d_k 2^sh, so (s/2)^2 <= d_k), and the tail is bounded by its
first term; at the MAX_SERIES_TERMS cap that holds for every s <= 402.
Valid on [0, SERIES_WINDOW].

Grid route (j0_j1_values; j0_values and j1_values are its halves):
float64 arrays on [0, SERIES_WINDOW], both orders from one pass of
Miller's backward recurrence (Numerical Recipes 6.5, Abramowitz and
Stegun 9.12): J_{k-1} = (2k/s) J_k - J_{k+1} from J_{N+1} = 0, J_N = 1
down to J_0, scaled by J0 + 2 sum_k J_2k = 1. Downwards J_k dominates Y_k,
so rounding errors die out, but the false start leaves a relative error
of order J_N(s)^2. Past the turning point J_{s+d}(s) decays like
exp(-(2 sqrt 2 / 3) d^(3/2) / sqrt s), so J_N^2 < u = 2^-53 needs
d >= 7.24 s^(1/3). N = s + 8 s^(1/3) + 8 at the array's largest s, made
even, rounds that up and adds 8 for small s, where the asymptotic form
fails. Against mpmath on 2001 points of [0, 50], alone and in one array,
the worst error is 0.061x of 16u(1 + s) for J0 and 0.032x for J1
(6 s^(1/3) + 10 in place of 8 s^(1/3) + 8 gives 1.65x, N = s + 30 16x).
A step grows |J| by at most 2N/s + 1; where the smallest s could
overflow, values past 2^500 are scaled by 2^-500 (exact) with their
neighbour and the sum. Below 2^-27, where 2/s can overflow, float64 has
J0 = 1 and J1 = s/2 (the next terms are under half an ulp): such s take
those values.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, inf, isfinite, log2, nextafter, ulp

import numpy as np

from .errors import InvalidParameterError, OutOfRangeError

MAX_SERIES_TERMS = 200
SERIES_WINDOW = 50.0

_LOG2_E = 1.4426950408889634
_TINY = 2.0 ** -27  # grid arguments below it skip the recurrence
_BIG = 2.0 ** 500   # grid recurrence values above it are scaled down
_DIVISORS = tuple(tuple((k + 1) * (k + 1 + order)
                        for k in range(MAX_SERIES_TERMS)) for order in (0, 1))


@dataclass(frozen=True)
class SeriesResult:
    """A series value and its bookkeeping. error_bound bounds |value - J(s)|
    at the float s: tail, fixed-point rounding and rounding to float64."""

    value: float
    terms_used: int
    error_bound: float


def _check_window(lo: float, hi: float) -> None:
    """Refuse arguments outside [0, SERIES_WINDOW]; NaN fails the test too."""
    if not (0.0 <= lo and hi <= SERIES_WINDOW):
        raise OutOfRangeError(
            f"Bessel arguments [{lo}, {hi}] leave the validity window "
            f"[0, {SERIES_WINDOW}]")


def _series(s: float, order: int, tol: float) -> SeriesResult:
    """Fixed-point sum of the order-0 or order-1 series at s.

    The sum stops once the next term starts a decreasing tail and is below
    tol * (|partial sum| + 1), or at MAX_SERIES_TERMS terms. For J1 below
    s = 1 the stop is tol * |partial sum|, relative to the value's size.
    """
    if not (isfinite(tol) and tol > 0):
        raise InvalidParameterError(f"tol must be finite and > 0, got {tol}")
    s = float(s)
    _check_window(s, s)
    p, q = s.as_integer_ratio()
    # J1(s) is about s/2: below s = 1, about log2(1/s) more bits keep its
    # 64 significant bits, and the stop test scales with it
    extra = max(0, q.bit_length() - p.bit_length()) if order and p else 0
    bits = ceil(s * _LOG2_E) + 64 + extra
    one = 1 << bits
    floor = 0 if extra else one  # the stop test's floor on |sum|
    num, sh = p * p, 2 * q.bit_length()  # (s/2)^2 = num / 2^sh
    div = _DIVISORS[order]  # term_{k+1} = term_k * num / 2^sh / div[k]
    term = one if order == 0 else (p << bits) // (2 * q)
    total = k = 0  # k terms summed; term holds |term_k|
    while True:  # up to the peak term, k <= 24 as s <= 50
        total += -term if k & 1 else term
        term = (term * num >> sh) // div[k]
        k += 1
        if num <= div[k] << sh:  # |term_k| >= |term_{k+1}| >= ...
            break
    while k < MAX_SERIES_TERMS and term >= tol * (abs(total) + floor):
        total += -term if k & 1 else term
        term = (term * num >> sh) // div[k]
        k += 1
    # The terms decrease from here on (at the cap too, since s <= 402), so
    # the first omitted term bounds the tail.
    rounding = (k + 1) << (bits - 63 - extra)
    value = total / one
    bound = nextafter((term + rounding) / one, inf) + ulp(value) / 2
    return SeriesResult(value, k, nextafter(bound, inf))


def bessel_j0(s: float, tol: float = 1e-16) -> SeriesResult:
    """J0(s) for 0 <= s <= SERIES_WINDOW, with its error bound."""
    return _series(s, 0, tol)


def bessel_j1(s: float, tol: float = 1e-16) -> SeriesResult:
    """J1(s) for 0 <= s <= SERIES_WINDOW, with its error bound."""
    return _series(s, 1, tol)


def j0_j1_values(s) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise (J0, J1) over a float64 array of any shape."""
    arr = np.asarray(s, dtype=np.float64)
    flat = arr.reshape(-1)
    if not flat.size:
        return np.empty_like(arr), np.empty_like(arr)
    lo, hi = float(flat.min()), float(flat.max())
    _check_window(lo, hi)
    tiny = flat < _TINY if lo < _TINY else None
    if tiny is not None:
        flat = np.where(tiny, 1.0, flat)
        lo = float(flat.min())
    n = ceil(hi + 8.0 * hi ** (1.0 / 3.0) + 8.0)
    n += n & 1  # even: J_n opens the sum of even orders
    inv = 2.0 / flat
    # bound on log2 of the growth; float64 overflows past 2^1024
    rescale = n * log2(2.0 * n / lo + 1.0) > 1000.0
    after = np.zeros_like(flat)  # J_{k+1}
    cur = np.ones_like(flat)     # J_k, k = n down to 0
    even = cur.copy()            # J_n + J_{n-2} + ... + J_2
    step = np.empty_like(flat)
    for k in range(n, 0, -1):
        np.multiply(inv, k, out=step)
        step *= cur
        step -= after
        after, cur, step = cur, step, after
        if k & 1 and k > 1:
            even += cur
        if rescale and (big := np.abs(cur) > _BIG).any():
            for a in (cur, after, even):
                a[big] *= 1.0 / _BIG
    even *= 2.0
    even += cur
    j0 = np.divide(cur, even, out=cur)
    j1 = np.divide(after, even, out=after)
    if tiny is not None:
        j0[tiny] = 1.0
        j1[tiny] = 0.5 * arr.reshape(-1)[tiny]
    return j0.reshape(arr.shape), j1.reshape(arr.shape)


def j0_values(s) -> np.ndarray:
    """Elementwise J0 over a float64 array of any shape. It runs the whole
    j0_j1_values pass: a caller that needs J1 too calls that once."""
    return j0_j1_values(s)[0]


def j1_values(s) -> np.ndarray:
    """Elementwise J1 over a float64 array of any shape. It runs the whole
    j0_j1_values pass: a caller that needs J0 too calls that once."""
    return j0_j1_values(s)[1]
