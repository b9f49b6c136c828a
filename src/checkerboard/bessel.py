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
_sum states how the terms are summed and where the sum stops.
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
J0 = 1 and J1 = s/2 (the next terms are under half an ulp): such s are
found by index, run the recurrence as s = 1 (their 2/s is set to 2,
with no copy of the array) and take those values. numpy is imported on
the grid route's first call, so the scalar route loads none.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import ceil, inf, log2, nextafter, ulp

from .errors import InvalidParameterError, OutOfRangeError, check_real

MAX_SERIES_TERMS = 200
SERIES_WINDOW = 50.0

_LOG2_E = 1.4426950408889634
_TOL = 1e-16  # the scalar series' default stop tolerance
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


def _sum(p: int, q: int, num: int, sh: int, bits: int, order: int,
         tol: float) -> tuple[int, int, int, int]:
    """Fixed-point sum of the order-0 or order-1 series at s = p / q, with
    (s/2)^2 = num / 2^sh and bits (+ extra) fractional bits.

    Returns (total, term, k, extra): the sum of the first k terms, the
    first omitted |term| and the extra bits J1 below s = 1 takes. The sum
    stops once the next term starts a decreasing tail and is below
    tol * (|partial sum| + 1), or at MAX_SERIES_TERMS terms; for J1 below
    s = 1 the stop is tol * |partial sum|, relative to the value's size.

    The terms grow up to the peak index, the first k >= 1 with
    num <= div[k] << sh, that is div[k] >= ceil(num / 2^sh): a bisection
    finds it, and the head before it is summed in pairs with no test and
    no sign branch. From the peak on the magnitudes do not increase and
    the signs alternate, so every later partial sum lies within term_peak
    of the sum S_peak there. As fl(tol * fl(x)) is monotone in x, a term
    at least hoisted = tol * (|S_peak| + term_peak + floor) passes the
    exact test term >= tol * (|total| + floor). The tail therefore tests
    term >= hoisted or the exact test: the int comparison decides most
    terms, and the float one runs only where it fails, so the sum stops
    at the same k as the exact test alone. An int term meets h exactly
    when it meets ceil(h), so hoisted is rounded up once (ceil(inf)
    raises: an infinite bound stays). The tail adds at even k and
    subtracts at odd k in pairs, testing every term; an odd peak first
    takes one subtracting step.
    """
    # J1(s) is about s/2: below s = 1, about log2(1/s) more bits keep its
    # 64 significant bits, and the stop test scales with it
    extra = max(0, q.bit_length() - p.bit_length()) if order and p else 0
    bits += extra
    floor = 0 if extra else 1 << bits  # the stop test's floor on |sum|
    div = _DIVISORS[order]  # term_{k+1} = term_k * num / 2^sh / div[k]
    # q is a power of two: 2 q = 2^bitlength(q)
    term = (p << bits) >> q.bit_length() if order else 1 << bits
    peak = bisect_left(div, -(-num >> sh), 1)  # k <= 24 as s <= 50
    total = 0  # term holds |term_k|
    for k in range(0, peak - 1, 2):
        total += term
        term = (term * num >> sh) // div[k]
        total -= term
        term = (term * num >> sh) // div[k + 1]
    if peak & 1:
        total += term
        term = (term * num >> sh) // div[peak - 1]
    k = peak
    hoisted = tol * (abs(total) + term + floor)
    if hoisted != inf:
        hoisted = ceil(hoisted)
    if k & 1 and (term >= hoisted or term >= tol * (abs(total) + floor)):
        total -= term
        term = (term * num >> sh) // div[k]
        k += 1
    # runs from an even k, and MAX_SERIES_TERMS is even: div[k + 1] exists
    while k < MAX_SERIES_TERMS and (
            term >= hoisted or term >= tol * (abs(total) + floor)):
        total += term
        term = (term * num >> sh) // div[k]
        if term < hoisted and term < tol * (abs(total) + floor):
            k += 1
            break
        total -= term
        term = (term * num >> sh) // div[k + 1]
        k += 2
    return total, term, k, extra


def _setup(s: float) -> tuple[int, int, int, int, int]:
    """_sum's (p, q, num, sh, bits) at the float s, which is refused past
    float range and outside [0, SERIES_WINDOW] with OutOfRangeError."""
    if type(s) is not float:  # a float's NaN or inf fails the window
        s = check_real("Bessel argument s", s, OutOfRangeError)
    _check_window(s, s)
    p, q = s.as_integer_ratio()
    return p, q, p * p, 2 * q.bit_length(), ceil(s * _LOG2_E) + 64


def _series(s: float, order: int, tol: float) -> SeriesResult:
    """_sum at s with its error bound (see the module docstring)."""
    tol = check_real("tol", tol, InvalidParameterError, positive=True)
    p, q, num, sh, bits = _setup(s)
    total, term, k, extra = _sum(p, q, num, sh, bits, order, tol)
    one = 1 << (bits + extra)
    # The terms decrease from here on (at the cap too, since s <= 402), so
    # the first omitted term bounds the tail.
    rounding = (k + 1) << (bits - 63)
    value = total / one
    bound = nextafter((term + rounding) / one, inf) + ulp(value) / 2
    return SeriesResult(value, k, nextafter(bound, inf))


def bessel_j0(s: float, tol: float = _TOL) -> SeriesResult:
    """J0(s) for 0 <= s <= SERIES_WINDOW, with its error bound."""
    return _series(s, 0, tol)


def bessel_j1(s: float, tol: float = _TOL) -> SeriesResult:
    """J1(s) for 0 <= s <= SERIES_WINDOW, with its error bound."""
    return _series(s, 1, tol)


def bessel_j0_j1(s: float) -> tuple[float, float]:
    """(bessel_j0(s).value, bessel_j1(s).value), bit for bit, with the
    setup shared by both orders and no record or bound built. The two
    term chains stay separate: one chain would floor different integers."""
    p, q, num, sh, bits = _setup(s)
    j0 = _sum(p, q, num, sh, bits, 0, _TOL)[0] / (1 << bits)
    total, _, _, extra = _sum(p, q, num, sh, bits, 1, _TOL)
    return j0, total / (1 << (bits + extra))


def j0_j1_values(s) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise (J0, J1) over a float64 array of any shape."""
    import numpy as np
    try:
        arr = np.asarray(s, dtype=np.float64)
    except OverflowError:
        raise OutOfRangeError("Bessel arguments past float range") from None
    flat = arr.reshape(-1)
    if not flat.size:
        return np.empty_like(arr), np.empty_like(arr)
    lo, hi = float(flat.min()), float(flat.max())
    _check_window(lo, hi)
    with np.errstate(divide="ignore", over="ignore"):
        inv = 2.0 / flat
    tiny = None
    if lo < _TINY:  # such s run the recurrence as s = 1
        tiny = np.flatnonzero(flat < _TINY)
        inv[tiny] = 2.0
        lo = float(flat.min(where=flat >= _TINY, initial=1.0))
    n = ceil(hi + 8.0 * hi ** (1.0 / 3.0) + 8.0)
    n += n & 1  # even: J_n opens the sum of even orders
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
        j1[tiny] = 0.5 * flat[tiny]
    return j0.reshape(arr.shape), j1.reshape(arr.shape)


def j0_values(s) -> np.ndarray:
    """Elementwise J0 over a float64 array of any shape. It runs the whole
    j0_j1_values pass: a caller that needs J1 too calls that once."""
    return j0_j1_values(s)[0]


def j1_values(s) -> np.ndarray:
    """Elementwise J1 over a float64 array of any shape. It runs the whole
    j0_j1_values pass: a caller that needs J0 too calls that once."""
    return j0_j1_values(s)[1]
