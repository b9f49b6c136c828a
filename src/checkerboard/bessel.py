"""Bessel J0 and J1, the package's one Bessel module.

Both routes sum the power series J0(s) = sum_k (-1)^k (s/2)^(2k) / (k!)^2
and J1(s) = sum_k (-1)^k (s/2)^(2k+1) / (k! (k+1)!) term by term,
term_{k+1} = -term_k (s/2)^2 / d_k with d_k = (k+1)(k+1+order), so the
closed forms lean on no special-function library. The partial sums grow
to about e^s before cancelling to O(1): about s log2(e) bits are lost.

Scalar route (bessel_j0, bessel_j1), the reference for every other number
the package prints. s is taken exactly as the integer ratio p/q of the
float and the terms are summed in fixed point with
F = ceil(s log2 e) + 64 fractional bits, on every platform. Each term is
floored once; an error made at term j reaches term j + m scaled by at
most (s/2)^(2m) / (m!)^2, so K computed terms carry at most
K I0(s) <= K e^s units of 2^-F of rounding, that is K 2^-63 (one bit
spare for the float ceil). error_bound adds that to the tail and to the
final rounding to float64. The sum stops only where the terms decrease
((s/2)^2 <= d_k), so the tail is bounded by its first term; at the
MAX_SERIES_TERMS cap that holds for every s <= 402. Valid on
[0, SERIES_WINDOW].

Grid route (j0_values, j1_values): float64 numpy arrays. On
[0, GRID_WINDOW] the same series, stopping once the worst element has
converged; float64 has no guard bits for the cancellation, and against
mpmath its worst error there is 0.27x of 16u(1 + s) (u = 2^-53), 1.18x by
s = 8. On [GRID_ASYMPTOTIC, SERIES_WINDOW] Hankel's asymptotic expansion,
0.025x of that bound at worst. Arguments in between are refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, inf, isfinite, nextafter, ulp

import numpy as np

from .errors import InvalidParameterError, OutOfRangeError

MAX_SERIES_TERMS = 200
SERIES_WINDOW = 50.0
GRID_WINDOW = 6.0
GRID_ASYMPTOTIC = 16.0

_LOG2_E = 1.4426950408889634


@dataclass(frozen=True)
class SeriesResult:
    """A series value and its bookkeeping. error_bound bounds |value - J(s)|
    at the float s: tail, fixed-point rounding and rounding to float64."""

    value: float
    terms_used: int
    error_bound: float

    def __float__(self) -> float:
        return self.value


def _check_window(lo: float, hi: float, window: float) -> None:
    """Refuse arguments outside [0, window]; NaN fails the test too."""
    if not (0.0 <= lo and hi <= window):
        raise OutOfRangeError(
            f"Bessel arguments [{lo}, {hi}] leave the validity window "
            f"[0, {window}]")


def _series(s: float, order: int, tol: float) -> SeriesResult:
    """Fixed-point sum of the order-0 or order-1 series at s.

    The sum stops once the next term starts a decreasing tail and is below
    tol * (|partial sum| + 1), or at MAX_SERIES_TERMS terms.
    """
    if not (isfinite(tol) and tol > 0):
        raise InvalidParameterError(f"tol must be finite and > 0, got {tol}")
    s = float(s)
    _check_window(s, s, SERIES_WINDOW)
    p, q = s.as_integer_ratio()
    bits = ceil(s * _LOG2_E) + 64
    one = 1 << bits
    num, den = p * p, 4 * q * q  # (s/2)^2 = num / den
    term = one if order == 0 else (p << bits) // (2 * q)
    total = k = 0  # k terms summed; term holds |term_k|

    def decreasing() -> bool:  # |term_k| >= |term_{k+1}| >= ...
        return num <= den * (k + 1) * (k + 1 + order)

    while True:
        total += -term if k & 1 else term
        term = term * num // (den * (k + 1) * (k + 1 + order))
        k += 1
        if k == MAX_SERIES_TERMS or (
                decreasing() and term < tol * (abs(total) + one)):
            break
    # The terms decrease from here on (at the cap too, since s <= 402), so
    # the first omitted term bounds the tail.
    rounding = (k + 1) << (bits - 63)
    value = total / one
    bound = nextafter((term + rounding) / one, inf) + ulp(value) / 2
    return SeriesResult(value, k, nextafter(bound, inf))


def bessel_j0(s: float, tol: float = 1e-16) -> SeriesResult:
    """J0(s) for 0 <= s <= SERIES_WINDOW, with its error bound."""
    return _series(s, 0, tol)


def bessel_j1(s: float, tol: float = 1e-16) -> SeriesResult:
    """J1(s) for 0 <= s <= SERIES_WINDOW, with its error bound."""
    return _series(s, 1, tol)


# 1 / d_k per order, divided once here: a division per term costs more
# than the rest of the grid series' loop body.
_K = np.arange(1.0, MAX_SERIES_TERMS + 1.0)
_INV = (1.0 / (_K * _K), 1.0 / (_K * (_K + 1.0)))


def _series_numpy(s: np.ndarray, order: int) -> np.ndarray:
    half_sq = s * s * 0.25
    total = np.zeros_like(s)
    term = np.ones_like(s) if order == 0 else s * 0.5
    k_min = 0.5 * float(s.max(initial=0.0))
    for k in range(MAX_SERIES_TERMS):
        total += term
        term = -term * half_sq * _INV[order][k]
        if k + 1 >= k_min and float(np.max(np.abs(term), initial=0.0)) < 1e-17:
            break
    return total


def _hankel_coefficients(order: int, count: int = 24):
    """(-1)^(k//2) a_k for P (even k) and Q (odd k), highest power first,
    with a_0 = 1 and a_k = a_{k-1} (4 order^2 - (2k - 1)^2) / (8k)."""
    a = [1.0]
    for k in range(1, count):
        a.append(a[-1] * (4 * order * order - (2 * k - 1) ** 2) / (8 * k))
    signed = [(-1) ** (k // 2) * c for k, c in enumerate(a)]
    return signed[0::2][::-1], signed[1::2][::-1]


_HANKEL = (_hankel_coefficients(0), _hankel_coefficients(1))


def _hankel(s: np.ndarray, order: int) -> np.ndarray:
    """sqrt(2 / (pi s)) (P cos chi - Q sin chi), chi = s - (order/2 + 1/4) pi,
    P and Q by Horner's rule in 1/s^2."""
    even, odd = _HANKEL[order]
    w = 1.0 / (s * s)
    chi = s - (0.25 + 0.5 * order) * np.pi
    return np.sqrt(2.0 / (np.pi * s)) * (
        np.polyval(even, w) * np.cos(chi) - np.polyval(odd, w) / s * np.sin(chi))


def _grid(s, order: int) -> np.ndarray:
    arr = np.asarray(s, dtype=np.float64)
    flat = arr.reshape(-1)
    if flat.size:
        _check_window(float(flat.min()), float(flat.max()), SERIES_WINDOW)
    far = flat >= GRID_ASYMPTOTIC
    near = flat[~far]
    if near.size and float(near.max()) > GRID_WINDOW:
        raise OutOfRangeError(
            f"grid argument {float(near.max())} lies between the series "
            f"window [0, {GRID_WINDOW}] and the asymptotic one "
            f"[{GRID_ASYMPTOTIC}, {SERIES_WINDOW}]")
    out = np.empty_like(flat)
    out[~far] = _series_numpy(near, order)
    out[far] = _hankel(flat[far], order)
    return out.reshape(arr.shape)


def j0_values(s) -> np.ndarray:
    """Elementwise J0 over a float64 array of any shape."""
    return _grid(s, 0)


def j1_values(s) -> np.ndarray:
    """Elementwise J1 over a float64 array of any shape."""
    return _grid(s, 1)
