"""Power-series Bessel J0 and J1 in extended precision.

These exist so the closed-form propagator components do not lean on an
external special-function library: the series here are short, auditable,
and independently checkable against reference values. Terms are built by
the recurrence term_{k+1} = -term_k (s/2)^2 / d_k (d_k = (k+1)^2 for J0,
(k+1)(k+2) for J1), accumulated in numpy longdouble. The alternating tail
makes the first omitted term an error bound once the terms are shrinking,
which happens from k ~ s/2 on.

Accuracy note: the partial sums reach magnitude ~exp(s) before cancelling
down to O(1), so roughly s/2.3 digits are lost to cancellation. At 80-bit
precision the results are good to ~1e-15 for s <= 10 and degrade to ~1e-7
near s = 30. The hard ceiling s <= 50 marks where the approach stops
being defensible, not where it is still pretty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidParameterError, OutOfRangeError

MAX_SERIES_TERMS = 200
SERIES_WINDOW = 50.0


@dataclass(frozen=True)
class SeriesResult:
    """A truncated series value with its bookkeeping.

    truncation_bound is the magnitude of the first omitted term; for an
    alternating series in its decreasing regime this bounds the true
    truncation error.
    """

    value: np.longdouble
    terms_used: int
    truncation_bound: float

    def __float__(self) -> float:
        return float(self.value)


def _check_argument(s: float) -> np.longdouble:
    s = float(s)
    if not (0.0 <= s <= SERIES_WINDOW):
        raise OutOfRangeError(
            f"series argument {s} is outside the validity window "
            f"[0, {SERIES_WINDOW}]; the asymptotic regime is not implemented")
    return np.longdouble(s)


def _run_series(first: np.longdouble, half_sq: np.longdouble,
                denom, tol: float, terms: Optional[int],
                s_half: float) -> SeriesResult:
    """Shared accumulation loop.

    denom(k) is the divisor taking term k to term k+1. With terms given,
    exactly that many are summed; otherwise the loop stops once the next
    term is both negligible against the partial sum and already in the
    decreasing regime (k + 1 >= s/2).
    """
    total = np.longdouble(0.0)
    term = first
    used = 0
    while True:
        total += term
        used += 1
        nxt = -term * half_sq / np.longdouble(denom(used - 1))
        if terms is not None:
            if used >= terms:
                return SeriesResult(total, used, float(abs(nxt)))
        else:
            if used >= MAX_SERIES_TERMS:
                return SeriesResult(total, used, float(abs(nxt)))
            if used >= s_half and float(abs(nxt)) < tol * (float(abs(total)) + 1.0):
                return SeriesResult(total, used, float(abs(nxt)))
        term = nxt


def bessel_j0(s: float, tol: float = 1e-16,
              terms: Optional[int] = None) -> SeriesResult:
    """J0(s) = sum_k (-1)^k (s/2)^(2k) / (k!)^2 for 0 <= s <= 50."""
    if terms is not None and terms < 1:
        raise InvalidParameterError("terms must be >= 1 when given")
    sl = _check_argument(s)
    half = sl / 2
    return _run_series(np.longdouble(1.0), half * half,
                       lambda k: (k + 1) * (k + 1), tol, terms, float(half))


def bessel_j1(s: float, tol: float = 1e-16,
              terms: Optional[int] = None) -> SeriesResult:
    """J1(s) = sum_k (-1)^k (s/2)^(2k+1) / ((k+1)! k!) for 0 <= s <= 50."""
    if terms is not None and terms < 1:
        raise InvalidParameterError("terms must be >= 1 when given")
    sl = _check_argument(s)
    half = sl / 2
    return _run_series(half, half * half,
                       lambda k: (k + 1) * (k + 2), tol, terms, float(half))
