"""Vectorized J0/J1 evaluation for float64 grids.

The finite-difference verification evaluates Bessel functions at every
node of a two-dimensional grid, which is the only hot loop in the package.
The kernels here implement the same truncated alternating series as the
scalar module, but accumulate in float64 numpy arrays: fine for the
s <= ~20 range the grids actually use, and cross-checked against the
extended-precision scalar series in the tests. The 80-bit scalar route
remains the reference; these kernels trade its tail precision for
throughput. The term recurrence multiplies by precomputed reciprocals
(division per term costs more than the whole rest of the loop body), and
the loop stops when the worst element has converged.
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfRangeError

_MAX_TERMS = 200
_WINDOW = 50.0

# 1 / ((k+1)(k+1)) and 1 / ((k+1)(k+2)): the term-to-term factors of the
# J0 and J1 series. Exactly representable divisions are done once, here.
_K = np.arange(_MAX_TERMS, dtype=np.float64)
_INV_J0 = 1.0 / ((_K + 1.0) * (_K + 1.0))
_INV_J1 = 1.0 / ((_K + 1.0) * (_K + 2.0))


def _series_numpy(s: np.ndarray, first: np.ndarray,
                  inv: np.ndarray) -> np.ndarray:
    half_sq = s * s * 0.25
    total = np.zeros_like(s)
    term = first.copy()
    k_min = 0.5 * float(s.max(initial=0.0))
    for k in range(_MAX_TERMS):
        total += term
        term = -term * half_sq * inv[k]
        if k + 1 >= k_min and float(np.max(np.abs(term), initial=0.0)) < 1e-17:
            break
    return total


def _j0_numpy(s: np.ndarray) -> np.ndarray:
    return _series_numpy(s, np.ones_like(s), _INV_J0)


def _j1_numpy(s: np.ndarray) -> np.ndarray:
    return _series_numpy(s, s * 0.5, _INV_J1)


def _prepare(s) -> tuple[np.ndarray, tuple[int, ...]]:
    arr = np.asarray(s, dtype=np.float64)
    shape = arr.shape
    if arr.size:
        lo = float(arr.min())
        hi = float(arr.max())
        if not (0.0 <= lo and hi <= _WINDOW):
            raise OutOfRangeError(
                f"grid arguments must lie in [0, {_WINDOW}], got "
                f"[{lo}, {hi}]")
    return arr.reshape(-1), shape


def j0_values(s) -> np.ndarray:
    """Elementwise J0 over a float64 array, any shape."""
    flat, shape = _prepare(s)
    return _j0_numpy(flat).reshape(shape)


def j1_values(s) -> np.ndarray:
    """Elementwise J1 over a float64 array, any shape."""
    flat, shape = _prepare(s)
    return _j1_numpy(flat).reshape(shape)
