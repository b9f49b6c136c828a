"""Finite-difference check that the closed-form components solve the
1+1-dimensional Dirac equation.

The equation, in the representation with sigma_z = diag(1, -1) and
sigma_x = [[0, 1], [1, 0]] and units c = hbar/m = 1, reads

    i dPsi/dt = -i sigma_z dPsi/dx - sigma_x Psi.

Moving everything to one side gives the residual operator applied to a
spinor Psi = (u, w):

    row 1:  i du/dt + i du/dx + w
    row 2:  i dw/dt - i dw/dx + u

Both candidate spinors, psi1 = (psi_pp, psi_pm) and psi2 = (psi_pm, psi_mm)
built from the closed forms, should drive this to zero. The check uses
second-order central differences on a grid strictly inside the forward
light cone and confirms the residual's O(h^2) decay by comparing spacings
h and h/2; a genuinely non-solving field (the deliberately rescaled-J0
control) leaves an h-independent floor instead.

Inside the cone psi_pp = i a, psi_pm = b and psi_mm = i c with a, b, c
real, so the fields are held as real arrays and the rows are formed in
real arithmetic: b - a_t - a_x, i (b_t - b_x + a), i (b_t + b_x + c) and
b - c_t + c_x. That is exact: the factor i only moves values between the
real and imaginary parts, and each row is purely real or purely
imaginary. The complex residual_rows is the oracle the tests hold it to.

A fine grid (spacing h/2) of more than cap nodes (DEFAULT_GRID_CAP = 2^22,
near 0.55 GB at about 130 bytes a node) is refused with ResourceLimitError
before any array is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite, log2

import numpy as np

from .bessel import j0_j1_values
from .errors import DomainError, InvalidParameterError, ResourceLimitError

ROW_KEYS = ("psi1_row1", "psi1_row2", "psi2_row1", "psi2_row2")
DEFAULT_GRID_CAP = 1 << 22  # nodes of the fine grid


@dataclass(frozen=True)
class Region:
    """Trapezoid t in [t0, t1], |x| <= xfrac * t, inside the light cone."""

    t0: float
    t1: float
    xfrac: float


@dataclass(frozen=True)
class ResidualReport:
    """Max-norm Dirac residuals at spacings h and h/2 with their ratios.

    Residuals are measured only at grid nodes with t - |x| > 2h (the
    coarse-grid margin, applied to both spacings so the two maxima range
    over the same region). observed_order is log2 of the ratio; exact
    second-order decay gives 2.
    """

    h: float
    margin: float
    j0_scale: float
    points_coarse: int
    points_fine: int
    max_residual_h: dict[str, float]
    max_residual_h2: dict[str, float]
    ratio: dict[str, float]
    observed_order: dict[str, float]


def _central(f: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Central differences (f_t, f_x) on the interior of an [t, x] grid."""
    return ((f[2:, 1:-1] - f[:-2, 1:-1]) / (2.0 * h),
            (f[1:-1, 2:] - f[1:-1, :-2]) / (2.0 * h))


def residual_rows(u: np.ndarray, w: np.ndarray,
                  h: float) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference Dirac residual of the spinor field (u, w).

    Arrays are indexed [t, x] with uniform spacing h on both axes; the
    result covers the interior (both arrays trimmed by one node per edge).
    """
    if u.shape != w.shape:
        raise InvalidParameterError("component grids must have equal shapes")
    if u.shape[0] < 3 or u.shape[1] < 3:
        raise InvalidParameterError("need at least 3 nodes per axis")
    du_dt, du_dx = _central(u, h)
    dw_dt, dw_dx = _central(w, h)
    row1 = 1j * du_dt + 1j * du_dx + w[1:-1, 1:-1]
    row2 = 1j * dw_dt - 1j * dw_dx + u[1:-1, 1:-1]
    return row1, row2


def _mirrored_j0_j1(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """j0_j1_values(s), from the right half of a [t, x] array s whose
    columns mirror about the middle, as s does on _grid's nodes: x is h m
    for m = -n_x-1..n_x+1, so s is exactly symmetric in x.

    j0_j1_values' start order, rescale and tiny handling depend only on
    the array's min and max, which the right half shares, and on each
    element itself, so the mirrored half is the whole result bit for bit.
    Any other array goes to j0_j1_values whole.
    """
    mid = s.shape[1] // 2 if s.ndim == 2 else 0
    if not (mid and np.array_equal(s[:, :mid], s[:, :-mid - 1:-1])):
        return j0_j1_values(s)
    j0, j1 = j0_j1_values(s[:, mid:])
    return (np.concatenate((j0[:, :-mid - 1:-1], j0), axis=1),
            np.concatenate((j1[:, :-mid - 1:-1], j1), axis=1))


def _component_fields(tt: np.ndarray, xx: np.ndarray, j0_scale: float):
    """Real arrays (a, b, c) with psi_pp = i a, psi_pm = b, psi_mm = i c.

    a = (t + x) J1(s) / s, b = J0(s) and c = (t - x) J1(s) / s are real
    inside the cone, so dropping the factor i loses nothing. Nodes outside
    get 0; the caller's mask must keep measured points far enough inside
    that their difference stencils never read that fill.
    """
    s_sq = tt * tt - xx * xx
    inside = s_sq > 0.0
    s = np.sqrt(np.where(inside, s_sq, 1.0))
    j0, j1 = _mirrored_j0_j1(s)
    j1 /= s
    a = np.where(inside, (tt + xx) * j1, 0.0)
    b = np.where(inside, j0 * j0_scale, 0.0)
    c = np.where(inside, (tt - xx) * j1, 0.0)
    return a, b, c


def _masked_max(arr: np.ndarray, mask: np.ndarray) -> float:
    return float(np.max(np.abs(arr)[mask]))


def _steps(region: Region, h: float, cap: int) -> tuple[int, int]:
    """Steps (n_t, n_x) of the grid at spacing h; ResourceLimitError if it
    has more than cap nodes."""
    # a tiny h (h / 2 = 0 at 5e-324) makes the counts inf, which int()
    # refuses; a count clamped to cap puts the grid over the cap
    t_steps = (region.t1 - region.t0) / h if h else inf
    x_steps = region.xfrac * region.t1 / h if h else inf
    n_t = int(round(min(t_steps, cap)))
    n_x = int(min(x_steps, cap) + 1e-9)
    nodes = (n_t + 3) * (2 * n_x + 3)
    if nodes > cap:
        raise ResourceLimitError(
            f"Dirac grid of at least {nodes} nodes exceeds grid cap {cap}; "
            "raise the cap explicitly if the memory is there")
    return n_t, n_x


def _grid(region: Region, h: float, margin: float, cap: int):
    """Node coordinates (tt, xx) at spacing h and the mask of interior
    nodes measured. The mask always holds (t0, 0), since dirac_residual
    requires t0 >= t0 (1 - xfrac) > 2h = margin."""
    n_t, n_x = _steps(region, h, cap)
    t_vals = region.t0 + h * np.arange(-1, n_t + 2)
    x_vals = h * np.arange(-n_x - 1, n_x + 2)
    tt, xx = np.meshgrid(t_vals, x_vals, indexing="ij")
    t_in = tt[1:-1, 1:-1]
    x_in = np.abs(xx[1:-1, 1:-1])
    mask = (t_in - x_in > margin) & (x_in <= region.xfrac * t_in)
    return tt, xx, mask


def _residuals_at(h: float, j0_scale: float, tt: np.ndarray, xx: np.ndarray,
                  mask: np.ndarray) -> tuple[dict[str, float], int]:
    a, b, c = _component_fields(tt, xx, j0_scale)
    a_t, a_x = _central(a, h)
    b_t, b_x = _central(b, h)
    c_t, c_x = _central(c, h)
    b_in = b[1:-1, 1:-1]
    rows = (b_in - (a_t + a_x), b_t - b_x + a[1:-1, 1:-1],
            b_t + b_x + c[1:-1, 1:-1], c_x - c_t + b_in)
    values = {key: _masked_max(row, mask) for key, row in zip(ROW_KEYS, rows)}
    return values, int(mask.sum())


def dirac_residual(region: Region, h: float, j0_scale: float = 1.0,
                   cap: int = DEFAULT_GRID_CAP) -> ResidualReport:
    """Residual maxima at h and h/2 over the region, with decay ratios.

    j0_scale = 1 is the honest check; any other value corrupts the
    J0-valued components and serves as the negative control (the residual
    then stalls at an O(|j0_scale - 1|) floor and the ratio sits near 1).
    A fine grid of more than cap nodes raises ResourceLimitError before
    any work.
    """
    if not all(map(isfinite, (region.t0, region.t1, region.xfrac, h,
                              j0_scale))):
        raise InvalidParameterError(
            "region bounds, spacing h and j0_scale must be finite")
    if h <= 0:
        raise InvalidParameterError("spacing h must be > 0")
    if region.t1 <= region.t0 or region.t0 <= 0:
        raise InvalidParameterError("region needs 0 < t0 < t1")
    if not (0.0 <= region.xfrac < 1.0):
        raise InvalidParameterError("xfrac must lie in [0, 1)")
    margin = 2.0 * h
    if region.t0 * (1.0 - region.xfrac) <= margin:
        raise DomainError(
            f"region edge t0 (1 - xfrac) = {region.t0 * (1 - region.xfrac):g} "
            f"does not clear the stencil margin 2h = {margin:g}")
    fine_grid = _grid(region, h / 2.0, margin, cap)  # the larger: cap first
    coarse, n_coarse = _residuals_at(h, j0_scale,
                                     *_grid(region, h, margin, cap))
    fine, n_fine = _residuals_at(h / 2.0, j0_scale, *fine_grid)
    ratio = {}
    order = {}
    for key in ROW_KEYS:
        if fine[key] == 0.0:
            ratio[key] = float("inf") if coarse[key] > 0.0 else 1.0
        else:
            ratio[key] = coarse[key] / fine[key]
        if ratio[key] > 0 and isfinite(ratio[key]):
            order[key] = log2(ratio[key])
        else:
            order[key] = float("nan")
    return ResidualReport(
        h=h, margin=margin, j0_scale=j0_scale,
        points_coarse=n_coarse, points_fine=n_fine,
        max_residual_h=coarse, max_residual_h2=fine,
        ratio=ratio, observed_order=order)
