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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, log2

import numpy as np

from .bessel import j0_j1_values
from .errors import DomainError, InvalidParameterError
from .propagator import closed_matrix

ROW_KEYS = ("psi1_row1", "psi1_row2", "psi2_row1", "psi2_row2")


@dataclass(frozen=True)
class Spinor:
    upper: complex
    lower: complex


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

    region: Region
    h: float
    margin: float
    j0_scale: float
    points_coarse: int
    points_fine: int
    max_residual_h: dict[str, float]
    max_residual_h2: dict[str, float]
    ratio: dict[str, float]
    observed_order: dict[str, float]


def assemble(t: float, x: float) -> tuple[Spinor, Spinor]:
    """The two candidate solutions at one point, from the closed forms."""
    m = closed_matrix(t, x)
    return (Spinor(upper=m.psi_pp, lower=m.psi_pm),
            Spinor(upper=m.psi_pm, lower=m.psi_mm))


def independence_determinant(t: float, x: float) -> complex:
    """det [[psi1_u, psi2_u], [psi1_l, psi2_l]]; equals -(J0^2 + J1^2)."""
    s1, s2 = assemble(t, x)
    return s1.upper * s2.lower - s1.lower * s2.upper


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
    du_dt = (u[2:, 1:-1] - u[:-2, 1:-1]) / (2.0 * h)
    du_dx = (u[1:-1, 2:] - u[1:-1, :-2]) / (2.0 * h)
    dw_dt = (w[2:, 1:-1] - w[:-2, 1:-1]) / (2.0 * h)
    dw_dx = (w[1:-1, 2:] - w[1:-1, :-2]) / (2.0 * h)
    row1 = 1j * du_dt + 1j * du_dx + w[1:-1, 1:-1]
    row2 = 1j * dw_dt - 1j * dw_dx + u[1:-1, 1:-1]
    return row1, row2


def _component_fields(tt: np.ndarray, xx: np.ndarray, j0_scale: float):
    """psi_pp, psi_pm, psi_mm on a grid; nodes outside the cone get 0.

    The caller's mask must keep measured points far enough inside that
    their difference stencils never touch an outside node, so the zero
    fill is never actually read.
    """
    s_sq = tt * tt - xx * xx
    inside = s_sq > 0.0
    s = np.sqrt(np.where(inside, s_sq, 1.0))
    j0, j1 = j0_j1_values(s)
    j0 *= j0_scale
    psi_pp = np.where(inside, 1j * (tt + xx) / s * j1, 0.0)
    psi_pm = np.where(inside, j0 + 0.0j, 0.0)
    psi_mm = np.where(inside, 1j * (tt - xx) / s * j1, 0.0)
    return psi_pp, psi_pm, psi_mm


def _masked_max(arr: np.ndarray, mask: np.ndarray) -> float:
    return float(np.max(np.abs(arr)[mask]))


def _residuals_at(region: Region, h: float, margin: float,
                  j0_scale: float) -> tuple[dict[str, float], int]:
    n_t = int(round((region.t1 - region.t0) / h))
    xmax = region.xfrac * region.t1
    n_x = int(xmax / h + 1e-9)
    t_vals = region.t0 + h * np.arange(-1, n_t + 2)
    x_vals = h * np.arange(-n_x - 1, n_x + 2)
    tt, xx = np.meshgrid(t_vals, x_vals, indexing="ij")
    psi_pp, psi_pm, psi_mm = _component_fields(tt, xx, j0_scale)
    t_in = tt[1:-1, 1:-1]
    x_in = xx[1:-1, 1:-1]
    mask = (t_in - np.abs(x_in) > margin) & (np.abs(x_in) <= region.xfrac * t_in)
    if not mask.any():
        raise DomainError("no grid nodes survive the light-cone margin")
    r11, r12 = residual_rows(psi_pp, psi_pm, h)
    r21, r22 = residual_rows(psi_pm, psi_mm, h)
    values = {
        "psi1_row1": _masked_max(r11, mask),
        "psi1_row2": _masked_max(r12, mask),
        "psi2_row1": _masked_max(r21, mask),
        "psi2_row2": _masked_max(r22, mask),
    }
    return values, int(mask.sum())


def dirac_residual(region: Region, h: float,
                   j0_scale: float = 1.0) -> ResidualReport:
    """Residual maxima at h and h/2 over the region, with decay ratios.

    j0_scale = 1 is the honest check; any other value corrupts the
    J0-valued components and serves as the negative control (the residual
    then stalls at an O(|j0_scale - 1|) floor and the ratio sits near 1).
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
    coarse, n_coarse = _residuals_at(region, h, margin, j0_scale)
    fine, n_fine = _residuals_at(region, h / 2.0, margin, j0_scale)
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
        region=region, h=h, margin=margin, j0_scale=j0_scale,
        points_coarse=n_coarse, points_fine=n_fine,
        max_residual_h=coarse, max_residual_h2=fine,
        ratio=ratio, observed_order=order)
