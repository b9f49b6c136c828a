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
real, so the rows are formed from real arrays: b - a_t - a_x,
i (b_t - b_x + a), i (b_t + b_x + c) and b - c_t + c_x. That is exact, as
each row is purely real or purely imaginary; the complex residual_rows is
the oracle the tests hold it to.

Only the x >= 0 half of a grid is built, plus a ghost column at x = -h.
Node x values are h m for integer m, so s and b are even in x and a at -x
is c at x, bit for bit; an x difference changes sign under the mirror and
a t difference does not. So rows 1 and 2 at -x are rows 4 and 3 at x,
and as the mask is symmetric, each whole-grid maximum is the larger of a
pair over the half: psi1_row1 = psi2_row2 and psi1_row2 = psi2_row1. The
half holds the grid's min and max of s, which with each element fix all
that j0_j1_values does, so the Bessel values are the whole grid's too.

A fine grid (spacing h/2) of over cap nodes (DEFAULT_GRID_CAP = 2^22,
about 0.1 GB at 25 bytes a node) raises ResourceLimitError up front.

Each function that builds arrays imports numpy when it runs, so
importing this module, and with it the package and its CLI, loads none.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, log2

from .bessel import j0_j1_values
from .errors import (DomainError, InvalidParameterError, ResourceLimitError,
                     check_real, check_size)

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


def _central(f: np.ndarray, h: float, out: tuple[np.ndarray, np.ndarray]):
    """Central differences (f_t, f_x) of the real f's interior, into out."""
    import numpy as np
    f_t = np.subtract(f[2:, 1:-1], f[:-2, 1:-1], out=out[0])
    f_x = np.subtract(f[1:-1, 2:], f[1:-1, :-2], out=out[1])
    f_t /= 2.0 * h
    f_x /= 2.0 * h


def residual_rows(u: np.ndarray, w: np.ndarray,
                  h: float) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference Dirac residual of the spinor field (u, w).

    Arrays are indexed [t, x] with uniform spacing h on both axes; the
    result covers the interior (both arrays trimmed by one node per edge).
    Any numeric 2-d field and finite h > 0 are taken; the rows are
    computed in complex128.

    Each difference is multiplied by 1 / (2h) on its float64 view. That
    gives the bytes of dividing it by 2h for every finite difference with
    no -0.0 part, as numpy divides a complex by a real as
    (re + im * 0) * (1 / (2h)) and (im - re * 0) * (1 / (2h)). The rows
    are formed in the two outputs and one scratch array.
    """
    import numpy as np
    h = check_real("spacing h", h, InvalidParameterError, positive=True)
    u, w = np.asarray(u, dtype=complex), np.asarray(w, dtype=complex)
    if u.shape != w.shape:
        raise InvalidParameterError("component grids must have equal shapes")
    if u.ndim != 2 or min(u.shape) < 3:
        raise InvalidParameterError("need a 2-d grid of >= 3 nodes per axis")
    scale = 1.0 / (2.0 * h)
    rows, f_x = [], None
    for f, sign, other in ((u, np.add, w), (w, np.subtract, u)):
        f_t = np.subtract(f[2:, 1:-1], f[:-2, 1:-1])
        f_x = np.subtract(f[1:-1, 2:], f[1:-1, :-2], out=f_x)
        for diff in (f_t.view(np.float64), f_x.view(np.float64)):
            np.multiply(diff, scale, out=diff)
        row = np.multiply(sign(f_t, f_x, out=f_t), 1j, out=f_t)
        rows.append(np.add(row, other[1:-1, 1:-1], out=row))
    return rows[0], rows[1]


def _component_fields(t: np.ndarray, x: np.ndarray, j0_scale: float):
    """Real arrays (a, b, c), psi_pp = i a, psi_pm = b, psi_mm = i c, at
    the nodes t and x broadcast to.

    a = (t + x) J1(s) / s, b = J0(s) and c = (t - x) J1(s) / s are real
    inside the cone, so dropping the factor i loses nothing. Nodes on or
    outside the cone take s = 1 and hold meaningless finite values; the
    caller's mask must keep measured points far enough inside that their
    difference stencils never read them.
    """
    import numpy as np
    s = t * t - x * x
    np.copyto(s, 1.0, where=s <= 0.0)
    j0, j1 = j0_j1_values(np.sqrt(s, out=s))
    j1 /= s
    a = np.multiply(np.add(t, x, out=s), j1, out=s)
    c = np.multiply(t - x, j1, out=j1)
    b = np.multiply(j0, j0_scale, out=j0)
    return a, b, c


def _masked_max(mask: np.ndarray, *rows: np.ndarray) -> float:
    """Largest |value| over mask in any of rows, which are overwritten."""
    import numpy as np
    return max(float(np.max(np.abs(row, out=row), where=mask, initial=0.0))
               for row in rows)


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
    """Half grid at spacing h: t as a column, x >= -h as a row, and the
    mask of measured nodes at x >= 0. The mask always holds (t0, 0), since
    dirac_residual requires t0 >= t0 (1 - xfrac) > 2h = margin."""
    import numpy as np
    n_t, n_x = _steps(region, h, cap)
    t = region.t0 + h * np.arange(-1, n_t + 2)[:, None]
    x = h * np.arange(-1, n_x + 2)[None, :]
    t_in, x_in = t[1:-1], x[:, 1:-1]
    return t, x, (t_in - x_in > margin) & (x_in <= region.xfrac * t_in)


def _residuals_at(h: float, j0_scale: float, t: np.ndarray, x: np.ndarray,
                  mask: np.ndarray) -> tuple[dict[str, float], int]:
    """Row maxima and measured points of the whole grid, from its half."""
    import numpy as np
    a, b, c = _component_fields(t, x, j0_scale)
    f_t, f_x = np.empty(mask.shape), np.empty(mask.shape)
    b_in = b[1:-1, 1:-1]
    _central(a, h, (f_t, f_x))
    row1 = np.subtract(b_in, np.add(f_t, f_x, out=f_t), out=f_t)
    rows_14 = _masked_max(mask, row1)
    _central(c, h, (f_t, f_x))
    row4 = np.add(np.subtract(f_x, f_t, out=f_x), b_in, out=f_x)
    rows_14 = max(rows_14, _masked_max(mask, row4))
    _central(b, h, (f_t, f_x))  # b_in is not read again: row 2 goes there
    row2 = np.add(np.subtract(f_t, f_x, out=b_in), a[1:-1, 1:-1], out=b_in)
    row3 = np.add(np.add(f_t, f_x, out=f_t), c[1:-1, 1:-1], out=f_t)
    rows_23 = _masked_max(mask, row2, row3)
    points = 2 * int(mask.sum()) - int(mask[:, 0].sum())  # x = 0 once
    return dict(zip(ROW_KEYS, (rows_14, rows_23, rows_23, rows_14))), points


def dirac_residual(region: Region, h: float, j0_scale: float = 1.0,
                   cap: int = DEFAULT_GRID_CAP) -> ResidualReport:
    """Residual maxima at h and h/2 over the region, with decay ratios.

    j0_scale = 1 is the honest check; any other value corrupts the
    J0-valued components and serves as the negative control (the residual
    then stalls at an O(|j0_scale - 1|) floor and the ratio sits near 1).
    A fine grid of more than cap nodes raises ResourceLimitError before
    any work.
    """
    t1, xfrac, j0_scale = (check_real(
        "region bounds and j0_scale", value, InvalidParameterError)
        for value in (region.t1, region.xfrac, j0_scale))
    t0 = check_real("region t0", region.t0, InvalidParameterError, positive=True)
    h = check_real("spacing h", h, InvalidParameterError, positive=True)
    region, cap = Region(t0, t1, xfrac), check_size("grid cap", cap, 0)
    if region.t1 <= region.t0:
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
    ratio = {key: coarse[key] / fine[key] if fine[key] != 0.0
             else inf if coarse[key] > 0.0 else 1.0 for key in ROW_KEYS}
    order = {key: log2(r) if 0.0 < r < inf else float("nan")
             for key, r in ratio.items()}
    return ResidualReport(
        h=h, margin=margin, j0_scale=j0_scale,
        points_coarse=n_coarse, points_fine=n_fine,
        max_residual_h=coarse, max_residual_h2=fine,
        ratio=ratio, observed_order=order)
