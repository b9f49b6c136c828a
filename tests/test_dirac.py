"""Finite-difference verification that the closed forms solve the equation."""

import tracemalloc
from math import inf, log2, nextafter

import numpy as np
import pytest

from checkerboard import dirac
from checkerboard.bessel import bessel_j0, bessel_j1, j0_j1_values
from checkerboard.dirac import (DEFAULT_GRID_CAP, ROW_KEYS, Region,
                                dirac_residual, residual_rows)
from checkerboard.errors import (DomainError, InvalidParameterError,
                                 ResourceLimitError)
from checkerboard.propagator import closed_matrix

README_REGION = Region(t0=0.5, t1=3.0, xfrac=0.4)
U = 2.0 ** -53  # float64 unit roundoff


def component_fields(t, x):
    """The real fields (a, b, c) that dirac_residual assembles, with
    psi_pp = i a, psi_pm = b and psi_mm = i c, at the given points."""
    return dirac._component_fields(np.array(t), np.array(x), 1.0)


def full_grid(region, h, margin):
    """The whole grid, x from -(n_x + 1) h to (n_x + 1) h, as node arrays
    (tt, xx) and the mask of measured interior nodes."""
    n_t, n_x = dirac._steps(region, h, DEFAULT_GRID_CAP)
    tt, xx = np.meshgrid(region.t0 + h * np.arange(-1, n_t + 2),
                         h * np.arange(-n_x - 1, n_x + 2), indexing="ij")
    t_in, x_in = tt[1:-1, 1:-1], np.abs(xx[1:-1, 1:-1])
    return tt, xx, (t_in - x_in > margin) & (x_in <= region.xfrac * t_in)


def full_fields(tt, xx, j0_scale):
    """(a, b, c) over the whole grid, with j0_j1_values on all of it."""
    s_sq = tt * tt - xx * xx
    inside = s_sq > 0.0
    s = np.sqrt(np.where(inside, s_sq, 1.0))
    j0, j1 = j0_j1_values(s)
    j1 /= s
    return (np.where(inside, (tt + xx) * j1, 0.0),
            np.where(inside, j0 * j0_scale, 0.0),
            np.where(inside, (tt - xx) * j1, 0.0))


def full_residuals(region, h, margin, j0_scale):
    """Row maxima and measured points from all four rows over the whole
    grid: the reference that dirac_residual's x >= 0 half is held to."""
    tt, xx, mask = full_grid(region, h, margin)
    a, b, c = full_fields(tt, xx, j0_scale)

    def central(f):
        return ((f[2:, 1:-1] - f[:-2, 1:-1]) / (2.0 * h),
                (f[1:-1, 2:] - f[1:-1, :-2]) / (2.0 * h))

    (a_t, a_x), (b_t, b_x), (c_t, c_x) = map(central, (a, b, c))
    b_in = b[1:-1, 1:-1]
    rows = (b_in - (a_t + a_x), b_t - b_x + a[1:-1, 1:-1],
            b_t + b_x + c[1:-1, 1:-1], c_x - c_t + b_in)
    return ({key: float(np.max(np.abs(row)[mask]))
             for key, row in zip(ROW_KEYS, rows)}, int(mask.sum()))


def test_assemble_at_origin_axis():
    a, b, c = component_fields([1.0], [0.0])
    j0 = bessel_j0(1.0).value
    j1 = bessel_j1(1.0).value
    assert a[0] == pytest.approx(j1, abs=1e-14)
    assert b[0] == pytest.approx(j0, abs=1e-14)
    assert c[0] == a[0]


def test_assemble_parity():
    # x -> -x swaps psi_pp and psi_mm; psi_pm is even in x
    a, b, c = component_fields([2.0, 2.0], [0.5, -0.5])
    assert a[0] == c[1] and a[1] == c[0]
    assert b[0] == b[1]


def test_assemble_outside_cone():
    # nodes on or outside the light cone, which no measured stencil reads,
    # hold finite values: no sqrt of a negative and no Bessel window error
    a, b, c = component_fields([1.0, 1.0], [1.0, -2.0])
    assert all(np.isfinite(f).all() for f in (a, b, c))


def test_residual_rows_zero_field():
    z = np.zeros((5, 7), dtype=complex)
    r1, r2 = residual_rows(z, z, 0.1)
    assert r1.shape == (3, 5)
    assert np.all(r1 == 0) and np.all(r2 == 0)


def test_residual_rows_validation():
    a = np.zeros((5, 5), dtype=complex)
    b = np.zeros((5, 6), dtype=complex)
    with pytest.raises(InvalidParameterError):
        residual_rows(a, b, 0.1)
    with pytest.raises(InvalidParameterError):
        residual_rows(a[:2], a[:2], 0.1)
    # a field that is not 2-d: a 1-d one, and one that would run with its
    # last axis carried along
    for shape in ((5,), (4, 4, 2)):
        z = np.zeros(shape, dtype=complex)
        with pytest.raises(InvalidParameterError, match="2-d grid"):
            residual_rows(z, z, 0.1)


@pytest.mark.parametrize("h", [0.0, -0.1, float("nan"), float("inf")])
def test_residual_rows_refuses_bad_spacing(h):
    # refused before any array is converted, as dirac_residual refuses it
    z = np.zeros((5, 5), dtype=complex)
    with pytest.raises(InvalidParameterError, match="spacing h must be "):
        residual_rows(z, z, h)


def test_residual_rows_constant_field():
    # constant (u, w) has zero derivatives; residual is the mass coupling
    u = np.full((4, 4), 2.0 + 0j)
    w = np.full((4, 4), -3.0 + 0j)
    r1, r2 = residual_rows(u, w, 0.5)
    assert np.allclose(r1, -3.0)
    assert np.allclose(r2, 2.0)


def test_residual_rows_takes_any_numeric_field():
    # the differences are scaled in place, so an int field must be converted
    u = np.arange(20).reshape(4, 5) ** 2
    w = np.arange(20).reshape(4, 5) % 3 - 1
    int_rows = residual_rows(u, w, 0.5)
    for kind in (float, complex):
        rows = residual_rows(u.astype(kind), w.astype(kind), 0.5)
        assert all(map(np.array_equal, rows, int_rows))


def division_rows(u, w, h):
    """residual_rows as complex differences divided by 2h, term by term."""
    u, w = np.asarray(u, dtype=complex), np.asarray(w, dtype=complex)
    c = slice(1, -1)
    return (1j * ((u[2:, c] - u[:-2, c]) / (2 * h)
                  + (u[c, 2:] - u[c, :-2]) / (2 * h)) + w[c, c],
            1j * ((w[2:, c] - w[:-2, c]) / (2 * h)
                  - (w[c, 2:] - w[c, :-2]) / (2 * h)) + u[c, c])


def plane_wave(k, h, shape):
    omega = np.sqrt(k * k + 1.0)
    t = h * np.arange(shape[0])[:, None]
    x = h * (np.arange(shape[1]) - shape[1] // 2)[None, :]
    u = np.exp(1j * (k * x - omega * t))
    return u, (k - omega) * u, h


def random_field(kind, shape, h):
    rng = np.random.default_rng(sum(shape))
    parts = [rng.normal(size=shape) for _ in range(4)]
    if kind is complex:
        return parts[0] + 1j * parts[1], parts[2] + 1j * parts[3], h
    return parts[0].astype(kind) * 50, parts[2].astype(kind) * 50, h


@pytest.mark.parametrize("u, w, h", [
    plane_wave(1.3, 0.02, (253, 243)), plane_wave(-0.4, 0.1, (9, 12)),
    random_field(complex, (251, 241), 0.37), random_field(complex, (3, 3), 3.0),
    random_field(float, (40, 33), 0.013), random_field(int, (12, 7), 0.25)],
    ids=["plane_wave", "small_plane_wave", "complex", "complex_3x3", "real",
         "int"])
def test_residual_rows_bytes_equal_division_by_2h(u, w, h):
    # residual_rows multiplies by 1 / (2h) where dividing by the complex 2h
    # would run numpy's division loop; the bytes must be those of dividing
    got = residual_rows(u, w, h)
    want = division_rows(u, w, h)
    assert [r.tobytes() for r in got] == [r.tobytes() for r in want]


def test_dirac_residual_second_order():
    report = dirac_residual(Region(t0=1.0, t1=2.0, xfrac=0.4), h=0.02)
    for key in ROW_KEYS:
        assert 3.5 <= report.ratio[key] <= 4.5, (key, report.ratio)
        assert report.observed_order[key] == pytest.approx(2.0, abs=0.2)
        assert report.max_residual_h[key] < 1e-2
    assert report.points_fine > report.points_coarse
    assert report.margin == pytest.approx(0.04)


def test_dirac_residual_corrupted_control():
    report = dirac_residual(Region(t0=1.0, t1=2.0, xfrac=0.4), h=0.02,
                            j0_scale=1.01)
    # the floor is O(0.01) and does not shrink with h
    for key in ROW_KEYS:
        assert report.ratio[key] < 2.0, (key, report.ratio)
        assert report.max_residual_h2[key] > 1e-4
    assert report.j0_scale == 1.01


def test_dirac_residual_margin_violation():
    with pytest.raises(DomainError):
        dirac_residual(Region(t0=0.5, t1=1.0, xfrac=0.4), h=0.2)


def test_smallest_admitted_t0_measures_the_axis_node():
    # The margin check admits t0 (1 - xfrac) > 2h, so t0 > 2h: the node
    # (t0, 0) clears the margin on both grids, and no mask is empty.
    h, xfrac = 0.1, 0.4
    t0 = 2 * h / (1 - xfrac)
    while t0 * (1 - xfrac) <= 2 * h:
        t0 = nextafter(t0, inf)
    with pytest.raises(DomainError):
        dirac_residual(Region(t0=nextafter(t0, 0), t1=1.0, xfrac=xfrac), h)
    region = Region(t0=t0, t1=1.0, xfrac=xfrac)
    for spacing in (h, h / 2):
        t, x, mask = dirac._grid(region, spacing, 2 * h, DEFAULT_GRID_CAP)
        axis = (t[1:-1] == t0) & (x[:, 1:-1] == 0.0)
        assert axis.sum() == 1 and mask[axis].all(), spacing
    report = dirac_residual(region, h)
    assert report.points_coarse >= 1 and report.points_fine >= 1


def test_dirac_residual_validation():
    region = Region(t0=1.0, t1=2.0, xfrac=0.4)
    with pytest.raises(InvalidParameterError):
        dirac_residual(region, h=0.0)
    with pytest.raises(InvalidParameterError):
        dirac_residual(Region(t0=2.0, t1=1.0, xfrac=0.4), h=0.01)
    with pytest.raises(InvalidParameterError):
        dirac_residual(Region(t0=-1.0, t1=1.0, xfrac=0.4), h=0.01)
    with pytest.raises(InvalidParameterError):
        dirac_residual(Region(t0=1.0, t1=2.0, xfrac=1.0), h=0.01)
    for bad in (Region(t0=float("nan"), t1=2.0, xfrac=0.4),
                Region(t0=1.0, t1=float("inf"), xfrac=0.4)):
        with pytest.raises(InvalidParameterError):
            dirac_residual(bad, h=0.01)
    with pytest.raises(InvalidParameterError):
        dirac_residual(region, h=float("nan"))
    with pytest.raises(InvalidParameterError):
        dirac_residual(region, h=0.02, j0_scale=float("nan"))


def test_independence_determinant():
    # det [[psi_pp, psi_pm], [psi_pm, psi_mm]] of the two spinors
    # (psi_pp, psi_pm) and (psi_pm, psi_mm) is -(J0^2 + J1^2), never 0
    for t, x in ((1.0, 0.0), (2.0, 0.6), (3.0, -1.2)):
        m = closed_matrix(t, x)
        det = m.psi_pp * m.psi_mm - m.psi_pm * m.psi_mp
        s = np.sqrt(t * t - x * x)
        expected = -(bessel_j0(s).value ** 2 + bessel_j1(s).value ** 2)
        assert det == pytest.approx(complex(expected, 0), abs=1e-13)
        assert abs(det) > 1e-6


def complex_oracle(region, h, margin, j0_scale):
    """Residual maxima from the complex fields (i a, b, i c) through the
    public residual_rows, all four rows over the whole grid and its mask;
    also returns M, the largest |field| on the grid."""
    tt, xx, mask = full_grid(region, h, margin)
    a, b, c = full_fields(tt, xx, j0_scale)
    rows = (residual_rows(1j * a, b + 0j, h)
            + residual_rows(b + 0j, 1j * c, h))
    maxima = {key: float(np.max(np.abs(row)[mask]))
              for key, row in zip(ROW_KEYS, rows)}
    return maxima, max(float(np.max(np.abs(f))) for f in (a, b, c))


@pytest.mark.parametrize("j0_scale", [1.0, 1.01])
@pytest.mark.parametrize("h", [0.04, 0.02, 0.01])
def test_real_stencil_matches_complex_oracle(h, j0_scale):
    # Both paths difference the same real values; they differ only in
    # rounding: complex / real divides by multiplying with the reciprocal,
    # about 2u|f_t| per difference, |f_t| <= 2M / (2h), plus the sums, so
    # each row maximum lies within 4u(2/h + 1)M of the oracle's.
    report = dirac_residual(README_REGION, h, j0_scale)
    oracle = {}
    for spacing, real in ((h, report.max_residual_h),
                          (h / 2.0, report.max_residual_h2)):
        oracle[spacing], big = complex_oracle(README_REGION, spacing,
                                              report.margin, j0_scale)
        bound = 4.0 * U * (2.0 / spacing + 1.0) * big
        for key in ROW_KEYS:
            diff = abs(real[key] - oracle[spacing][key])
            assert diff <= bound, (spacing, key, diff)
    for key in ROW_KEYS:
        order = log2(oracle[h][key] / oracle[h / 2.0][key])
        assert abs(report.observed_order[key] - order) <= 1e-9, key


def test_component_fields_are_the_closed_forms():
    tt = np.array([[1.0, 2.0, 3.0, 0.5]])
    xx = np.array([[0.0, 0.6, -1.2, 0.45]])
    a, b, c = dirac._component_fields(tt, xx, 1.0)
    for i in range(tt.shape[1]):
        m = closed_matrix(tt[0, i], xx[0, i])
        got = (1j * a[0, i], complex(b[0, i]), 1j * c[0, i])
        want = (m.psi_pp, m.psi_pm, m.psi_mm)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-15)


def forbid_fields(monkeypatch):
    def forbidden(s):
        raise AssertionError("j0_j1_values called on a refused grid")

    monkeypatch.setattr(dirac, "j0_j1_values", forbidden)


@pytest.mark.parametrize("h", [1e-5, 1e-300, 5e-324])
def test_grid_cap_refuses_before_any_field(monkeypatch, h):
    # 1e-5 would allocate hundreds of GiB, 1e-300 overflows numpy's array
    # size, and at 5e-324 the step counts are inf and h / 2 is 0
    forbid_fields(monkeypatch)
    with pytest.raises(ResourceLimitError, match="grid cap"):
        dirac_residual(README_REGION, h)


@pytest.mark.parametrize("region, h", [(README_REGION, 0.02),
                                       (Region(1.0, 1.4, 0.3), 0.04),
                                       (Region(1.0, 2.0, 0.0), 0.05)])
def test_grid_cap_counts_the_fine_grid(monkeypatch, region, h):
    nodes = full_grid(region, h / 2.0, 2.0 * h)[0].size
    assert full_grid(region, h, 2.0 * h)[0].size < nodes
    assert dirac_residual(region, h, cap=nodes) == dirac_residual(region, h)
    # the coarse grid fits under nodes - 1; the refusal still comes first
    forbid_fields(monkeypatch)
    with pytest.raises(ResourceLimitError, match=f"at least {nodes} nodes"):
        dirac_residual(region, h, cap=nodes - 1)


def test_default_grid_cap_admits_h_0_0025():
    # --h 0.0025 on the README region ran before the cap existed and must
    # still run: its fine grid has 2003 x 1923 nodes
    assert dirac._steps(README_REGION, 0.0025 / 2.0, DEFAULT_GRID_CAP) == (
        2000, 960)
    assert 2003 * 1923 <= DEFAULT_GRID_CAP


def bessel_on(t, x):
    """j0_j1_values over the nodes t and x broadcast to, as the fields
    take it: s = sqrt(t^2 - x^2), with 1 outside the cone."""
    s_sq = t * t - x * x
    return j0_j1_values(np.sqrt(np.where(s_sq > 0.0, s_sq, 1.0)))


@pytest.mark.parametrize("region, h", [(README_REGION, 0.04),
                                       (README_REGION, 0.01),
                                       (Region(0.3, 2.0, 0.0), 0.02),
                                       (Region(1.0, 5.0, 0.9), 0.05)])
def test_mirrored_bessel_equals_the_whole_grid(region, h):
    # J0 and J1 on the x >= -h half of a grid from _grid are those of the
    # whole grid there, bit for bit; xfrac = 0 leaves one column each side
    for spacing in (h, h / 2.0):
        t, x, _ = dirac._grid(region, spacing, 2.0 * h, DEFAULT_GRID_CAP)
        tt, xx, _ = full_grid(region, spacing, 2.0 * h)
        half = np.s_[:, -x.shape[1]:]
        assert (tt[half] == t).all() and (xx[half] == x).all()
        for got, want in zip(bessel_on(t, x), bessel_on(tt, xx)):
            assert got.tobytes() == want[half].tobytes()


def test_dirac_residual_evaluates_half_of_each_grid(monkeypatch):
    widths = []

    def recording(s):
        widths.append(s.shape[1])
        return j0_j1_values(s)

    monkeypatch.setattr(dirac, "j0_j1_values", recording)
    for h in (0.04, 0.02):
        n_x = dirac._steps(README_REGION, h, DEFAULT_GRID_CAP)[1]
        dirac_residual(README_REGION, 2.0 * h)
        # the coarse grid (spacing 2h) and then the fine one (spacing h):
        # the ghost column x = -h and x = 0 .. (n_x + 1) h
        assert widths[-1] == n_x + 3


HALF_CASES = [(README_REGION, 0.04), (README_REGION, 0.02),
              (README_REGION, 0.01), (Region(0.3, 2.0, 0.0), 0.04),
              (Region(1.0, 5.0, 0.9), 0.04), (Region(0.5, 1.0, 0.2), 0.1)]


@pytest.mark.parametrize("j0_scale", [1.0, 1.01])
@pytest.mark.parametrize("region, h", HALF_CASES)
def test_half_grid_report_equals_the_whole_grid(region, h, j0_scale):
    # every maximum and point count from the x >= 0 half is the whole-grid
    # kernel's exactly; xfrac = 0 leaves one column each side, and
    # (0.5, 1.0, 0.2) at h = 0.1 is the benchmark's warm-up call
    report = dirac_residual(region, h, j0_scale)
    for spacing, maxima, points in (
            (h, report.max_residual_h, report.points_coarse),
            (h / 2.0, report.max_residual_h2, report.points_fine)):
        assert (maxima, points) == full_residuals(region, spacing, 2.0 * h,
                                                  j0_scale), spacing


def test_dirac_residual_peak_memory_per_fine_node():
    # the peak is the fine grid's Bessel pass: s and five work arrays over
    # the x >= 0 half, about 25 bytes per node of the whole fine grid
    n_t, n_x = dirac._steps(README_REGION, 0.01 / 2.0, DEFAULT_GRID_CAP)
    nodes = (n_t + 3) * (2 * n_x + 3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        dirac_residual(README_REGION, 0.01)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 30 * nodes, peak / nodes
