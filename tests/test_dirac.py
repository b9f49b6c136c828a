"""Finite-difference verification that the closed forms solve the equation."""

import numpy as np
import pytest

from checkerboard.bessel import bessel_j0, bessel_j1
from checkerboard.dirac import (ROW_KEYS, Region, assemble, dirac_residual,
                                independence_determinant, residual_rows)
from checkerboard.errors import DomainError, InvalidParameterError


def test_assemble_at_origin_axis():
    s1, s2 = assemble(1.0, 0.0)
    j0 = float(bessel_j0(1.0))
    j1 = float(bessel_j1(1.0))
    assert s1.upper == pytest.approx(complex(0, j1), abs=1e-14)
    assert s1.lower == pytest.approx(complex(j0, 0), abs=1e-14)
    assert s2.upper == s1.lower
    assert s2.lower == pytest.approx(complex(0, j1), abs=1e-14)


def test_assemble_parity():
    # x -> -x swaps the roles of the two spinors, component-wise
    a1, a2 = assemble(2.0, 0.5)
    b1, b2 = assemble(2.0, -0.5)
    assert a1.upper == b2.lower
    assert a1.lower == b1.lower  # psi_pm is even in x
    assert a2.lower == b1.upper


def test_assemble_outside_cone():
    with pytest.raises(DomainError):
        assemble(1.0, 1.0)
    with pytest.raises(DomainError):
        assemble(-1.0, 0.0)


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


def test_residual_rows_constant_field():
    # constant (u, w) has zero derivatives; residual is the mass coupling
    u = np.full((4, 4), 2.0 + 0j)
    w = np.full((4, 4), -3.0 + 0j)
    r1, r2 = residual_rows(u, w, 0.5)
    assert np.allclose(r1, -3.0)
    assert np.allclose(r2, 2.0)


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
    for t, x in ((1.0, 0.0), (2.0, 0.6), (3.0, -1.2)):
        det = independence_determinant(t, x)
        s = np.sqrt(t * t - x * x)
        expected = -(float(bessel_j0(s)) ** 2 + float(bessel_j1(s)) ** 2)
        assert det == pytest.approx(complex(expected, 0), abs=1e-13)
        assert abs(det) > 1e-6
