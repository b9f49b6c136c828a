"""Array kernels against the extended-precision scalar series."""

import numpy as np
import pytest

from checkerboard.bessel import bessel_j0, bessel_j1
from checkerboard.errors import OutOfRangeError
from checkerboard.kernels import _j0_numpy, _j1_numpy, j0_values, j1_values


def scalar_j0(values):
    return np.array([float(bessel_j0(s)) for s in values])


def scalar_j1(values):
    return np.array([float(bessel_j1(s)) for s in values])


def test_agreement_low_range():
    s = np.linspace(0.0, 10.0, 257)
    np.testing.assert_allclose(j0_values(s), scalar_j0(s), atol=1e-12)
    np.testing.assert_allclose(j1_values(s), scalar_j1(s), atol=1e-12)


def test_agreement_mid_range():
    # float64 accumulation loses ~s/2.3 digits to cancellation; by s = 20
    # the partial sums peak near 7e6, so 1e-8 is the honest expectation
    s = np.linspace(10.0, 20.0, 101)
    np.testing.assert_allclose(j0_values(s), scalar_j0(s), atol=1e-8)
    np.testing.assert_allclose(j1_values(s), scalar_j1(s), atol=1e-8)


def test_numpy_path_directly():
    # the series route itself, without the window check in front of it
    s = np.linspace(0.0, 12.0, 97)
    np.testing.assert_allclose(_j0_numpy(s), scalar_j0(s), atol=1e-12)
    np.testing.assert_allclose(_j1_numpy(s), scalar_j1(s), atol=1e-12)


def test_shape_preserved():
    s = np.linspace(0.5, 3.0, 24).reshape(2, 3, 4)
    out = j0_values(s)
    assert out.shape == (2, 3, 4)
    assert out[1, 2, 3] == pytest.approx(float(bessel_j0(s[1, 2, 3])), abs=1e-13)
    # scalars and lists come back as arrays too
    assert j1_values([1.0, 2.0]).shape == (2,)
    assert j0_values(1.0).shape == ()


def test_empty_array():
    out = j0_values(np.array([]))
    assert out.shape == (0,)


def test_range_validation():
    with pytest.raises(OutOfRangeError):
        j0_values(np.array([0.5, -0.01]))
    with pytest.raises(OutOfRangeError):
        j1_values(np.array([51.0]))
    with pytest.raises(OutOfRangeError):
        j0_values(np.array([1.0, np.nan, 2.0]))
