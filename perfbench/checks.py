"""Correctness checks the workloads apply to every operation's output.

Each checker returns True when the output is right. The references they
compare against are computed apart from the package (mpmath, scipy checked
against mpmath, math.comb, closed-form plane waves) by `inputs.py`; the
rest are properties the method must have. Only numpy and the standard
library are used here, so the worker process that runs the package does
not load the reference libraries.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

U = 2.0 ** -53  # float64 unit roundoff

# The lowest observed order of convergence the refine sweeps must reach
# between successive sizes, and the first-order constant that bounds the
# deviation at the largest size: |exact - limit| <= C / size, size being
# the segment count P + Q (quadratic) or N (uniform).
MIN_ORDER = 0.9
FINAL_CONSTANT = 5.0

# Observed order of the Dirac residual between h and h/2: the honest field
# must decay at least about second order, the rescaled-J0 control must
# stall.
HONEST_MIN_ORDER = 1.8
CONTROL_MAX_ORDER = 0.5

MIXED = ("psi_pm", "psi_mp")
DIAGONAL = ("psi_pp", "psi_mm")


def bessel_tol(s):
    """Absolute tolerance for a float64 J0/J1 value (|J| <= 1) at s.

    A correctly rounded float64 result is within U; the reference (scipy,
    itself held to 8U(1+s) of mpmath) adds a few U; and an argument s
    computed from (t, x) in float64 carries a few U of relative error,
    which moves J by |J'(s)| * s * few U <= s * few U. 16U(1 + s) covers
    all three with room to spare.
    """
    return 16.0 * U * (1.0 + np.asarray(s, dtype=np.float64))


def refine_identities(parts: dict, v_is_zero: bool) -> bool:
    """Exact Fraction identities of the four lattice components.

    psi_pm == psi_mp; psi_pp == psi_mm at v = 0; mixed components are
    real and diagonal ones purely imaginary.
    """
    if parts["psi_pm"] != parts["psi_mp"]:
        return False
    if v_is_zero and parts["psi_pp"] != parts["psi_mm"]:
        return False
    if any(parts[name][1] != 0 for name in MIXED):
        return False
    return all(parts[name][0] == 0 for name in DIAGONAL)


def refine_mirror(parts: dict, mirrored: dict) -> bool:
    """psi_pp at (P, Q) equals psi_mm at (Q, P), and the other way round."""
    return (parts["psi_pp"] == mirrored["psi_mm"]
            and parts["psi_mm"] == mirrored["psi_pp"])


def deviation(parts: dict, limit: dict) -> float:
    """Largest |lattice component - limit| over the four components."""
    return max(abs(complex(float(re), float(im)) - limit[name])
               for name, (re, im) in parts.items())


def converges(dev_prev: float, size_prev: int, dev: float, size: int) -> bool:
    """One-sided: the deviation shrinks at least at order MIN_ORDER."""
    return dev <= dev_prev * (size_prev / size) ** MIN_ORDER


def within_final_bound(dev: float, size: int) -> bool:
    return dev * size <= FINAL_CONSTANT


def closed_ok(got: np.ndarray, ref: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Per point: every component within its tolerance, and finite.

    got and ref are (points, 4) complex arrays in COMPONENT_ORDER; tol is
    (points, 4) real, already scaled by each component's prefactor.
    """
    err = np.abs(got - ref)
    return np.all(np.isfinite(got) & (err <= tol), axis=1)


def grid_ok(got: np.ndarray, ref: np.ndarray, s: np.ndarray) -> bool:
    """Every grid value within bessel_tol of its reference, and finite."""
    return bool(got.shape == ref.shape and np.all(np.isfinite(got))
                and np.all(np.abs(got - ref) <= bessel_tol(s)))


def stencil_ok(rows: tuple, expected: tuple, tol: float) -> bool:
    """Both residual rows equal the plane-wave closed form within tol."""
    return all(r.shape == e.shape and bool(np.all(np.abs(r - e) <= tol))
               for r, e in zip(rows, expected))


def dirac_ok(observed_order: dict, max_residuals: dict, honest: bool) -> bool:
    """The honest field decays at second order; the control stalls."""
    orders = list(observed_order.values())
    if not all(np.isfinite(list(max_residuals.values()))):
        return False
    if honest:
        return all(o >= HONEST_MIN_ORDER for o in orders)
    return all(np.isfinite(o) and o <= CONTROL_MAX_ORDER for o in orders)


def coefficients(poly) -> list[tuple[int, int]]:
    """An amplitude polynomial as its (order, integer coefficient) list."""
    return [(k, poly.coeff(k)) for k in poly.orders()]


def sector_ok(brute, exact, enumerated: int, expected_paths: int) -> bool:
    """Brute-force and closed-form sector sums agree term by term, and the
    enumeration produced exactly the paths math.comb counts."""
    return (coefficients(brute) == coefficients(exact)
            and enumerated == expected_paths)


def fraction_bits(value: tuple) -> int:
    """Numerator and denominator bits of an exact (re, im) pair."""
    return sum(q.numerator.bit_length() + q.denominator.bit_length()
               for q in map(Fraction, value))
