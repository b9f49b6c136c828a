"""Tests of the benchmark's own checks and references.

    python3 -m pytest perfbench/test_perfbench.py

Each checker must count a deliberately wrong output as failed, and the
references must agree with each other where they overlap.
"""

from __future__ import annotations

import itertools
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import checkerboard as cb  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from workloads import Crosscheck, Field, Refine  # noqa: E402


def refine_payload():
    t = Fraction(2)
    sweeps = []
    for a, b in ((2, 1), (1, 2)):
        v = Fraction(a * a - b * b, a * a + b * b)
        quadratic = [(a * m, b * m) for m in (8, 16, 32)]
        sweeps.append({"model": "quadratic", "v_is_zero": False,
                       "sizes": quadratic,
                       "limit": inputs.lattice_limit(t, v)})
        sweeps.append({"model": "linear", "v_is_zero": False,
                       "sizes": [inputs.uniform_split(P + Q, v)
                                 for P, Q in quadratic],
                       "limit": inputs.lattice_limit(t, v)})
    return {"t": t, "sweeps": sweeps}


def test_refine_counts_a_perturbed_fraction_as_failed():
    work = Refine(cb)
    payload = refine_payload()
    _, _, outputs, _ = work.run_round(payload)
    assert all(ok for ok, _ in work.check_round(payload, outputs))

    re, im = outputs[1]["psi_mp"]
    outputs[1]["psi_mp"] = (re + Fraction(1, 10 ** 40), im)
    verdicts = work.check_round(payload, outputs)
    assert [ok for ok, _ in verdicts].count(False) == 1
    assert not verdicts[1][0]


def test_refine_counts_a_broken_mirror_and_slow_convergence_as_failed():
    parts = cb.exact_parts(cb.LatticeSpec(P=4, Q=2, t=Fraction(2)))
    mirrored = cb.exact_parts(cb.LatticeSpec(P=2, Q=4, t=Fraction(2)))
    assert checks.refine_mirror(parts, mirrored)
    wrong = dict(mirrored, psi_mm=(Fraction(0), mirrored["psi_mm"][1] * 2))
    assert not checks.refine_mirror(parts, wrong)
    assert checks.converges(0.1, 16, 0.05, 32)
    assert not checks.converges(0.1, 16, 0.09, 32)  # order 0.15


def field_points():
    s = np.array([0.5, 3.0, 11.9, 45.0])
    eta = np.array([0.0, 1.2, -1.4, 0.3])
    t, x = s * np.cosh(eta), s * np.sinh(eta)
    ref, tol = inputs.closed_references(t, x)
    got = np.array([[m.psi_pp, m.psi_pm, m.psi_mp, m.psi_mm]
                    for m in map(cb.closed_matrix, t, x)])
    return got, ref, tol


def test_closed_check_counts_a_bessel_value_off_by_1e9_as_failed():
    got, ref, tol = field_points()
    # s = 45 lies in the known-fault slice: today's series is wrong there.
    assert checks.closed_ok(got, ref, tol).tolist() == [True, True, True,
                                                        False]
    off = got.copy()
    off[:, 1] += 1e-9
    assert not checks.closed_ok(off, ref, tol).any()


def test_grid_check_counts_a_value_off_by_1e9_as_failed():
    s = np.linspace(0.0, inputs.GRID_S, 2001)
    ref = inputs.grid_reference("j1", s, np.random.default_rng(0))
    got = cb.j1_values(s)
    assert checks.grid_ok(got, ref, s)
    got[1234] += 1e-9
    assert not checks.grid_ok(got, ref, s)
    assert not checks.grid_ok(np.full_like(s, np.nan), ref, s)


def test_dirac_check_counts_the_control_read_as_honest_as_failed():
    region = cb.Region(*inputs.DIRAC_REGION)
    honest = cb.dirac_residual(region, 0.02)
    control = cb.dirac_residual(region, 0.02, j0_scale=inputs.CONTROL_J0_SCALE)
    assert checks.dirac_ok(honest.observed_order, honest.max_residual_h, True)
    assert checks.dirac_ok(control.observed_order, control.max_residual_h,
                           False)
    assert not checks.dirac_ok(control.observed_order,
                               control.max_residual_h, True)
    assert not checks.dirac_ok(honest.observed_order,
                               honest.max_residual_h, False)


def test_stencil_check_matches_plane_wave_and_rejects_a_perturbation():
    wave = inputs.plane_wave(1.7, 0.02, (41, 37))
    rows = cb.residual_rows(wave["u"], wave["w"], wave["h"])
    assert checks.stencil_ok(rows, wave["expected"], wave["tol"])
    bad = (rows[0], rows[1].copy())
    bad[1][20, 18] += 1e-9
    assert not checks.stencil_ok(bad, wave["expected"], wave["tol"])


def test_field_workload_fails_only_its_known_fault_slice():
    work = Field(cb)
    got, ref, tol = field_points()
    payload = {"points": {"t": None, "x": None, "ref": ref, "tol": tol,
                          "fault": np.array([False, False, False, True])},
               "grids": [], "stencils": [], "dirac": [],
               "order": [("closed", i) for i in range(4)]}
    verdicts = work.check_round(payload, [tuple(row) for row in got])
    assert verdicts == [(True, False), (True, False), (True, False),
                        (False, True)]


def test_sector_paths_counts_every_arrangement():
    for P, Q in itertools.product(range(1, 6), repeat=2):
        for start, end in itertools.product("RL", repeat=2):
            brute = sum(1 for seq in set(itertools.permutations(
                "R" * P + "L" * Q)) if seq[0] == start and seq[-1] == end)
            assert inputs.sector_paths(P, Q, start, end) == brute


def test_crosscheck_counts_a_wrong_coefficient_or_count_as_failed():
    work = Crosscheck(cb)
    payload = {"sectors": [(3, 4, "R", "L", inputs.sector_paths(3, 4, "R",
                                                                "L"))]}
    _, _, outputs, _ = work.run_round(payload)
    assert work.check_round(payload, outputs) == [(True, False)]
    exact, brute = outputs[0]
    bumped = cb.AmplitudePolynomial({k: brute.coeff(k) + (k == 2)
                                     for k in brute.orders()})
    assert work.check_round(payload, [(exact, bumped)]) == [(False, False)]
    wrong_count = {"sectors": [(3, 4, "R", "L", 11)]}
    assert work.check_round(wrong_count, outputs) == [(False, False)]


@pytest.mark.parametrize("order", [0, 1])
def test_scipy_and_mpmath_references_agree_on_0_to_50(order):
    import mpmath
    import scipy.special

    s = np.linspace(0.0, 50.0, 201)
    fn = scipy.special.j0 if order == 0 else scipy.special.j1
    with mpmath.workdps(30):
        exact = np.array([float(mpmath.besselj(order, mpmath.mpf(float(v))))
                          for v in s])
    assert np.all(np.abs(fn(s) - exact) <= checks.bessel_tol(s) / 2)
