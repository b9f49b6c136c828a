"""Seeded inputs and independent references for the three workloads.

Runs in the parent process, never in the worker that times the package,
and imports nothing from the package: the lattice limits and closed-form
values come from mpmath, the grid references from scipy checked against
mpmath, the path counts from math.comb and the stencil residuals from the
plane-wave closed form.

The seed chooses the order of operations everywhere, and the positions of
the field workload's honest points and grid values. It never changes a
size or a count, so every run does the same amount of work and the traced
counters read the same for every seed. The inputs of the known-fault
slice do not depend on the seed at all: the faulty series' stopping
point there depends chaotically on the last bits of s.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import numpy as np

import checks

# refine: velocity generators (p, q), v = (p^2 - q^2) / (p^2 + q^2), with
# the multipliers m of the doubling sweep (P, Q) = (p m, q m).
REFINE_T = Fraction(2)
REFINE_FAMILIES = {
    (1, 1): (8, 16, 32, 64, 128),
    (2, 1): (8, 16, 32, 64, 128),
    (3, 2): (8, 16, 32, 64),
}

# field: scattered closed-form points, grid arrays, plane-wave stencils
# and the dirac-check region.
HONEST_POINTS = 1800   # s in (0, HONEST_S]
FAULT_POINTS = 200     # s in (FAULT_S_LO, FAULT_S_HI): known-fault slice
HONEST_S = 12.0
FAULT_S_LO, FAULT_S_HI = 40.0, 50.0
MAX_RAPIDITY = 1.5
GRID_ARRAYS = 8        # each evaluated with j0_values and with j1_values
GRID_NODES = 40_000    # per array; s in [0, GRID_S], both ends included
GRID_S = 5.0
FAULT_GRID_NODES = 20_000  # evenly spaced over (20, 49.9]
STENCIL_FIELDS = 4
STENCIL_SHAPE = (253, 243)  # dirac-check's fine grid at h = 0.02 / 2
STENCIL_H = 0.02
DIRAC_REGION = (0.5, 3.0, 0.4)  # dirac-check's default region
DIRAC_SPACINGS = (0.04, 0.02)
CONTROL_J0_SCALE = 1.01
REFERENCE_SAMPLES = 64  # grid values per array re-checked with mpmath

# crosscheck: every (P, Q) with P, Q >= 1 and P + Q <= this, every sector.
CROSSCHECK_MAX_SEGMENTS = 12


def make(workload: str, seed: int) -> dict:
    return {"refine": refine, "field": field,
            "crosscheck": crosscheck}[workload](seed)


# --------------------------------------------------------------- refine

def lattice_limit(t: Fraction, v: Fraction) -> dict:
    """The four components' continuum limits at (t, x = v t), via mpmath."""
    import mpmath

    with mpmath.workdps(40):
        tt = mpmath.mpf(t.numerator) / t.denominator
        x = tt * v.numerator / v.denominator
        s = mpmath.sqrt((tt - x) * (tt + x))
        j0 = mpmath.besselj(0, s)
        j1 = mpmath.besselj(1, s)
        return {"psi_pp": complex(0, (tt + x) / s * j1),
                "psi_pm": complex(j0), "psi_mp": complex(j0),
                "psi_mm": complex(0, (tt - x) / s * j1)}


def uniform_split(segments: int, v: Fraction) -> tuple[int, int, int]:
    """Smallest N >= segments with N (1 + v) / 2 whole, as (N, P, Q)."""
    N = segments
    while (N * (1 + v) / 2).denominator != 1:
        N += 1
    P = int(N * (1 + v) / 2)
    return N, P, N - P


def refine(seed: int) -> dict:
    sweeps = []
    for (p, q), ms in REFINE_FAMILIES.items():
        signs = (1,) if p == q else (1, -1)
        for sign in signs:
            a, b = (p, q) if sign > 0 else (q, p)
            v = Fraction(a * a - b * b, a * a + b * b)
            limit = lattice_limit(REFINE_T, v)
            quadratic = [(a * m, b * m) for m in ms]
            linear = [uniform_split(P + Q, v) for P, Q in quadratic]
            for model, sizes in (("quadratic", quadratic),
                                 ("linear", linear)):
                sweeps.append({"model": model, "v_is_zero": v == 0,
                               "sizes": sizes, "limit": limit})
    random.Random(seed).shuffle(sweeps)
    return {"t": REFINE_T, "sweeps": sweeps}


# ---------------------------------------------------------------- field

def closed_references(t: np.ndarray, x: np.ndarray):
    """mpmath components and their tolerances at float points (t, x).

    Returns (points, 4) complex references and (points, 4) tolerances:
    bessel_tol(s) scaled by each component's prefactor (1 for the mixed
    components, |t +- x| / s for the diagonal ones).
    """
    import mpmath

    ref = np.empty((t.size, 4), dtype=complex)
    tol = np.empty((t.size, 4))
    with mpmath.workdps(30):
        for i, (ti, xi) in enumerate(zip(t.tolist(), x.tolist())):
            tm, xm = mpmath.mpf(ti), mpmath.mpf(xi)
            s = mpmath.sqrt((tm - xm) * (tm + xm))
            j0 = mpmath.besselj(0, s)
            j1 = mpmath.besselj(1, s)
            up, down = (tm + xm) / s, (tm - xm) / s
            ref[i] = (complex(0, up * j1), complex(j0), complex(j0),
                      complex(0, down * j1))
            base = float(checks.bessel_tol(float(s)))
            tol[i] = (base * max(1.0, float(up)), base, base,
                      base * max(1.0, float(down)))
    return ref, tol


def grid_reference(fn: str, s: np.ndarray, rng: np.random.Generator):
    """scipy's J0/J1 over the array, after checking a seeded sample of it
    (and its largest value) against mpmath to half the check tolerance."""
    import mpmath
    import scipy.special

    ref = (scipy.special.j0 if fn == "j0" else scipy.special.j1)(s)
    sample = np.append(rng.choice(s.size, REFERENCE_SAMPLES, replace=False),
                       int(np.argmax(s)))
    order = 0 if fn == "j0" else 1
    with mpmath.workdps(30):
        for i in sample.tolist():
            exact = float(mpmath.besselj(order, mpmath.mpf(float(s[i]))))
            if abs(ref[i] - exact) > checks.bessel_tol(s[i]) / 2:
                raise RuntimeError(
                    f"scipy {fn}({s[i]!r}) = {ref[i]!r} disagrees with "
                    f"mpmath {exact!r}")
    return ref


def plane_wave(k: float, h: float, shape: tuple[int, int]) -> dict:
    """A Dirac plane wave u = exp(i(kx - wt)), w = (k - w) u, w^2 = k^2 + 1,
    on a grid centred on the origin, with the residual rows the central
    differences must give: the t and x differences of exp(i(kx - wt))
    are -i sin(wh)/h and i sin(kh)/h times it, exactly.
    """
    omega = np.sqrt(k * k + 1.0)
    nt, nx = shape
    t = h * (np.arange(nt) - nt // 2)
    x = h * (np.arange(nx) - nx // 2)
    tt, xx = np.meshgrid(t, x, indexing="ij")
    phase = k * xx - omega * tt
    u = np.exp(1j * phase)
    w = (k - omega) * u
    wt, kt = np.sin(omega * h) / h, np.sin(k * h) / h
    inner = u[1:-1, 1:-1]
    row1 = (wt - kt + k - omega) * inner
    row2 = ((wt + kt) * (k - omega) + 1.0) * inner
    # Each node value carries ~U (1 + |phase|) relative error; a central
    # difference divides two of them by 2h, and a row sums three terms.
    tol = 64.0 * checks.U * (1.0 + float(np.abs(phase).max())) \
        * (1.0 + abs(k - omega)) / h
    return {"u": u, "w": w, "h": h, "expected": (row1, row2), "tol": tol}


def field(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    # s on fixed stratified values, so the series work is the same for
    # every seed; the seed boosts each honest point along its hyperbola.
    s = np.concatenate([
        HONEST_S * (np.arange(HONEST_POINTS) + 0.5) / HONEST_POINTS,
        FAULT_S_LO + (FAULT_S_HI - FAULT_S_LO)
        * (np.arange(FAULT_POINTS) + 0.5) / FAULT_POINTS])
    eta = np.concatenate([
        rng.uniform(-MAX_RAPIDITY, MAX_RAPIDITY, HONEST_POINTS),
        np.linspace(MAX_RAPIDITY, -MAX_RAPIDITY, FAULT_POINTS)])
    t, x = s * np.cosh(eta), s * np.sinh(eta)
    ref, tol = closed_references(t, x)
    points = {"t": t, "x": x, "ref": ref, "tol": tol,
              "fault": np.arange(s.size) >= HONEST_POINTS}

    arrays = [(np.concatenate([[0.0, GRID_S],
                               rng.uniform(0.0, GRID_S, GRID_NODES - 2)]),
               False) for _ in range(GRID_ARRAYS)]
    arrays.append((np.linspace(20.0, 49.9, FAULT_GRID_NODES + 1)[1:], True))
    grids = [{"fn": fn, "s": arr, "fault": fault,
              "ref": grid_reference(fn, arr, rng)}
             for arr, fault in arrays
             for fn in (("j0",) if fault else ("j0", "j1"))]

    stencils = [plane_wave(float(k), STENCIL_H, STENCIL_SHAPE)
                for k in rng.uniform(-3.0, 3.0, STENCIL_FIELDS)]
    dirac = [{"region": DIRAC_REGION, "h": h, "j0_scale": scale}
             for h in DIRAC_SPACINGS for scale in (1.0, CONTROL_J0_SCALE)]

    order = ([("closed", i) for i in range(s.size)]
             + [("grid", i) for i in range(len(grids))]
             + [("stencil", i) for i in range(len(stencils))]
             + [("dirac", i) for i in range(len(dirac))])
    random.Random(seed).shuffle(order)
    return {"points": points, "grids": grids, "stencils": stencils,
            "dirac": dirac, "order": order}


# ----------------------------------------------------------- crosscheck

def sector_paths(P: int, Q: int, start: str, end: str) -> int:
    """Paths of P right and Q left segments with fixed first and last
    directions: arrangements of what is left between the two ends."""
    rights = P - (start == "R") - (end == "R")
    lefts = Q - (start == "L") - (end == "L")
    if rights < 0 or lefts < 0:
        return 0
    return comb(rights + lefts, rights)


def crosscheck(seed: int) -> dict:
    sectors = [(P, Q, start, end, sector_paths(P, Q, start, end))
               for P in range(1, CROSSCHECK_MAX_SEGMENTS)
               for Q in range(1, CROSSCHECK_MAX_SEGMENTS + 1 - P)
               for start in "RL" for end in "RL"]
    random.Random(seed).shuffle(sectors)
    return {"sectors": sectors}
