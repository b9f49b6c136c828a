"""The exact lattice sums extrapolate to the closed forms.

On either lattice a component at k times a fixed generator shape (a, b)
deviates from its continuum limit by an expansion in integer powers of
1/k. Over a doubling sweep k0, 2 k0, ..., Richardson's scheme (Richardson,
1911) removes one power per level:

    R[l][j] = (2^l R[l-1][j+1] - R[l-1][j]) / (2^l - 1)

so level l errs by O(k^-(l+1)) and falls by about 2^(l+1) per doubling.
exact_parts gives exact rationals, so the whole table is exact and only
the truncation of the expansion is left. The last level must lie within
1e-10 of the closed form built from bessel_j0_j1, every level must fall at
its own rate, and a lattice step scaled by 1 + 1e-6 or a J0 or J1 value
off by 1e-9 must fail: a gate on the lattice and the series together that
needs no mpmath.
"""

from fractions import Fraction
from functools import lru_cache

import pytest

from checkerboard.bessel import bessel_j0_j1
from checkerboard.propagator import (LatticeSpec, LinearSpec, closed_matrix,
                                     exact_parts, proper_time)

NAMES = ("psi_pp", "psi_pm", "psi_mp", "psi_mm")
GATE = 1e-10
RATE_BAND = (0.8, 1.25)  # error ratio per doubling over 2^(l+1)

# (spec, t, v, shape (a, b), k0, levels): sizes (a k, b k) for
# k = k0 ... k0 2^(levels - 1) realise v; s = t sqrt(1 - v^2) <= 4
CASES = [
    (LatticeSpec, 2, Fraction(0), (1, 1), 8, 7),
    (LatticeSpec, 2, Fraction(3, 5), (2, 1), 16, 6),
    (LatticeSpec, 1, Fraction(-3, 5), (1, 2), 8, 6),
    (LatticeSpec, Fraction(3, 2), Fraction(5, 13), (3, 2), 8, 6),
    (LinearSpec, 2, Fraction(0), (1, 1), 16, 6),
    (LinearSpec, 4, Fraction(0), (1, 1), 16, 7),
    (LinearSpec, 2, Fraction(3, 5), (4, 1), 16, 5),
    (LinearSpec, 2, Fraction(-3, 5), (1, 4), 16, 5),
    (LinearSpec, 5, Fraction(3, 5), (4, 1), 16, 6),
    (LinearSpec, 2, Fraction(5, 13), (9, 4), 8, 5),
]
IDS = [f"{spec.__name__}-t{t}-v{v}" for spec, t, v, *_ in CASES]


def make(spec, P, Q, t):
    return LatticeSpec(P, Q, t) if spec is LatticeSpec else \
        LinearSpec(P + Q, P, Q, t)


@lru_cache(maxsize=None)
def richardson_tables(spec, t, v, shape, k0, levels, step_scale=1):
    """Every level of the Richardson table of each (component, part), as
    {(name, part): [row of level 0, row of level 1, ...]}, with the
    lattice step scaled by step_scale (through t)."""
    a, b = shape
    sweep = []
    for j in range(levels):
        k = k0 << j
        lattice = make(spec, a * k, b * k, Fraction(t) * step_scale)
        assert lattice.v == v
        sweep.append(exact_parts(lattice))
    tables = {}
    for name in NAMES:
        for part in (0, 1):
            rows = [[parts[name][part] for parts in sweep]]
            for level in range(1, levels):
                prev = rows[-1]
                rows.append([(2 ** level * hi - lo) / (2 ** level - 1)
                             for lo, hi in zip(prev, prev[1:])])
            tables[name, part] = rows
    return tables


def reference(t, v, dj0=0.0, dj1=0.0):
    """The four closed-form components at (t, t v) from bessel_j0_j1, with
    J0 and J1 shifted by dj0 and dj1."""
    t, x = float(Fraction(t)), float(Fraction(t) * v)
    s = proper_time(t, x)
    j0, j1 = bessel_j0_j1(s)
    j0, j1 = j0 + dj0, j1 + dj1
    return {"psi_pp": complex(0.0, (t + x) / s * j1), "psi_pm": complex(j0),
            "psi_mp": complex(j0), "psi_mm": complex(0.0, (t - x) / s * j1)}


def level_errors(tables, ref):
    """Per level, the largest |extrapolated - ref| over the four
    components at each sweep position."""
    levels = len(tables[NAMES[0], 0])
    return [[max(abs(complex(float(tables[name, 0][level][j]),
                             float(tables[name, 1][level][j])) - ref[name])
                 for name in NAMES)
             for j in range(levels - level)]
            for level in range(levels)]


def rates(errors):
    """Each error ratio per doubling over the 2^(l+1) of its level l."""
    return [errs[j] / errs[j + 1] / 2 ** (level + 1)
            for level, errs in enumerate(errors[:-1])
            for j in range(len(errs) - 1)]


def holds(errors):
    lo, hi = RATE_BAND
    return errors[-1][0] < GATE and all(lo <= r <= hi for r in rates(errors))


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_extrapolated_sums_meet_the_closed_forms(case):
    spec, t, v, *_ = case
    ref = reference(t, v)
    want = closed_matrix(float(Fraction(t)), float(Fraction(t) * v))
    assert ref == {name: getattr(want, name) for name in NAMES}
    errors = level_errors(richardson_tables(*case), ref)
    assert errors[-1][0] < GATE, errors[-1]
    assert holds(errors), rates(errors)
    # the raw sums are first order and far outside the gate
    assert errors[0][-1] > 1e4 * GATE


@pytest.mark.parametrize("case", CASES, ids=IDS)
@pytest.mark.parametrize("shift", [{"dj0": 1e-9}, {"dj1": 1e-9}],
                         ids=["J0 + 1e-9", "J1 + 1e-9"])
def test_gate_fails_a_shifted_bessel_value(case, shift):
    spec, t, v, *_ = case
    shifted = reference(t, v, **shift)
    assert not holds(level_errors(richardson_tables(*case), shifted))


@pytest.mark.parametrize("case", [CASES[2], CASES[6]],
                         ids=[IDS[2], IDS[6]])
def test_gate_fails_a_scaled_step(case):
    spec, t, v, *_ = case
    mutant = richardson_tables(*case, step_scale=1 + Fraction(1, 10 ** 6))
    assert not holds(level_errors(mutant, reference(t, v)))
