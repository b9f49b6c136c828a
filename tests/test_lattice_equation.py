"""The lattice sector sums solve the light-cone checkerboard equation.

Fix the start direction. Let X(P, Q) be the sector that ends moving right
and Y(P, Q) the one that ends moving left, both polynomials in the symbol
z = i * step, and let w_j = W(j) - W(j - 1) be the spec's segment weight.
For P, Q >= 1

    X(P+1, Q) = X(P, Q) + z w_P Y(P, Q)
    Y(P, Q+1) = Y(P, Q) + z w_Q X(P, Q)

with the boundary rows X(1, Q) = 0, Y(P, 1) = 1 for a right start and
X(1, Q) = 1, Y(P, 1) = 0 for a left one (Feynman & Hibbs 1965, problem
2-6; Jacobson & Schulman, J. Phys. A 17 (1984) 375). The equation and
the boundary rows determine every sector sum on the grid, so holding
them exactly pins the closed-form coefficients without enumeration.
"""

from itertools import product

import pytest

from checkerboard import propagator
from checkerboard.paths import AmplitudePolynomial, Direction
from checkerboard.propagator import (LatticeSpec, LinearSpec,
                                     exact_component, linear_component)
from test_paths import poly_of

R, L = Direction.R, Direction.L
ZERO, ONE = AmplitudePolynomial(), poly_of({0: 1})

LATTICES = [(LatticeSpec, exact_component), (LinearSpec, linear_component)]


def weight(spec, j):
    return spec.W(j) - spec.W(j - 1)


def step_on(same, other, w):
    """same + z w other, as a polynomial in z."""
    coeffs = {k: same.coeff(k) for k in same.orders()}
    for k in other.orders():
        coeffs[k + 1] = coeffs.get(k + 1, 0) + w * other.coeff(k)
    return poly_of(coeffs)


def equation_checks(component, w, n):
    """One bool per check of the equation and the boundary rows on
    1 <= P, Q <= n, for both starts; w(j) is the weight checked against."""
    checks = []
    cells = list(product(range(1, n + 1), repeat=2))
    for start in (R, L):
        X = {(P, Q): component(P, Q, start, R)
             for P, Q in product(range(1, n + 2), range(1, n + 1))}
        Y = {(P, Q): component(P, Q, start, L)
             for P, Q in product(range(1, n + 1), range(1, n + 2))}
        x1, y1 = (ZERO, ONE) if start is R else (ONE, ZERO)
        checks += [X[1, Q] == x1 for Q in range(1, n + 1)]
        checks += [Y[P, 1] == y1 for P in range(1, n + 1)]
        checks += [X[P + 1, Q] == step_on(X[P, Q], Y[P, Q], w(P))
                   for P, Q in cells]
        checks += [Y[P, Q + 1] == step_on(Y[P, Q], X[P, Q], w(Q))
                   for P, Q in cells]
    return checks


@pytest.mark.parametrize("spec,component", LATTICES,
                         ids=[spec.__name__ for spec, _ in LATTICES])
def test_sector_sums_solve_the_checkerboard_equation(spec, component):
    checks = equation_checks(component, lambda j: weight(spec, j), 40)
    assert len(checks) == 2 * (2 * 40 + 2 * 40 * 40)
    assert all(checks), checks.count(False)


@pytest.mark.parametrize("start", [R, L])
def test_equation_holds_near_the_lattice_cap(start):
    P, Q = 511, 512
    x, y = (exact_component(P, Q, start, end) for end in (R, L))
    assert exact_component(P + 1, Q, start, R) == \
        step_on(x, y, weight(LatticeSpec, P))
    assert exact_component(P, Q + 1, start, L) == \
        step_on(y, x, weight(LatticeSpec, Q))


def odd_row_from(first):
    """e_k of the n weights first, first + 2, ..., as a row function."""
    def row(n):
        e = [1]
        for w in range(first, first + 2 * n, 2):
            e = [a + w * b for a, b in zip(e + [0], [0] + e)]
        return e
    return row


@pytest.mark.parametrize("row", [odd_row_from(3),
                                 lambda n: LatticeSpec.row(n + 1)],
                         ids=["weights 2j+1", "row one entry too long"])
def test_equation_fails_a_mutated_quadratic_row(row):
    # at first weight 1 the helper gives the library's rows, so a mutant
    # differs from them only where the test mutates it
    assert odd_row_from(1)(12) == list(LatticeSpec.row(12))

    def mutant(P, Q, start, end):
        return propagator._component(row, P, Q, start, end)

    checks = equation_checks(mutant, lambda j: weight(LatticeSpec, j), 11)
    assert checks.count(False) > len(checks) // 2
