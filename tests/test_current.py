"""The lattice equation conserves a weighted current, up to a known factor.

Fix the start direction and one step eps for every node: node (P, Q) is
the spec at time t = eps (W(P) + W(Q)). Let X(P, Q) and Y(P, Q) be the
sectors that end moving right and left, read from exact_parts (psi_pp and
psi_mp for a right start, psi_pm and psi_mm for a left one), and
w_j = W(j) - W(j - 1) the segment weight. With

    e(P, Q) = w_Q |X(P, Q)|^2 + w_P |Y(P, Q)|^2

the equation X(P+1, Q) = X + z w_P Y, Y(P, Q+1) = Y + z w_Q X (see
test_lattice_equation) gives, at every node,

    w_Q |X(P+1, Q)|^2 + w_P |Y(P, Q+1)|^2 = (1 + eps^2 w_P w_Q) e(P, Q):

the cross terms cancel because z = i eps is purely imaginary. Summed over
the layer P + Q = n, with E_n the layer's total of e,

    E_{n+1} = sum_{P+Q=n} (1 + eps^2 w_P w_Q) e(P, Q) + w_n,

where w_n comes from the boundary node: Y(n, 1) = 1 for a right start,
X(1, n) = 1 for a left one. On the uniform lattice every weight is 1 and
this is E_{n+1} = (1 + eps^2) E_n + 1. Both identities are checked in
exact Fractions.

The identities follow from the lattice equation, which
test_lattice_equation already holds the sector sums to; what they add is
the factor by which each layer may grow, which a bound on the float
route can carry.
"""

from fractions import Fraction

import pytest

from checkerboard.paths import Direction
from checkerboard.propagator import LatticeSpec, LinearSpec, exact_parts
from test_lattice_equation import LATTICES, weight

R, L = Direction.R, Direction.L
SECTORS = {R: ("psi_pp", "psi_mp"), L: ("psi_pm", "psi_mm")}
LAYERS = 14  # the last layer n whose E_n is checked
STEPS = [(LatticeSpec, Fraction(1, 7)), (LatticeSpec, Fraction(3, 2)),
         (LinearSpec, Fraction(2, 9)), (LinearSpec, Fraction(5, 3))]


def layer(n):
    return [(P, n - P) for P in range(1, n)]


def nodes(n):
    """Every node (P, Q) with P, Q >= 1 on the layers 2..n."""
    return [node for m in range(2, n + 1) for node in layer(m)]


def moduli_from_parts(spec, eps, start):
    """(|X|^2, |Y|^2) at every node up to LAYERS, from exact_parts."""
    table = {}
    for P, Q in nodes(LAYERS):
        parts = exact_parts(spec(P, Q, eps * (spec.W(P) + spec.W(Q))))
        table[P, Q] = tuple(re * re + im * im for re, im in
                            (parts[name] for name in SECTORS[start]))
    return table


def current_checks(moduli, w, eps):
    """(node checks, layer checks) of the two identities, as bools, on a
    table of (|X|^2, |Y|^2) per node up to LAYERS; w(j) is the weight
    checked against."""
    def e(P, Q):
        return w(Q) * moduli[P, Q][0] + w(P) * moduli[P, Q][1]

    def grown(P, Q):
        return (1 + eps * eps * w(P) * w(Q)) * e(P, Q)

    node_checks = [w(Q) * moduli[P + 1, Q][0] + w(P) * moduli[P, Q + 1][1]
                   == grown(P, Q) for P, Q in nodes(LAYERS - 1)]
    layer_checks = [sum(e(P, Q) for P, Q in layer(n + 1))
                    == sum(grown(P, Q) for P, Q in layer(n)) + w(n)
                    for n in range(2, LAYERS)]
    return node_checks, layer_checks


@pytest.mark.parametrize("start", [R, L])
@pytest.mark.parametrize("spec,eps", STEPS,
                         ids=[f"{spec.__name__}-{eps}" for spec, eps in STEPS])
def test_current_identities_hold_exactly(spec, eps, start):
    node_checks, layer_checks = current_checks(
        moduli_from_parts(spec, eps, start), lambda j: weight(spec, j), eps)
    assert (len(node_checks), len(layer_checks)) == (78, 12)
    assert all(node_checks), node_checks.count(False)
    assert all(layer_checks), layer_checks.count(False)


@pytest.mark.parametrize("spec,component", LATTICES,
                         ids=[spec.__name__ for spec, _ in LATTICES])
def test_current_fails_a_real_turn_weight(spec, component):
    # the sector sums of a right start evaluated at z = eps instead of
    # i eps: the cross terms no longer cancel. Only the nodes P = 1, where
    # X = 0, still pass, and with them layer 2, which is node (1, 1) alone
    eps = Fraction(1, 7) if spec is LatticeSpec else Fraction(2, 9)

    def value(P, Q, end):
        poly = component(P, Q, R, end)
        return sum(poly.coeff(k) * eps ** k for k in poly.orders())

    moduli = {(P, Q): (value(P, Q, R) ** 2, value(P, Q, L) ** 2)
              for P, Q in nodes(LAYERS)}
    node_checks, layer_checks = current_checks(
        moduli, lambda j: weight(spec, j), eps)
    passed = {node for node, ok in zip(nodes(LAYERS - 1), node_checks) if ok}
    assert passed == {(1, Q) for Q in range(1, LAYERS - 1)}
    assert layer_checks == [True] + [False] * (len(layer_checks) - 1)


def test_current_fails_a_shifted_weight():
    # w_{j+1} in place of w_j bites only on the quadratic lattice: the
    # uniform weights are all 1, so there the shifted weight is the same
    # weight and the mutant cannot be seen
    for spec, eps in STEPS:
        honest = moduli_from_parts(spec, eps, R)
        node_checks, layer_checks = current_checks(
            honest, lambda j: weight(spec, j + 1), eps)
        if spec is LatticeSpec:
            assert not any(node_checks) and not any(layer_checks)
        else:
            assert all(node_checks) and all(layer_checks)
