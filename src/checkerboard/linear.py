"""Uniform-lattice checkerboard baseline.

Same path sums, same reversal-counting convention, but every segment has
the constant length eps = t / N. Each counted reversal then contributes
the same factor i * eps, so the order-(R-1) coefficient of a sector sum is
simply the number of paths with R reversals. That is the quadratic
lattice's sector sum with every segment weight 1 in place of 2j - 1:
e_k(1, ..., 1) = C(n, k), so the binomial rows take the place of the e_k
tables in the shared core. This model converges to the same closed forms
as the quadratic lattice; keeping it around isolates what the quadratic
geometry actually changes (the coefficient structure, not the limit).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional, Sequence, Union

from .errors import InvalidParameterError
from .paths import AmplitudePolynomial, Direction
from .propagator import WARNING_COMPONENT  # noqa: F401  (the sweep's marker)
from .propagator import (ConvergenceRow, PropagatorMatrix, _parts,
                         _sector_polynomial, _sweep, _to_matrix)

RationalLike = Union[int, Fraction]


@dataclass(frozen=True)
class LinearSpec:
    """Uniform lattice endpoint: N = P + Q segments of length t / N."""

    N: int
    P: int
    Q: int
    t: Fraction

    def __post_init__(self):
        if self.P < 1 or self.Q < 1:
            raise InvalidParameterError("LinearSpec requires P >= 1 and Q >= 1")
        if self.N != self.P + self.Q:
            raise InvalidParameterError("LinearSpec requires N = P + Q")
        object.__setattr__(self, "t", Fraction(self.t))
        if self.t <= 0:
            raise InvalidParameterError("LinearSpec requires t > 0")

    @property
    def epsilon(self) -> Fraction:
        return self.t / self.N

    @property
    def v(self) -> Fraction:
        return Fraction(self.P - self.Q, self.N)

    @property
    def x(self) -> Fraction:
        return self.t * self.v


def split_counts(N: int, v: RationalLike) -> Optional[tuple[int, int]]:
    """Split N segments into (P, Q) realizing velocity v = (P - Q) / N.

    Needs N (1 + v) even in the exact sense; returns None when no valid
    split exists (that N is then skipped by the sweep).
    """
    if N < 2:
        return None
    v = Fraction(v)
    p = Fraction(N) * (1 + v) / 2
    if p.denominator != 1:
        return None
    P = int(p)
    Q = N - P
    if P < 1 or Q < 1:
        return None
    return P, Q


def _binomials(n: int) -> list[int]:
    """e_k of n unit weights, k = 0..n: the binomial row C(n, k)."""
    return [comb(n, k) for k in range(n + 1)]


def linear_component(P: int, Q: int, start: Direction,
                     end: Direction) -> AmplitudePolynomial:
    """Sector sum on the uniform lattice as a polynomial in (i * eps).

    The coefficient at order R - 1 equals count_paths(P, Q, start, end, R):
    all counted reversals weigh the same here.
    """
    if P < 1 or Q < 1:
        raise InvalidParameterError("sector sums need P >= 1 and Q >= 1")
    return _sector_polynomial(_binomials(P - 1), _binomials(Q - 1), start, end)


def linear_parts(spec: LinearSpec) -> dict[str, tuple[Fraction, Fraction]]:
    """All four components at eps = t / N as exact (real, imag) pairs."""
    return _parts(_binomials(spec.P - 1), _binomials(spec.Q - 1), spec.epsilon)


def linear_matrix(spec: LinearSpec) -> PropagatorMatrix:
    return _to_matrix(linear_parts(spec))


def linear_converge(t: RationalLike, v: RationalLike,
                    N_list: Sequence[int]) -> list[ConvergenceRow]:
    """Deviation of the uniform-lattice components from the closed forms.

    Same row schema as the quadratic sweep. N < 1 is refused. A positive
    N that cannot realize v exactly is not an error; it yields a single
    marker row with component = "warning", the skipped N in the P column,
    Q = 0, and zeroed numeric fields, so consumers can tell silence from
    omission.
    """
    t = Fraction(t)
    v = Fraction(v)
    if t <= 0:
        raise InvalidParameterError("sweep requires t > 0")
    if abs(v) >= 1:
        raise InvalidParameterError("sweep requires |v| < 1")
    if any(N < 1 for N in N_list):
        raise InvalidParameterError("sweep requires every N >= 1")

    def lattice(N: int) -> Optional[tuple[int, int, dict]]:
        split = split_counts(N, v)
        if split is None:
            return None
        P, Q = split
        return P, Q, linear_parts(LinearSpec(N=N, P=P, Q=Q, t=t))

    return _sweep(t, v, N_list, lattice)
