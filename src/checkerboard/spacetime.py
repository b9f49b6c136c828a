"""Exact rational spacetime: membership, boosts, and the velocity spectrum.

The spacetime under consideration is the set of events

    (t, x) = (n/m) * (p^2 + q^2, p^2 - q^2),   n, m, p, q nonzero integers,

a dense rational subset of the 2-d Minkowski plane. In light-cone
coordinates r = (t+x)/2, l = (t-x)/2 the same set reads
(r, l) = (n/m) * (p^2, q^2), so membership reduces to "r and l are nonzero,
share a sign, and r/l is the square of a rational". That test, the boost
subgroup with velocities (p^2-q^2)/(p^2+q^2), and the resulting discrete
velocity spectrum are all computed here in exact arithmetic; no floating
point enters this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional, Union

from .errors import InvalidParameterError, UndefinedVelocityError

RationalLike = Union[int, Fraction]


def format_rational(value: RationalLike) -> str:
    """Serialize a rational as "num/den" in lowest terms, e.g. "5/1", "-3/5"."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" or a plain integer string into a Fraction."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(text))


@dataclass(frozen=True)
class SpacetimePoint:
    """Event with exact rational coordinates (units c = hbar/m = 1)."""

    t: Fraction
    x: Fraction


@dataclass(frozen=True)
class LightConePoint:
    """Event in light-cone coordinates r = (t+x)/2, l = (t-x)/2."""

    r: Fraction
    l: Fraction


@dataclass(frozen=True)
class MembershipWitness:
    """Canonical generators (n, m, p, q) certifying lattice membership.

    Canonical form: p, q > 0 with gcd(p, q) = 1; m > 0 with gcd(|n|, m) = 1;
    the sign of the event is carried by n.
    """

    n: int
    m: int
    p: int
    q: int

    def point(self) -> SpacetimePoint:
        """Reconstruct the witnessed event exactly."""
        scale = Fraction(self.n, self.m)
        pp, qq = self.p * self.p, self.q * self.q
        return SpacetimePoint(t=scale * (pp + qq), x=scale * (pp - qq))


@dataclass(frozen=True)
class BoostMatrix:
    """Element of the rational boost subgroup, with its canonical generator.

    Entries satisfy a11 = a22 = (p^2+q^2)/(2pq) and
    a12 = a21 = -(p^2-q^2)/(2pq); the determinant is exactly 1.
    """

    a11: Fraction
    a12: Fraction
    a21: Fraction
    a22: Fraction
    p: int
    q: int

    @property
    def velocity(self) -> Fraction:
        return Fraction(self.p * self.p - self.q * self.q,
                        self.p * self.p + self.q * self.q)

    @property
    def determinant(self) -> Fraction:
        return self.a11 * self.a22 - self.a12 * self.a21


def make_point(n: int, m: int, p: int, q: int) -> SpacetimePoint:
    """Build the event (n/m)(p^2+q^2, p^2-q^2) in lowest terms.

    All four generators must be nonzero; the result always satisfies
    |x| < |t| since p^2 + q^2 > |p^2 - q^2| for nonzero p, q.
    """
    if n == 0 or m == 0 or p == 0 or q == 0:
        raise InvalidParameterError("all of n, m, p, q must be nonzero")
    scale = Fraction(n, m)
    pp, qq = p * p, q * q
    return SpacetimePoint(t=scale * (pp + qq), x=scale * (pp - qq))


def to_lightcone(pt: SpacetimePoint) -> LightConePoint:
    return LightConePoint(r=(pt.t + pt.x) / 2, l=(pt.t - pt.x) / 2)


def from_lightcone(lc: LightConePoint) -> SpacetimePoint:
    return SpacetimePoint(t=lc.r + lc.l, x=lc.r - lc.l)


def rational_square_root(v: RationalLike) -> Optional[Fraction]:
    """Exact positive square root of a rational, or None.

    Returns s > 0 with s*s == v when v is a positive rational square.
    The test runs isqrt on the reduced numerator and denominator, so it
    is exact for arbitrarily large values.
    """
    v = Fraction(v)
    if v <= 0:
        return None
    root_num = isqrt(v.numerator)
    root_den = isqrt(v.denominator)
    if root_num * root_num != v.numerator or root_den * root_den != v.denominator:
        return None
    return Fraction(root_num, root_den)


def is_member(pt: SpacetimePoint) -> Optional[MembershipWitness]:
    """Decide lattice membership; return a canonical witness or None.

    In light-cone form membership requires r != 0, l != 0, r*l > 0 and
    r/l = (p/q)^2 for some integers p, q. The witness takes p/q from the
    exact square root in lowest terms and n/m = r/p^2 (reduced, sign on n).
    """
    lc = to_lightcone(pt)
    if lc.r == 0 or lc.l == 0 or (lc.r > 0) != (lc.l > 0):
        return None
    root = rational_square_root(lc.r / lc.l)
    if root is None:
        return None
    p, q = root.numerator, root.denominator
    scale = lc.r / (p * p)
    return MembershipWitness(n=scale.numerator, m=scale.denominator, p=p, q=q)


def _canonical_generator(p: int, q: int) -> tuple[int, int]:
    # (p, q) and (-p, -q) give the same matrix; common factors cancel in p/q.
    g = gcd(p, q)
    p, q = p // g, q // g
    if p < 0:
        p, q = -p, -q
    return p, q


def boost(p: int, q: int) -> BoostMatrix:
    """Boost with velocity (p^2-q^2)/(p^2+q^2), entries exact rationals.

    The generator is stored in canonical form (gcd 1, p > 0), so equal
    matrices always carry equal generators.
    """
    if p == 0 or q == 0:
        raise InvalidParameterError("boost generators p, q must be nonzero")
    p, q = _canonical_generator(p, q)
    pp, qq = p * p, q * q
    diag = Fraction(pp + qq, 2 * p * q)
    off = Fraction(-(pp - qq), 2 * p * q)
    return BoostMatrix(a11=diag, a12=off, a21=off, a22=diag, p=p, q=q)


def apply_boost(b: BoostMatrix, pt: SpacetimePoint) -> SpacetimePoint:
    """Exact matrix-vector product; maps lattice members to lattice members."""
    return SpacetimePoint(t=b.a11 * pt.t + b.a12 * pt.x,
                          x=b.a21 * pt.t + b.a22 * pt.x)


def compose(b1: BoostMatrix, b2: BoostMatrix) -> BoostMatrix:
    """Exact matrix product b1 * b2.

    Generators multiply componentwise: the product of the boosts generated
    by (p1, q1) and (p2, q2) is the boost generated by (p1*p2, q1*q2).
    """
    return boost(b1.p * b2.p, b1.q * b2.q)


def matrix_product(b1: BoostMatrix, b2: BoostMatrix) -> tuple[Fraction, ...]:
    """Entries of b1 * b2 by direct multiplication (cross-check for compose)."""
    return (b1.a11 * b2.a11 + b1.a12 * b2.a21,
            b1.a11 * b2.a12 + b1.a12 * b2.a22,
            b1.a21 * b2.a11 + b1.a22 * b2.a21,
            b1.a21 * b2.a12 + b1.a22 * b2.a22)


def velocity(pt: SpacetimePoint) -> Fraction:
    """Exact velocity x/t of the event as seen from the origin."""
    if pt.t == 0:
        raise UndefinedVelocityError("velocity undefined at t = 0")
    return pt.x / pt.t


def velocity_spectrum(max_pq: int) -> list[Fraction]:
    """All distinct velocities (p^2-q^2)/(p^2+q^2) with 1 <= p, q <= max_pq.

    The list is ascending, symmetric about 0, and contained in (-1, 1).
    """
    if max_pq < 1:
        raise InvalidParameterError("max_pq must be >= 1")
    values = set()
    for p in range(1, max_pq + 1):
        for q in range(1, max_pq + 1):
            values.add(Fraction(p * p - q * q, p * p + q * q))
    return sorted(values)


def spectrum_membership(v: RationalLike) -> Optional[tuple[int, int]]:
    """Return generators (p, q) with v = (p^2-q^2)/(p^2+q^2), or None.

    Solves (1+v)/(1-v) = p^2/q^2 by exact square root; |v| < 1 required.
    """
    v = Fraction(v)
    if abs(v) >= 1:
        return None
    root = rational_square_root((1 + v) / (1 - v))
    if root is None:
        return None
    return root.numerator, root.denominator
