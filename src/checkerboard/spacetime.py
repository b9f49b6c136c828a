"""Exact rational spacetime: membership, boosts, and the velocity spectrum.

The spacetime under consideration is the set of events

    (t, x) = (n/m) * (p^2 + q^2, p^2 - q^2),   n, m, p, q nonzero integers,

a dense rational subset of the 2-d Minkowski plane. In light-cone
coordinates r = (t+x)/2, l = (t-x)/2 the same set reads
(r, l) = (n/m) * (p^2, q^2), so membership reduces to "r and l are nonzero,
share a sign, and r/l is the square of a rational". That test, the boost
subgroup with velocities (p^2-q^2)/(p^2+q^2), and the resulting discrete
velocity spectrum are all computed here in exact arithmetic; no floating
point enters this module. The light-cone pair (r, l) is computed inline
where membership is tested; there is no light-cone record type.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional, Union

from .errors import (InvalidParameterError, ResourceLimitError, brief,
                     check_cap, check_size, to_fraction)

RationalLike = Union[int, Fraction]

# Bound on max_pq for velocity_spectrum. The cost grows about 4x per
# doubling (about 0.61 max_pq^2 velocities, one Fraction each):
# max_pq = 128, 256, 512 take about 0.01, 0.04 and 0.2 s on a 2-CPU
# machine (best of 3), and at 512 the process peaks at 34 MB resident.
DEFAULT_SPECTRUM_CAP = 512


def format_rational(value: RationalLike) -> str:
    """Serialize a rational as "num/den" in lowest terms, e.g. "5/1", "-3/5"."""
    f = to_fraction(value)
    try:
        return f"{f.numerator}/{f.denominator}"
    except ValueError:  # past the limit, which sys.set_int_max_str_digits sets
        raise ResourceLimitError(f"{brief(f)} exceeds the int-to-str "
                                 "digit limit") from None


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" or a plain integer string, ASCII digits with an optional
    sign on a, into a Fraction; any other text (spaces, underscores,
    non-ASCII digits), or a zero denominator, raises InvalidParameterError."""
    match = re.fullmatch(r"([+-]?[0-9]+)(?:/([0-9]+))?", text)
    den = int(match[2] or 1) if match else 0
    if den == 0:
        raise InvalidParameterError(
            f"expected a rational 'a/b' or integer, got {text!r}")
    return Fraction(int(match[1]), den)


@dataclass(frozen=True)
class SpacetimePoint:
    """Event with exact rational coordinates (units c = hbar/m = 1)."""

    t: Fraction
    x: Fraction


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


@dataclass(frozen=True)
class BoostMatrix:
    """Element of the rational boost subgroup, held as its canonical
    generator (p, q): gcd 1 and p > 0, as boost() reduces it.

    Entries are computed from it: a11 = a22 = (p^2+q^2)/(2pq) and
    a12 = a21 = -(p^2-q^2)/(2pq); the determinant is exactly 1.
    """

    p: int
    q: int

    def __post_init__(self):
        object.__setattr__(self, "p", check_size("generator p", self.p))
        object.__setattr__(self, "q", check_size("generator q", self.q))
        if not (self.q != 0 and self.p > 0 and gcd(self.p, self.q) == 1):
            raise InvalidParameterError(f"boost generator ({brief(self.p)}, "
                f"{brief(self.q)}) is not canonical: need p > 0, q != 0 and "
                "gcd(p, q) = 1; boost() reduces one")

    @property
    def a11(self) -> Fraction:
        return Fraction(self.p * self.p + self.q * self.q, 2 * self.p * self.q)

    @property
    def a12(self) -> Fraction:
        return Fraction(self.q * self.q - self.p * self.p, 2 * self.p * self.q)

    a21, a22 = a12, a11

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
    |x| < |t| since p^2 + q^2 > |p^2 - q^2| for nonzero p, q. Kept as the
    paper's definition of the event set, which is_member inverts.
    """
    n, m, p, q = map(check_size, "nmpq", (n, m, p, q))
    if n == 0 or m == 0 or p == 0 or q == 0:
        raise InvalidParameterError("all of n, m, p, q must be nonzero")
    scale = Fraction(n, m)
    pp, qq = p * p, q * q
    return SpacetimePoint(t=scale * (pp + qq), x=scale * (pp - qq))


def rational_square_root(v: RationalLike) -> Optional[Fraction]:
    """Exact positive square root of a rational, or None.

    Returns s > 0 with s*s == v when v is a positive rational square.
    The test runs isqrt on the reduced numerator and denominator, so it
    is exact for arbitrarily large values.
    """
    v = to_fraction(v, "v")
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
    t, x = to_fraction(pt.t, "t"), to_fraction(pt.x, "x")
    r, l = (t + x) / 2, (t - x) / 2
    if r == 0 or l == 0 or (r > 0) != (l > 0):
        return None
    root = rational_square_root(r / l)
    if root is None:
        return None
    p, q = root.numerator, root.denominator
    scale = r / (p * p)
    return MembershipWitness(n=scale.numerator, m=scale.denominator, p=p, q=q)


def boost(p: int, q: int) -> BoostMatrix:
    """Boost with velocity (p^2-q^2)/(p^2+q^2), entries exact rationals.

    The generator is stored in canonical form (gcd 1, p > 0), so equal
    matrices always carry equal generators.
    """
    p, q = check_size("generator p", p), check_size("generator q", q)
    if p == 0 or q == 0:
        raise InvalidParameterError("boost generators p, q must be nonzero")
    # (p, q) and (-p, -q) give the same matrix; common factors cancel in p/q
    g = gcd(p, q) if p > 0 else -gcd(p, q)
    return BoostMatrix(p=p // g, q=q // g)


def apply_boost(b: BoostMatrix, pt: SpacetimePoint) -> SpacetimePoint:
    """Exact matrix-vector product; maps lattice members to lattice members."""
    t, x = to_fraction(pt.t, "t"), to_fraction(pt.x, "x")
    return SpacetimePoint(t=b.a11 * t + b.a12 * x, x=b.a21 * t + b.a22 * x)


def compose(b1: BoostMatrix, b2: BoostMatrix) -> BoostMatrix:
    """Exact matrix product b1 * b2.

    Generators multiply componentwise: the product of the boosts generated
    by (p1, q1) and (p2, q2) is the boost generated by (p1*p2, q1*q2).
    """
    return boost(b1.p * b2.p, b1.q * b2.q)


def matrix_product(b1: BoostMatrix, b2: BoostMatrix) -> tuple[Fraction, ...]:
    """Entries of b1 * b2 by direct multiplication: the oracle that
    compose's generator rule is checked against."""
    return (b1.a11 * b2.a11 + b1.a12 * b2.a21,
            b1.a11 * b2.a12 + b1.a12 * b2.a22,
            b1.a21 * b2.a11 + b1.a22 * b2.a21,
            b1.a21 * b2.a12 + b1.a22 * b2.a22)


def velocity_spectrum(max_pq: int,
                      cap: int = DEFAULT_SPECTRUM_CAP) -> list[Fraction]:
    """All distinct velocities (p^2-q^2)/(p^2+q^2) with 1 <= p, q <= max_pq.

    The list is ascending, symmetric about 0, and contained in (-1, 1).
    max_pq above cap raises ResourceLimitError before any work.
    """
    max_pq = check_size("max_pq", max_pq, 1)
    check_cap("max_pq", max_pq, "spectrum", cap)
    # v is increasing in p/q and v(q/p) = -v(p/q): walk the Farey sequence
    # of order max_pq, the ascending coprime p/q in (0, 1), then mirror it
    below, (a, b, c, d) = [], (0, 1, 1, max_pq)
    while c < d:
        below.append(Fraction(c * c - d * d, c * c + d * d))
        k = (max_pq + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    return below + [Fraction(0)] + [-v for v in reversed(below)]


def spectrum_membership(v: RationalLike) -> Optional[tuple[int, int]]:
    """Return generators (p, q) with v = (p^2-q^2)/(p^2+q^2), or None.

    v is such a velocity exactly when the event (1, v) is a lattice member,
    and then its witness carries (p, q); |v| >= 1 fails the sign test.
    """
    witness = is_member(SpacetimePoint(1, to_fraction(v, "v")))
    return None if witness is None else (witness.p, witness.q)
