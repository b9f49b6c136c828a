"""Zigzag paths on the quadratic lattice and their amplitudes.

A path from the origin to the lattice point (P, Q) moves at light speed,
alternating runs of right-moving and left-moving segments. Segment number j
along either light-cone direction has length (2j - 1) * eps0, so the j-th
right (left) run endpoint sits at j^2 * eps0, which is what makes the
lattice quadratic. Each direction reversal before the last contributes a
factor i * (2j - 1) * eps0 to the amplitude, where j indexes the segment
the path just completed; the final bend is fixed by the endpoint and is
not counted. With eps0 left symbolic the amplitude of a path is a monomial
in (i * eps0), and a sector sum is a polynomial. This module enumerates
paths, counts them in closed form, and evaluates those polynomials exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterator, Optional

from .errors import InvalidParameterError, ResourceLimitError

DEFAULT_ENUMERATION_CAP = 24


class Direction(enum.Enum):
    R = "R"
    L = "L"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class LatticePath:
    """A zigzag path, stored as its segment direction sequence."""

    segments: tuple[Direction, ...]

    @classmethod
    def from_string(cls, text: str) -> "LatticePath":
        """Parse a string like "RRLRLL" into a path."""
        try:
            return cls(tuple(Direction(c) for c in text))
        except ValueError:
            raise InvalidParameterError(
                f"path string must contain only R and L, got {text!r}") from None

    def __str__(self) -> str:
        return "".join(s.value for s in self.segments)

    @property
    def rights(self) -> int:
        return sum(1 for s in self.segments if s is Direction.R)

    @property
    def lefts(self) -> int:
        return sum(1 for s in self.segments if s is Direction.L)

    @property
    def start_dir(self) -> Optional[Direction]:
        return self.segments[0] if self.segments else None

    @property
    def end_dir(self) -> Optional[Direction]:
        return self.segments[-1] if self.segments else None

    @property
    def bends(self) -> int:
        """Total direction reversals R, including the final one."""
        return sum(1 for a, b in zip(self.segments, self.segments[1:]) if a is not b)

    @property
    def bends_to_left(self) -> int:
        """Reversals from right-moving to left-moving (R followed by L)."""
        return sum(1 for a, b in zip(self.segments, self.segments[1:])
                   if a is Direction.R and b is Direction.L)

    @property
    def bends_to_right(self) -> int:
        """Reversals from left-moving to right-moving (L followed by R)."""
        return sum(1 for a, b in zip(self.segments, self.segments[1:])
                   if a is Direction.L and b is Direction.R)


@dataclass(frozen=True)
class BendRecord:
    """One reversal: which light-cone axis the completed segment ran along,
    that segment's index j on its axis, and whether the bend is counted
    (all but the last are)."""

    side: Direction
    coord: int
    counted: bool


def bend_records(path: LatticePath) -> list[BendRecord]:
    """All reversals of a path in order, with per-axis segment coordinates.

    The completed segment before an R -> L reversal is the k-th right
    segment, so the bend carries coord k on side R; symmetrically for
    L -> R. The last reversal is flagged counted=False.
    """
    records = []
    r_done = 0
    l_done = 0
    segs = path.segments
    for a, b in zip(segs, segs[1:]):
        if a is Direction.R:
            r_done += 1
        else:
            l_done += 1
        if a is not b:
            coord = r_done if a is Direction.R else l_done
            records.append(BendRecord(side=a, coord=coord, counted=True))
    if records:
        records[-1] = BendRecord(side=records[-1].side,
                                 coord=records[-1].coord, counted=False)
    return records


class AmplitudePolynomial:
    """Polynomial in the symbol (i * eps0) with integer coefficients.

    Coefficients live in a dict keyed by the order in (i * eps0). The i is
    kept inside the symbol so path products stay integer; evaluation
    substitutes a rational eps0 and splits the powers of i into exact real
    and imaginary parts.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Optional[dict[int, int]] = None):
        self._coeffs = {k: v for k, v in (coeffs or {}).items() if v != 0}

    @classmethod
    def zero(cls) -> "AmplitudePolynomial":
        return cls()

    @classmethod
    def monomial(cls, order: int, coeff: int = 1) -> "AmplitudePolynomial":
        return cls({order: coeff})

    def coeff(self, order: int) -> int:
        return self._coeffs.get(order, 0)

    def orders(self) -> list[int]:
        return sorted(self._coeffs)

    def __add__(self, other: "AmplitudePolynomial") -> "AmplitudePolynomial":
        out = dict(self._coeffs)
        for k, v in other._coeffs.items():
            out[k] = out.get(k, 0) + v
        return AmplitudePolynomial(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AmplitudePolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self) -> str:
        if not self._coeffs:
            return "AmplitudePolynomial(0)"
        terms = [f"{c}*(i*eps0)^{k}" for k, c in sorted(self._coeffs.items())]
        return "AmplitudePolynomial(" + " + ".join(terms) + ")"

    def evaluate_exact(self, eps0: Fraction) -> tuple[Fraction, Fraction]:
        """Substitute a rational eps0; return exact (real, imag) parts.

        i^k cycles through (1, i, -1, -i), so order k lands in the real
        part when k is even and the imaginary part when k is odd, with
        sign (-1)^(k//2). Evaluation never leaves Fraction arithmetic.
        """
        eps0 = Fraction(eps0)
        re = Fraction(0)
        im = Fraction(0)
        for k, c in self._coeffs.items():
            term = c * eps0 ** k
            if k % 4 == 1:
                im += term
            elif k % 4 == 2:
                re -= term
            elif k % 4 == 3:
                im -= term
            else:
                re += term
        return re, im

    def to_json_dict(self) -> dict[str, int]:
        """Coefficients keyed by stringified order for JSON output."""
        return {str(k): self._coeffs[k] for k in sorted(self._coeffs)}


def path_amplitude(path: LatticePath) -> AmplitudePolynomial:
    """Amplitude of a single path as a monomial in (i * eps0).

    The product over counted bends of i * (2j - 1) * eps0 gives coefficient
    prod(2j - 1) at order R - 1. A straight path (no reversals at all)
    has amplitude 1.
    """
    coeff = 1
    order = 0
    for rec in bend_records(path):
        if rec.counted:
            coeff *= 2 * rec.coord - 1
            order += 1
    return AmplitudePolynomial.monomial(order, coeff)


def enumerate_paths(P: int, Q: int, start: Direction, end: Direction,
                    cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[LatticePath]:
    """Yield every path with P right and Q left segments in the given sector.

    Paths come out in lexicographic order with R before L. Sectors with a
    forced direction that is absent (e.g. start R with P = 0) are empty,
    which is returned as no paths rather than an error. The cap bounds
    P + Q; enumeration is exponential and anything beyond ~24 segments is
    better served by count_paths and the closed-form sector sums.
    """
    if P < 0 or Q < 0:
        raise InvalidParameterError("segment counts P, Q must be >= 0")
    n = P + Q
    if n > cap:
        raise ResourceLimitError(
            f"P + Q = {n} exceeds enumeration cap {cap}; "
            "raise the cap explicitly if the wait is acceptable")
    if n == 1:
        if start is end and (P if start is Direction.R else Q) == 1:
            yield LatticePath((start,))
        return
    # the first and last segments are fixed; the remaining rights take
    # `rights` of the interior slots 1..n-2, the lefts take the rest
    rights = P - (start is Direction.R) - (end is Direction.R)
    if not 0 <= rights <= n - 2:
        return
    right = Direction.R  # looked up once: enum attribute access is slow
    template = [start] + [Direction.L] * (n - 2) + [end]
    for places in combinations(range(1, n - 1), rights):
        segments = template.copy()
        for i in places:
            segments[i] = right
        yield LatticePath(tuple(segments))


def count_paths(P: int, Q: int, start: Direction, end: Direction, R: int) -> int:
    """Number of paths with P rights, Q lefts, exactly R reversals, given
    start and end directions, in closed form.

    A path starting R and ending L has odd R = 2k+1 and splits its rights
    into k+1 runs and lefts into k+1 runs: comb(P-1, k) * comb(Q-1, k)
    compositions. Starting R and ending R has even R = 2k with k+1 right
    runs and k left runs: comb(P-1, k) * comb(Q-1, k-1). The remaining two
    sectors mirror these under swapping P with Q. R = 0 forces a straight
    path, possible only when the absent direction has zero segments.
    """
    if P < 0 or Q < 0 or R < 0:
        raise InvalidParameterError("P, Q, R must be >= 0")

    def runs(total: int, parts: int) -> int:
        # compositions of `total` into exactly `parts` positive parts
        if parts == 0:
            return 1 if total == 0 else 0
        if total < parts:
            return 0
        return comb(total - 1, parts - 1)

    if start is Direction.R and end is Direction.L:
        if R % 2 == 0:
            return 0
        k = (R - 1) // 2
        return runs(P, k + 1) * runs(Q, k + 1)
    if start is Direction.L and end is Direction.R:
        if R % 2 == 0:
            return 0
        k = (R - 1) // 2
        return runs(Q, k + 1) * runs(P, k + 1)
    if start is Direction.R and end is Direction.R:
        if R % 2 == 1:
            return 0
        if R == 0:
            return 1 if (Q == 0 and P > 0) else 0
        k = R // 2
        return runs(P, k + 1) * runs(Q, k)
    # start L, end L
    if R % 2 == 1:
        return 0
    if R == 0:
        return 1 if (P == 0 and Q > 0) else 0
    k = R // 2
    return runs(Q, k + 1) * runs(P, k)


def total_path_count(P: int, Q: int, start: Direction, end: Direction) -> int:
    """Sum of count_paths over all reversal numbers R."""
    return sum(count_paths(P, Q, start, end, R) for R in range(P + Q + 1))


def sector_sum_bruteforce(P: int, Q: int, start: Direction, end: Direction,
                          cap: int = DEFAULT_ENUMERATION_CAP) -> AmplitudePolynomial:
    """Sum of path amplitudes over a sector by explicit enumeration.

    This is the independent slow route the closed-form sector polynomials
    are checked against; it shares no code with them beyond the lattice
    conventions.
    """
    coeffs: dict[int, int] = {}
    for path in enumerate_paths(P, Q, start, end, cap=cap):
        for k, c in path_amplitude(path)._coeffs.items():
            coeffs[k] = coeffs.get(k, 0) + c
    return AmplitudePolynomial(coeffs)
