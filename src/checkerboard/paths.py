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
A path is the plain tuple of its segment directions and a bend the plain
(side, coord) pair of bend_records; neither has a record type. The
brute-force sector sum builds neither: it walks the path tree run by run,
multiplying each path's bend weights along the way.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import combinations, zip_longest
from math import comb
from typing import Iterable, Iterator, Optional

from .errors import InvalidParameterError, ResourceLimitError

DEFAULT_ENUMERATION_CAP = 24
_ZERO = Fraction(0)


class Direction(enum.Enum):
    R = "R"
    L = "L"

    def __str__(self) -> str:
        return self.value


def bend_records(path: tuple[Direction, ...]) -> list[tuple[Direction, int]]:
    """Every reversal of a path, in order, as a (side, coord) pair.

    side is the light-cone axis the completed segment ran along and coord
    that segment's index j on its axis: the completed segment before an
    R -> L reversal is the k-th right segment, so the bend is (R, k);
    symmetrically for L -> R. Every bend but the last is counted in the
    amplitude; the last is fixed by the endpoint.
    """
    pairs = []
    right = Direction.R  # looked up once: enum attribute access is slow
    r_done = 0
    l_done = 0
    for a, b in zip(path, path[1:]):
        if a is right:
            r_done += 1
        else:
            l_done += 1
        if a is not b:
            pairs.append((a, r_done if a is right else l_done))
    return pairs


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

    def coeff(self, order: int) -> int:
        return self._coeffs.get(order, 0)

    def orders(self) -> list[int]:
        return sorted(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AmplitudePolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __str__(self) -> str:
        """Human-readable form in the bend symbol, e.g. 1 + 3*(i*eps0)^2."""
        parts = []
        for k, c in sorted(self._coeffs.items()):
            if k == 0:
                parts.append(str(c))
                continue
            base = "(i*eps0)" if k == 1 else f"(i*eps0)^{k}"
            parts.append(base if c == 1 else f"{c}*{base}")
        return " + ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"AmplitudePolynomial({self})"

    def evaluate_exact(self, eps0: Fraction) -> tuple[Fraction, Fraction]:
        """Substitute a rational eps0; return exact (real, imag) parts.

        Gathers each parity's orders densely, gaps as 0, for parity_parts;
        a parity with no order (as in every sector sum) is an empty row.
        """
        coeffs = self._coeffs

        def row(parity: int) -> list[int]:
            top = max((k for k in coeffs if k % 2 == parity), default=-1)
            return [coeffs.get(k, 0) for k in range(parity, top + 1, 2)]

        return parity_parts(row(0), row(1), Fraction(eps0))

    def to_json_dict(self) -> dict[str, int]:
        """Coefficients keyed by stringified order for JSON output."""
        return {str(k): self._coeffs[k] for k in sorted(self._coeffs)}


def parity_parts(even: Iterable[int], odd: Iterable[int], eps0: Fraction
                 ) -> tuple[Fraction, Fraction]:
    """Exact (real, imag) of sum_k even[k] z^(2k) + odd[k] z^(2k+1) at
    z = i eps0. z^(2k) = x^k with x = -eps0^2, so the even row is a
    polynomial in x (the real part) and the odd one eps0 times another
    (the imaginary part). With eps0 = a/b, _estrin sums each as an integer
    over a power of b^2, which becomes a Fraction once: one gcd per part,
    not one per term. A falsy row, as (), gives Fraction(0) with no pass."""
    a, b = eps0.numerator, eps0.denominator
    re = Fraction(*_estrin(even, -a * a, b * b)) if even else _ZERO
    if not odd:
        return re, _ZERO
    num, den = _estrin(odd, -a * a, b * b)
    return re, Fraction(a * num, b * den)


def _estrin(coeffs: Iterable[int], u: int, w: int) -> tuple[int, int]:
    """Estrin's scheme for sum_j c_j (u/w)^j over a dense row, as
    (num, den). Each pass pairs neighbours as c w + c' u (the last with 0
    at an odd count), folds one w into den and squares u and w for the
    next, so every product stays balanced; den may exceed the top power
    of w, which the caller's Fraction reduces. The first pass reads the
    row once, so any iterable will do; an empty one sums to 0."""
    terms, den = coeffs, 1
    while True:
        pairs = iter(terms)
        terms = [c * w + d * u
                 for c, d in zip_longest(pairs, pairs, fillvalue=0)]
        den *= w
        if len(terms) < 2:
            return (terms[0] if terms else 0), den
        u, w = u * u, w * w


def path_amplitude(path: tuple[Direction, ...]) -> AmplitudePolynomial:
    """Amplitude of a single path as a monomial in (i * eps0).

    Every bend but the last contributes i * (2 coord - 1) * eps0, so R
    bends give coefficient prod(2 coord - 1) over the first R - 1 at order
    R - 1. A straight path (no reversals at all) has amplitude 1.
    """
    pairs = bend_records(path)
    coeff = 1
    for _, coord in pairs[:-1]:
        coeff *= 2 * coord - 1
    return AmplitudePolynomial({max(len(pairs) - 1, 0): coeff})


def _check_sector(P: int, Q: int, cap: int) -> None:
    if P < 0 or Q < 0:
        raise InvalidParameterError("segment counts P, Q must be >= 0")
    if P + Q > cap:
        raise ResourceLimitError(
            f"P + Q = {P + Q} exceeds enumeration cap {cap}; "
            "raise the cap explicitly if the wait is acceptable")


def enumerate_paths(P: int, Q: int, start: Direction, end: Direction,
                    cap: int = DEFAULT_ENUMERATION_CAP
                    ) -> Iterator[tuple[Direction, ...]]:
    """Yield every path with P right and Q left segments in the given
    sector, as its tuple of segment directions.

    Paths come out in lexicographic order with R before L. Sectors with a
    forced direction that is absent (e.g. start R with P = 0) are empty,
    which is returned as no paths rather than an error. The cap bounds
    P + Q; enumeration is exponential and anything beyond ~24 segments is
    better served by count_paths and the closed-form sector sums.
    """
    _check_sector(P, Q, cap)
    n = P + Q
    if n == 1:
        if start is end and (P if start is Direction.R else Q) == 1:
            yield (start,)
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
        yield tuple(segments)


def count_paths(P: int, Q: int, start: Direction, end: Direction, R: int) -> int:
    """Number of paths with P rights, Q lefts, exactly R reversals, given
    start and end directions, in closed form.

    A path starting R alternates runs R, L, R, ...: R reversals make
    R // 2 + 1 right runs and (R + 1) // 2 left runs, and it ends L
    exactly when R is odd. Splitting P rights and Q lefts into that many
    nonempty runs gives comb(P-1, R // 2) * comb(Q-1, (R+1) // 2 - 1)
    compositions; R = 0 is the straight path, which needs P > 0 = Q. An
    L start is the mirror image: swap P with Q and flip the end direction.
    Kept as an oracle: enumeration and the uniform-lattice coefficients
    are checked against it at sizes enumeration cannot reach.
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

    if start is Direction.L:
        P, Q = Q, P
        end = Direction.R if end is Direction.L else Direction.L
    if (R % 2 == 1) != (end is Direction.L):
        return 0
    return runs(P, R // 2 + 1) * runs(Q, (R + 1) // 2)


def sector_sum_bruteforce(P: int, Q: int, start: Direction, end: Direction,
                          cap: int = DEFAULT_ENUMERATION_CAP) -> AmplitudePolynomial:
    """Sum of path amplitudes over a sector by explicit enumeration.

    This is the independent slow route the closed-form sector polynomials
    are checked against; it shares no code with them beyond the lattice
    conventions. `end` fixes the last segment, so the walk places the
    first P + Q - 1 run by run, depth first on an explicit stack (no
    recursion limit applies). An entry is a prefix ending at a bend: the
    next run's axis, the rights and lefts used, the bend count, the
    product of the counted weights and the weight 2j - 1 of the latest
    bend, counted once another bend follows. A pop pushes one bend per
    length of the next run but the longest, which leaves the other axis
    to close the prefix: a leaf. Every path is its own leaf with its own
    product. Prefixes that reach the same state are not merged, as that
    merge is the recurrence behind the closed forms.
    """
    _check_sector(P, Q, cap)
    to_right = end is Direction.R
    rights, lefts = P - to_right, Q - (not to_right)  # the walked prefix
    on_right = start is Direction.R
    first, other = (rights, lefts) if on_right else (lefts, rights)
    if rights < 0 or lefts < 0 or (not first and (other or start is not end)):
        # nothing for the last segment, or the prefix cannot start on
        # `start`; an empty prefix is fine when the path is just (end,)
        return AmplitudePolynomial()
    if not other:  # one straight prefix; a bend after it is the last
        return AmplitudePolynomial({0: 1})
    coeffs: dict[int, int] = {}
    get = coeffs.get
    stack = [(on_right, 0, 0, 0, 1, 1)]
    push, pop = stack.append, stack.pop
    while stack:
        on_right, r, l, bends, prod, pending = pop()
        # both axes have segments left: the next run ends at a bend, so
        # the latest one counts
        prod *= pending
        bends += 1
        if on_right:
            for j in range(r + 1, rights):
                push((False, j, l, bends, prod, 2 * j - 1))
            last = rights
        else:
            for j in range(l + 1, lefts):
                push((True, r, j, bends, prod, 2 * j - 1))
            last = lefts
        # the run through segment `last` uses up its axis; the other axis
        # closes the prefix and either bends into the last segment (that
        # bend is the last) or runs on into it (the bend at `last` is)
        if on_right is to_right:
            coeffs[bends] = get(bends, 0) + prod * (2 * last - 1)
        else:
            coeffs[bends - 1] = get(bends - 1, 0) + prod
    return AmplitudePolynomial(coeffs)
