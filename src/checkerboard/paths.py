"""Zigzag paths on the quadratic lattice and their amplitudes.

A path from the origin to the lattice point (P, Q) moves at light speed,
alternating runs of right-moving and left-moving segments. Segment number j
along either light-cone direction has length (2j - 1) * eps0, so the j-th
right (left) run endpoint sits at j^2 * eps0, which is what makes the
lattice quadratic. Each direction reversal before the last contributes a
factor i * (2j - 1) * eps0 to the amplitude, where j indexes the segment
the path just completed; the final bend is fixed by the endpoint and is
not counted. With eps0 left symbolic a path's amplitude is a monomial in
(i * eps0) and a sector sum a one-parity polynomial, a dense row of
coefficients; this module enumerates paths, counts them in closed form,
and evaluates those rows exactly. A path is the plain tuple of its segment
directions and a bend the (side, coord) pair of bend_records; neither has
a record type. The brute-force sector sum builds neither: it walks the
path tree run by run, adding each path's bend-weight product to the row;
a prefix whose next prefixes could only close adds their paths itself,
and no two prefixes are ever merged.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import combinations, zip_longest
from math import comb
from typing import Iterable, Iterator

from .errors import (InvalidParameterError, check_cap, check_size, in_digits,
                     to_fraction)

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

    Coefficients live in two dense tuples, even[k] at order 2k and odd[k]
    at 2k + 1; a sector sum fills one. A zero is no term wherever it sits:
    coeff, orders, ==, str and to_json_dict skip it. The i is kept inside
    the symbol so path products stay integer; evaluation substitutes a
    rational eps0 and splits the powers of i into exact real and imaginary
    parts.
    """

    __slots__ = ("_even", "_odd")

    def __init__(self, even: Iterable[int] = (), odd: Iterable[int] = ()):
        if hasattr(even, "keys") or hasattr(odd, "keys"):  # a mapping
            raise TypeError("rows of coefficients, not a mapping of orders")
        self._even = tuple(even)
        self._odd = tuple(odd)

    def _terms(self) -> list[tuple[int, int]]:
        """The nonzero (order, coeff) pairs in increasing order."""
        pairs = zip_longest(self._even, self._odd, fillvalue=0)
        return [(order, c) for k, pair in enumerate(pairs)
                for order, c in enumerate(pair, 2 * k) if c]

    def coeff(self, order: int) -> int:
        row, k = (self._odd if order & 1 else self._even), order >> 1
        return row[k] if 0 <= k < len(row) else 0

    def orders(self) -> list[int]:
        return [order for order, _ in self._terms()]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AmplitudePolynomial):
            return NotImplemented
        return self._terms() == other._terms()

    def __str__(self) -> str:
        """Human-readable form in the bend symbol, e.g. 1 + 3*(i*eps0)^2."""
        parts = []
        for k, c in self._terms():
            if k == 0:
                parts.append(in_digits(c))
                continue
            base = "(i*eps0)" if k == 1 else f"(i*eps0)^{k}"
            parts.append(base if c == 1 else f"{in_digits(c)}*{base}")
        return " + ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"AmplitudePolynomial({self})"

    def evaluate_exact(self, eps0: Fraction) -> tuple[Fraction, Fraction]:
        """Substitute a rational eps0; return exact (real, imag) parts."""
        return parity_parts(self._even, self._odd, to_fraction(eps0, "eps0"))

    def to_json_dict(self) -> dict[str, int]:
        """Coefficients keyed by stringified order for JSON output."""
        return {str(k): c for k, c in self._terms()}


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
    order = max(len(pairs) - 1, 0)
    row = (0,) * (order >> 1) + (coeff,)
    return (AmplitudePolynomial((), row) if order & 1
            else AmplitudePolynomial(row))


def check_directions(start: Direction, end: Direction) -> None:
    """Refuse a start or end that is not a Direction: the sector code
    tests `is Direction.R`, so a string 'R' would pass for L."""
    if type(start) is not Direction or type(end) is not Direction:
        raise InvalidParameterError(
            "start and end must be Direction.R or Direction.L")


def _check_sector(P: int, Q: int, start: Direction, end: Direction,
                  cap: int) -> tuple[int, int]:
    """P and Q as ints, once the directions, sizes and cap are checked."""
    check_directions(start, end)
    P = check_size("segment counts P, Q", P, 0)
    Q = check_size("segment counts P, Q", Q, 0)
    check_cap("P + Q", P + Q, "enumeration", cap)
    return P, Q


def enumerate_paths(P: int, Q: int, start: Direction, end: Direction,
                    cap: int = DEFAULT_ENUMERATION_CAP
                    ) -> Iterator[tuple[Direction, ...]]:
    """Yield every path with P right and Q left segments in the given
    sector, as its tuple of segment directions.

    Paths come out in lexicographic order with R before L. A sector with
    a forced direction that is absent (start R with P = 0) has no paths,
    not an error. The cap bounds P + Q: enumeration is exponential, and
    past ~24 segments count_paths and the sector sums serve better. The
    arguments are checked at the call, not at the first next().
    """
    return _paths(*_check_sector(P, Q, start, end, cap), start, end)


def _paths(P: int, Q: int, start: Direction, end: Direction) -> Iterator:
    """enumerate_paths' generator, on checked arguments."""
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
    check_directions(start, end)
    P, Q, R = (check_size("P, Q, R", n, 0) for n in (P, Q, R))

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
    next run's axis, as whether it is end's, the segments used on that
    axis and on the other, the bends up to the one that ends that run and
    the product of the counted weights, its opening bend's 2j - 1 already
    in (a bend that opens a run is never the last: both axes have
    segments left). A pop pushes one prefix per length of the next run
    but the longest, which leaves the other axis to close the prefix: a
    leaf. Where the other axis has one segment left, those prefixes could
    only close, so the pop adds each one's leaf to the row itself, one
    product per path, and pushes nothing. Every path is its own leaf with
    its own product. Prefixes that reach the same state are not merged,
    as that merge is the recurrence behind the closed forms.
    """
    P, Q = _check_sector(P, Q, start, end, cap)
    to_right = end is Direction.R
    rights, lefts = P - to_right, Q - (not to_right)  # the walked prefix
    on_right = start is Direction.R
    first, other = (rights, lefts) if on_right else (lefts, rights)
    if rights < 0 or lefts < 0 or (not first and (other or start is not end)):
        # nothing for the last segment, or the prefix cannot start on
        # `start`; an empty prefix is fine when the path is just (end,)
        return AmplitudePolynomial()
    if not other:  # one straight prefix; a bend after it is the last, so
        # order 0, even where start is end: the straight path, as (3, 0, R, R)
        return AmplitudePolynomial((1,))
    # order k at k >> 1 up to the top: 2m - 2 with m runs on each axis, or
    # 2m - 1 with m + 1 on start's if start is end; m <= this row length
    row = [0] * min(first, other + (start is not end))
    # prefix segments on end's axis and on the other one
    own, cross = (rights, lefts) if to_right else (lefts, rights)
    stack = [(start is end, 0, 0, 1, 1)]
    push, pop = stack.append, stack.pop
    while stack:
        on_end, used, used_other, bends, prod = pop()
        last, other_last = (own, cross) if on_end else (cross, own)
        if used_other + 1 < other_last:
            # the other axis can bend again: a run that stops at j < last
            # opens a prefix there, whose opening bend counts
            for j in range(used + 1, last):
                push((not on_end, used_other, j, bends + 1,
                      prod * (2 * j - 1)))
            # the run through `last` uses up its axis; the other axis
            # closes the prefix and either bends into the last segment
            # (that bend is the last) or runs on into it (the bend at
            # `last` is)
            if on_end:
                row[bends >> 1] += prod * (2 * last - 1)
            else:
                row[(bends - 1) >> 1] += prod
        elif on_end:
            # one segment left on the other axis, so every run is a leaf:
            # the run through j bends at j onto that segment, and the bend
            # after it is the path's last
            k = bends >> 1
            for odd in range(2 * used + 1, 2 * last, 2):
                row[k] += prod * odd
        else:
            # one segment left on end's axis: the run through `last` bends
            # onto it for the last time; a run through j < last bends at
            # j, takes that segment, bends back at other_last (counted),
            # ends its own axis and bends into the last segment
            row[(bends - 1) >> 1] += prod
            k, w = (bends + 1) >> 1, 2 * other_last - 1
            for odd in range(2 * used + 1, 2 * last - 1, 2):
                row[k] += prod * odd * w
    return (AmplitudePolynomial((), row) if start is end
            else AmplitudePolynomial(row))
