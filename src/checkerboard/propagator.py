"""Propagator components on both lattices, exactly and in the limit.

Two routes to the same four numbers live here. The exact route sums a
sector's path amplitudes in closed combinatorial form: the sum over paths
with a fixed number of reversals factorizes into elementary symmetric
polynomials of the segment weights, one factor per light-cone axis, so
the whole sector collapses to a short polynomial in (i * step) with exact
integer coefficients. A lattice is its weight schedule: W(n), the
light-cone coordinate of an axis's n-th segment end in steps, and row(n),
e_k of the weights w_j = W(j) - W(j-1), j <= n. The quadratic lattice has
W(n) = n^2 (odd weights 2j - 1); the uniform one has W(n) = n (unit
weights, binomial rows), converges to the same limits and isolates what
the quadratic geometry changes. With P right and Q left segments,

    step = t / (W(P) + W(Q)),   v = (W(P) - W(Q)) / (W(P) + W(Q)).

Fix the start direction; let X(P, Q) and Y(P, Q) be the sectors that end
moving right and left, and z = i * step. A path ending after its
(P+1)-th right segment runs on from an X(P, Q) path or turns from a
Y(P, Q) path, whose last bend (after right segment P) then counts. So the
sector sums solve the light-cone checkerboard equation

    X(P+1, Q) = X(P, Q) + z w_P Y(P, Q)
    Y(P, Q+1) = Y(P, Q) + z w_Q X(P, Q)

with X(1, Q) = 0, Y(P, 1) = 1 for a right start (1 and 0 for a left one).
The closed route evaluates the Bessel expressions

    psi_mp = psi_pm = J0(s)
    psi_pp = i ((t + x) / s) J1(s)
    psi_mm = i ((t - x) / s) J1(s)

directly, with s = sqrt(t^2 - x^2). Convergence sweeps tabulate the
exact-versus-closed deviation as the lattice is refined at fixed velocity.

Component naming: the first sign is the direction of the path's final
segment, the second the direction of its first segment, with p (plus) for
right-moving and m (minus) for left-moving. psi_pp therefore collects the
sector of paths that start and end moving right.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import frexp, isfinite, ldexp, sqrt
from operator import mul
from typing import Callable, Iterator, Optional, Sequence

from .bessel import bessel_j0_j1
from .errors import DomainError, InvalidParameterError, ResourceLimitError
from .paths import AmplitudePolynomial, Direction, parity_parts
from .spacetime import (RationalLike, rational_square_root,
                        spectrum_membership, to_fraction)

COMPONENT_ORDER = ("psi_pp", "psi_pm", "psi_mp", "psi_mm")

# Bound on P + Q for one exact evaluation. The cost grows about 7x per
# doubling of P + Q: P = Q = 2048 takes 2.1-2.6 s on a 2-CPU machine,
# 1.5-1.9 s of it building the e_k tables.
DEFAULT_LATTICE_CAP = 4096


@dataclass(frozen=True)
class SymmetricTable:
    """Elementary symmetric polynomials e_k of the first n odd numbers.

    values[k] = e_k({1, 3, ..., 2n-1}) for k = 0..n, exact integers.
    """

    values: tuple[int, ...]


@lru_cache(maxsize=32)
def elem_sym_table(n: int) -> SymmetricTable:
    """Build the full e_k table for the odd-number set of size n.

    Grows a copy of the cached table (n - 1) // 2 one odd number at a
    time, in place and top-down: e_k(new) = e_k(old) + (2j-1) e_{k-1}(old),
    O(n^2) integer operations. A doubling sweep's table 2m + 1 extends
    the previous size's table m; on a cold cache the chain takes the
    steps of a build from [1]. e_1 comes out as n^2.
    """
    if n < 0:
        raise InvalidParameterError("table size n must be >= 0")
    if n == 0:
        return SymmetricTable(values=(1,))
    base = (n - 1) // 2
    row = list(elem_sym_table(base).values)
    for j in range(base + 1, n + 1):
        odd = 2 * j - 1
        row.append(0)
        for k in range(j, 0, -1):
            row[k] += odd * row[k - 1]
    return SymmetricTable(values=tuple(row))


class _Endpoint:
    """What both lattice specs share: P, Q >= 1, t an exact finite
    rational > 0, and the step, velocity and endpoint x = t v that the
    spec's weight schedule W places there."""

    def __post_init__(self):
        name = type(self).__name__
        if self.P < 1 or self.Q < 1:
            raise InvalidParameterError(f"{name} requires P >= 1 and Q >= 1")
        object.__setattr__(self, "t", to_fraction(self.t, "t"))
        if self.t <= 0:
            raise InvalidParameterError(f"{name} requires t > 0")

    @property
    def step(self) -> Fraction:
        return self.t / (self.W(self.P) + self.W(self.Q))

    @property
    def v(self) -> Fraction:
        right, left = self.W(self.P), self.W(self.Q)
        return Fraction(right - left, right + left)

    @property
    def x(self) -> Fraction:
        return self.t * self.v


@dataclass(frozen=True)
class LatticeSpec(_Endpoint):
    """Quadratic lattice endpoint: P right segments, Q left segments, time t.

    The j-th right (left) segment ends at light-cone coordinate j^2 eps0.
    """

    P: int
    Q: int
    t: Fraction

    @staticmethod
    def W(n: int) -> int:
        return n * n

    @staticmethod
    def row(n: int) -> Sequence[int]:
        return elem_sym_table(n).values

    eps0 = _Endpoint.step


@dataclass(frozen=True)
class LinearSpec(_Endpoint):
    """Uniform lattice endpoint: N = P + Q segments of length t / N."""

    N: int
    P: int
    Q: int
    t: Fraction

    def __post_init__(self):
        super().__post_init__()
        if self.N != self.P + self.Q:
            raise InvalidParameterError("LinearSpec requires N = P + Q")

    @staticmethod
    def W(n: int) -> int:
        return n

    @staticmethod
    def row(n: int) -> Sequence[int]:
        """C(n, k) for k = 0..n: the first half by the exact recurrence
        C(n, k + 1) = C(n, k) (n - k) / (k + 1), then mirrored. At
        n = 383 that takes 0.06 ms against 2.2 ms for one math.comb per
        entry (2-CPU x86-64); below n = 64 both take under 10 us."""
        row = [1]
        for k in range(n // 2):
            row.append(row[-1] * (n - k) // (k + 1))
        return row + row[:(n + 1) // 2][::-1]

    epsilon = _Endpoint.step


def _sector_row(e_right: Sequence[int], e_left: Sequence[int],
                start: Direction, end: Direction) -> Iterator[int]:
    """A sector sum's coefficients c_k in (i * step), from per-axis e_k rows,
    as a lazy row: Estrin's first pass or _component's zip reads it once.

    e_right[k] is e_k of the weights of the first P - 1 right segments and
    e_left[k] the same for the first Q - 1 left segments; a counted reversal
    after segment j of an axis weighs that axis's j-th weight. The mixed
    sectors (start and end differ) have 2k + 1 reversals at order 2k: the
    counted reversal coordinates form a free k-subset of each axis, so the
    sum over subset pairs is e_right[k] * e_left[k], whichever axis the
    path starts on. A sector that starts and ends on one axis has 2k + 2
    reversals at order 2k + 1, k + 1 counted on its own axis and k on the
    other. The rows stop at P - 1 and Q - 1 because the final segment of
    each axis never precedes a counted reversal; agreement with the
    brute-force enumeration oracle pins these bounds down.
    """
    if start is not end:
        return map(mul, e_right, e_left)
    own, other = (e_right, e_left) if start is Direction.R else (e_left, e_right)
    return map(mul, own[1:], other)


def _component(row: Callable[[int], Sequence[int]], P: int, Q: int,
               start: Direction, end: Direction) -> AmplitudePolynomial:
    if P < 1 or Q < 1:
        raise InvalidParameterError("sector sums need P >= 1 and Q >= 1")
    orders = range(start is end, P + Q, 2)  # c_k at 2k + 1 on the diagonal
    return AmplitudePolynomial(
        dict(zip(orders, _sector_row(row(P - 1), row(Q - 1), start, end))))


def exact_component(P: int, Q: int, start: Direction, end: Direction) -> AmplitudePolynomial:
    """Exact sector sum as a polynomial in (i * eps0), no enumeration.

    With O_n the first n odd weights, the mixed sectors carry
    e_k(O_{P-1}) * e_k(O_{Q-1}) at order 2k (see _sector_row).
    """
    return _component(LatticeSpec.row, P, Q, start, end)


def linear_component(P: int, Q: int, start: Direction,
                     end: Direction) -> AmplitudePolynomial:
    """Sector sum on the uniform lattice as a polynomial in (i * eps).

    The coefficient at order R - 1 equals count_paths(P, Q, start, end, R):
    all counted reversals weigh the same here.
    """
    return _component(LinearSpec.row, P, Q, start, end)


def _check_lattice_size(P: int, Q: int, cap: int) -> None:
    if P + Q > cap:
        raise ResourceLimitError(
            f"P + Q = {P + Q} exceeds lattice cap {cap}; "
            "raise the cap explicitly if the wait is acceptable")


def split_counts(N: int, v: RationalLike) -> Optional[tuple[int, int]]:
    """Split N segments into (P, Q) realizing velocity v = (P - Q) / N.

    Needs N (1 + v) even in the exact sense; returns None when no valid
    split exists (that N is then skipped by the sweep).
    """
    if N < 2:
        return None
    v = to_fraction(v, "v")
    p = Fraction(N) * (1 + v) / 2
    if p.denominator != 1:
        return None
    P = int(p)
    Q = N - P
    if P < 1 or Q < 1:
        return None
    return P, Q


@dataclass(frozen=True)
class PropagatorMatrix:
    """The four propagator components at one spacetime point.

    Inside the forward light cone psi_pm and psi_mp are real while psi_pp
    and psi_mm are purely imaginary; at x = 0 parity forces
    psi_pp = psi_mm and psi_pm = psi_mp.
    """

    psi_pp: complex
    psi_pm: complex
    psi_mp: complex
    psi_mm: complex


def exact_parts(spec: LatticeSpec | LinearSpec, cap: int = DEFAULT_LATTICE_CAP
                ) -> dict[str, tuple[Fraction, Fraction]]:
    """All four components of either spec at its step, as exact (real,
    imag) pairs: the exact Gaussian rational value of each path sum.

    Each sector's row (see _sector_row) goes to paths.parity_parts as is,
    with () for the parity it lacks; the mixed sectors are one even row,
    evaluated once and reported twice, the diagonal ones odd rows, one for
    both when P == Q. Each part is an integer sum over one power of the
    step's denominator, divided once, so cancellation costs nothing.
    P + Q above cap raises ResourceLimitError before any work.
    """
    _check_lattice_size(spec.P, spec.Q, cap)
    e_right = spec.row(spec.P - 1)
    e_left = e_right if spec.Q == spec.P else spec.row(spec.Q - 1)
    step = spec.step
    R, L = Direction.R, Direction.L
    mixed = parity_parts(_sector_row(e_right, e_left, R, L), (), step)
    pp = parity_parts((), _sector_row(e_right, e_left, R, R), step)
    mm = pp if e_left is e_right else parity_parts(
        (), _sector_row(e_right, e_left, L, L), step)
    return {"psi_pp": pp, "psi_pm": mixed, "psi_mp": mixed, "psi_mm": mm}


linear_parts = exact_parts


def proper_time(t: float, x: float) -> float:
    """s = sqrt(t^2 - x^2) at a finite point strictly inside the forward
    light cone (DomainError elsewhere). t and x are scaled by 2^-k,
    k = frexp(t)[1], so (t - x)(t + x) neither underflows nor overflows;
    where it is a normal float, s is bit-identical to the unscaled form."""
    if not (isfinite(t) and isfinite(x)):
        raise DomainError(f"point (t={t}, x={x}) must have finite coordinates")
    if t <= abs(x):
        raise DomainError(
            f"point (t={t}, x={x}) is outside the open forward light cone")
    k = frexp(t)[1]
    t, x = ldexp(t, -k), ldexp(x, -k)
    return ldexp(sqrt((t - x) * (t + x)), k)


def closed_matrix(t: float, x: float) -> PropagatorMatrix:
    """Limiting components at a real point strictly inside the light cone.

    With s = proper_time(t, x): psi_mp = psi_pm = J0(s), and the diagonal
    components are i (t +/- x) / s times J1(s).
    """
    t, x = float(t), float(x)
    s = proper_time(t, x)
    j0, j1 = bessel_j0_j1(s)
    return PropagatorMatrix(
        psi_pp=complex(0.0, (t + x) / s * j1),
        psi_pm=complex(j0, 0.0),
        psi_mp=complex(j0, 0.0),
        psi_mm=complex(0.0, (t - x) / s * j1),
    )


def pq_identity_check(P: int, Q: int) -> bool:
    """Exact check of 2 P Q gamma = P^2 + Q^2 at the lattice velocity.

    Equivalent to 4 P^2 Q^2 = (P^2 + Q^2)^2 (1 - v^2) with
    v = (P^2 - Q^2) / (P^2 + Q^2), gamma = 1 / sqrt(1 - v^2). Kept as the
    paper's identity: it turns the series over lattice reversals into the
    J0 series in s = t / gamma.
    """
    if P < 1 or Q < 1:
        raise InvalidParameterError("identity check needs P, Q >= 1")
    ss = P * P + Q * Q
    v = Fraction(P * P - Q * Q, ss)
    gamma = 1 / rational_square_root(1 - v * v)
    return (4 * P * P * Q * Q == ss * ss * (1 - v * v)
            and 2 * P * Q * gamma == ss)


@dataclass(frozen=True)
class ConvergenceRow:
    """One component of one lattice size in a convergence sweep."""

    P: int
    Q: int
    t: Fraction
    v: Fraction
    component: str
    exact_re: float
    exact_im: float
    closed_re: float
    closed_im: float
    abs_err: float
    rel_err: float


def _deviation_rows(P: int, Q: int, t: Fraction, v: Fraction,
                    parts: dict[str, tuple[Fraction, Fraction]],
                    closed: PropagatorMatrix) -> list[ConvergenceRow]:
    rows = []
    for name in COMPONENT_ORDER:
        ex_re, ex_im = parts[name]
        cl = getattr(closed, name)
        exf = complex(float(ex_re), float(ex_im))
        abs_err = abs(exf - cl)
        if cl == 0:
            rel_err = 0.0 if abs_err == 0.0 else float("inf")
        else:
            rel_err = abs_err / abs(cl)
        rows.append(ConvergenceRow(
            P=P, Q=Q, t=t, v=v, component=name,
            exact_re=float(ex_re), exact_im=float(ex_im),
            closed_re=cl.real, closed_im=cl.imag,
            abs_err=abs_err, rel_err=rel_err))
    return rows


WARNING_COMPONENT = "warning"


def _sweep_inputs(t: RationalLike, v: RationalLike) -> tuple[Fraction, Fraction]:
    """t and v of a sweep as exact rationals, with t > 0."""
    t = to_fraction(t, "t")
    v = to_fraction(v, "v")
    if t <= 0:
        raise InvalidParameterError("sweep requires t > 0")
    return t, v


def _sweep(t: Fraction, v: Fraction, sizes: Sequence[int],
           spec_of: Callable[[int], Optional[LatticeSpec | LinearSpec]],
           cap: int) -> list[ConvergenceRow]:
    """Deviation rows for each size against one closed-form reference.

    spec_of(size) returns the spec of that size, or None when the size
    cannot realize v; such a size yields a single marker row with
    component = WARNING_COMPONENT, the size in the P column, Q = 0 and
    zeroed numeric fields, so consumers can tell silence from omission.
    Every size's spec is built and held to the lattice cap before the
    first one is evaluated, so a refused sweep does no work.
    """
    closed = closed_matrix(float(t), float(t * v))
    specs = [spec_of(size) for size in sizes]
    for spec in specs:
        if spec is not None:
            _check_lattice_size(spec.P, spec.Q, cap)
    rows: list[ConvergenceRow] = []
    for size, spec in zip(sizes, specs):
        if spec is None:
            rows.append(ConvergenceRow(
                P=size, Q=0, t=t, v=v, component=WARNING_COMPONENT,
                exact_re=0.0, exact_im=0.0, closed_re=0.0, closed_im=0.0,
                abs_err=0.0, rel_err=0.0))
            continue
        rows.extend(_deviation_rows(spec.P, spec.Q, t, v,
                                    exact_parts(spec, cap), closed))
    return rows


def convergence_sweep(t: RationalLike, v: RationalLike, P_list: Sequence[int],
                      cap: int = DEFAULT_LATTICE_CAP) -> list[ConvergenceRow]:
    """Deviation of the exact lattice components from the closed forms.

    The velocity fixes the generator shape (P0, Q0); every requested P
    must be a multiple of P0 so that Q = P Q0 / P0 keeps v exact. Rows
    come out grouped by lattice size in input order, components in
    COMPONENT_ORDER within each group. A size with P + Q above cap
    refuses the whole sweep (ResourceLimitError) before any evaluation.
    """
    t, v = _sweep_inputs(t, v)
    gen = spectrum_membership(v)
    if gen is None:
        raise DomainError(
            f"velocity {v} is not in the spectrum (p^2-q^2)/(p^2+q^2)")
    P0, Q0 = gen

    def spec_of(P: int) -> LatticeSpec:
        if P < 1 or P % P0 != 0:
            raise DomainError(
                f"P = {P} cannot realize v = {v}: P must be a positive "
                f"multiple of {P0}")
        return LatticeSpec(P=P, Q=(P // P0) * Q0, t=t)

    return _sweep(t, v, P_list, spec_of, cap)


def linear_converge(t: RationalLike, v: RationalLike, N_list: Sequence[int],
                    cap: int = DEFAULT_LATTICE_CAP) -> list[ConvergenceRow]:
    """Deviation of the uniform-lattice components from the closed forms.

    Same row schema as the quadratic sweep. N < 1 is refused, and so is
    a realizable N above cap, before any evaluation. A positive N that
    cannot realize v exactly is not an error; it yields a single marker
    row (see _sweep).
    """
    t, v = _sweep_inputs(t, v)
    if abs(v) >= 1:
        raise InvalidParameterError("sweep requires |v| < 1")
    if any(N < 1 for N in N_list):
        raise InvalidParameterError("sweep requires every N >= 1")

    def spec_of(N: int) -> Optional[LinearSpec]:
        point = split_counts(N, v)
        return None if point is None else LinearSpec(N, *point, t=t)

    return _sweep(t, v, N_list, spec_of, cap)
