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

from dataclasses import dataclass, field
from fractions import Fraction
from math import frexp, ldexp, sqrt
from operator import mul
from typing import Callable, Iterable, Optional, Sequence

from .bessel import bessel_j0_j1
from .errors import (DomainError, InvalidParameterError, brief, check_cap,
                     check_real, check_size, to_fraction)
from .paths import (AmplitudePolynomial, Direction, check_directions,
                    parity_parts)
from .spacetime import RationalLike, rational_square_root, spectrum_membership

COMPONENT_ORDER = ("psi_pp", "psi_pm", "psi_mp", "psi_mm")
_R, _L = Direction.R, Direction.L  # ~10 ns a read; Direction.R ~100 ns

# Bound on P + Q for one exact evaluation. The cost grows about 7x per
# doubling of P + Q: a cold P = Q = 2048 takes 1.9-3.7 s, 1.4-2.9 s of it
# in the e_k tables (2-CPU machines, single perf_counter shots; README).
DEFAULT_LATTICE_CAP = 4096


@dataclass(frozen=True)
class SymmetricTable:
    """Elementary symmetric polynomials e_k of the first n odd numbers.

    values[k] = e_k({1, 3, ..., 2n-1}) for k = 0..n, exact integers.
    """

    values: tuple[int, ...]


class _OddRows(dict):
    """e_k of the first n odd numbers, k = 0..n, as _odd_row[n]: a dict
    of the 32 newest tables, keyed on n alone and held to no cap (every
    caller checks n first, so no float or bool key reaches it). A missing
    table n grows a copy of the longest table held below n in place and
    top-down, e_k(new) = e_k(old) + (2j-1) e_{k-1}(old), O(n^2) integer
    operations; holding none, it builds table (n - 1) // 2 through the
    store first. So a doubling sweep's table 2m + 1 extends the previous
    size's table m, the longer axis's table extends the shorter one's
    (see _axis_rows), and a cold chain takes the steps of one build from
    [1]. The 33rd table drops the oldest one inserted."""

    def __missing__(self, n: int) -> tuple[int, ...]:
        if n == 0:
            base, row = 0, [1]
        else:
            base = max((m for m in self if m < n), default=(n - 1) // 2)
            row = list(self[base])
        for j in range(base + 1, n + 1):
            odd = 2 * j - 1
            row.append(0)
            for k in range(j, 0, -1):
                row[k] += odd * row[k - 1]
        if len(self) >= 32:
            del self[next(iter(self))]
        self[n] = row = tuple(row)
        return row


_odd_row = _OddRows()


def elem_sym_table(n: int, cap: int = DEFAULT_LATTICE_CAP) -> SymmetricTable:
    """The e_k table of the first n odd numbers (e_1 = n^2), a checked
    view of the _odd_row store: n that is not an integer >= 0 raises
    InvalidParameterError, and n above cap ResourceLimitError, on every
    call, held table or not, before any lookup. cache_clear empties the
    store."""
    n = check_size("table size n", n, 0)
    check_cap("n", n, "lattice", cap)
    return SymmetricTable(values=_odd_row[n])


elem_sym_table.cache_clear = _odd_row.clear


@dataclass(frozen=True)
class _Endpoint:
    """What both lattice specs share: integers P, Q >= 1 (numpy integers
    become ints), t an exact finite rational > 0, and the step, velocity
    and endpoint x = t v that the spec's weight schedule W places there."""

    P: int
    Q: int
    t: Fraction

    def __post_init__(self):
        object.__setattr__(self, "P", check_size("P and Q", self.P, 1))
        object.__setattr__(self, "Q", check_size("P and Q", self.Q, 1))
        object.__setattr__(self, "t", to_fraction(self.t, "t", positive=True))

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

    @staticmethod
    def W(n: int) -> int:
        return n * n

    row = staticmethod(_odd_row.__getitem__)
    eps0 = _Endpoint.step


@dataclass(frozen=True)
class LinearSpec(_Endpoint):
    """Uniform lattice endpoint: N = P + Q segments of length t / N (N is
    derived; one passed by keyword is checked)."""

    N: Optional[int] = field(default=None, kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        if self.N is not None and check_size("N", self.N) != self.P + self.Q:
            raise InvalidParameterError("LinearSpec requires N = P + Q")
        object.__setattr__(self, "N", self.P + self.Q)

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


def _sector_rows(e_right: Sequence[int], e_left: Sequence[int], start: Direction,
                 end: Direction) -> tuple[Iterable[int], Iterable[int]]:
    """A sector sum's coefficients c_k in (i * step), from per-axis e_k rows,
    as (even, odd) rows: one a lazy row, read once, and the other ().

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
        return map(mul, e_right, e_left), ()
    own, other = (e_right, e_left) if start is _R else (e_left, e_right)
    return (), map(mul, own[1:], other)


def _axis_rows(row: Callable[[int], Sequence[int]], P: int, Q: int
               ) -> tuple[Sequence[int], Sequence[int]]:
    """row(P - 1) and row(Q - 1), the shorter axis's looked up first, so
    that on the quadratic lattice the longer one's table extends it; one
    lookup, the same row twice, when P == Q."""
    if P < Q:
        e_right = row(P - 1)
        return e_right, row(Q - 1)
    e_left = row(Q - 1)
    return e_left if P == Q else row(P - 1), e_left


def _component(row: Callable[[int], Sequence[int]], P: int, Q: int,
               start: Direction, end: Direction,
               cap: int = DEFAULT_LATTICE_CAP) -> AmplitudePolynomial:
    check_directions(start, end)
    P = check_size("P and Q", P, 1)
    Q = check_size("P and Q", Q, 1)
    check_cap("P + Q", P + Q, "lattice", cap)
    e_right, e_left = _axis_rows(row, P, Q)
    return AmplitudePolynomial(*_sector_rows(e_right, e_left, start, end))


def exact_component(P: int, Q: int, start: Direction, end: Direction,
                    cap: int = DEFAULT_LATTICE_CAP) -> AmplitudePolynomial:
    """Exact sector sum as a polynomial in (i * eps0), no enumeration.

    With O_n the first n odd weights, the mixed sectors carry
    e_k(O_{P-1}) * e_k(O_{Q-1}) at order 2k (see _sector_rows). P + Q
    above cap raises ResourceLimitError before any table is built.
    """
    return _component(LatticeSpec.row, P, Q, start, end, cap)


def linear_component(P: int, Q: int, start: Direction, end: Direction,
                     cap: int = DEFAULT_LATTICE_CAP) -> AmplitudePolynomial:
    """Sector sum on the uniform lattice as a polynomial in (i * eps).

    The coefficient at order R - 1 equals count_paths(P, Q, start, end, R):
    all counted reversals weigh the same here. P + Q above cap raises
    ResourceLimitError before any row is built.
    """
    return _component(LinearSpec.row, P, Q, start, end, cap)


def split_counts(N: int, v: RationalLike) -> Optional[tuple[int, int]]:
    """Split N segments into (P, Q) realizing velocity v = (P - Q) / N.

    Needs N (1 + v) even in the exact sense and |v| < 1, so that P and Q
    are >= 1; returns None when no valid split exists (that N is then
    skipped by the sweep).
    """
    N, v = check_size("N", N, 1), to_fraction(v, "v")
    p = Fraction(N) * (1 + v) / 2
    return None if p.denominator != 1 or abs(v) >= 1 else (int(p), N - int(p))


@dataclass(frozen=True, slots=True)
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

    Each sector's rows (see _sector_rows) go to paths.parity_parts as they
    are, () for the parity it lacks; the mixed sectors are one even row,
    evaluated once and reported twice, the diagonal ones odd rows, one for
    both when P == Q. Each part is an integer sum over one power of the
    step's denominator, divided once, so cancellation costs nothing.
    P + Q above cap raises ResourceLimitError before any work.
    """
    check_cap("P + Q", spec.P + spec.Q, "lattice", cap)
    e_right, e_left = _axis_rows(spec.row, spec.P, spec.Q)
    step = spec.step
    mixed = parity_parts(*_sector_rows(e_right, e_left, _R, _L), step)
    pp = parity_parts(*_sector_rows(e_right, e_left, _R, _R), step)
    mm = pp if e_left is e_right else parity_parts(
        *_sector_rows(e_right, e_left, _L, _L), step)
    return {"psi_pp": pp, "psi_pm": mixed, "psi_mp": mixed, "psi_mm": mm}


linear_parts = exact_parts


def proper_time(t: float, x: float) -> float:
    """s = sqrt(t^2 - x^2) at a point strictly inside the forward light
    cone; DomainError elsewhere, and for NaN, inf or a coordinate past
    float range. t and x are scaled by 2^-k, k = frexp(t)[1], so
    (t - x)(t + x) neither underflows nor overflows; where it is a normal
    float, s is bit-identical to the unscaled form."""
    t, x = check_real("t", t, DomainError), check_real("x", x, DomainError)
    if t <= abs(x):
        raise DomainError(f"point (t={brief(t)}, x={brief(x)}) is outside "
                          "the open forward light cone")
    k = frexp(t)[1]
    t, x = ldexp(t, -k), ldexp(x, -k)
    return ldexp(sqrt((t - x) * (t + x)), k)


def closed_matrix(t: float, x: float) -> PropagatorMatrix:
    """Limiting components at a real point strictly inside the light cone.

    With s = proper_time(t, x): psi_mp = psi_pm = J0(s), and the diagonal
    components are i (t +/- x) / s times J1(s). t and x may be exact
    rationals; proper_time refuses one past float range with DomainError.
    """
    s = proper_time(t, x)
    t, x = float(t), float(x)
    j0, j1 = bessel_j0_j1(s)
    mixed = complex(j0, 0.0)
    return PropagatorMatrix(complex(0.0, (t + x) / s * j1), mixed, mixed,
                            complex(0.0, (t - x) / s * j1))


def pq_identity_check(P: int, Q: int) -> bool:
    """Exact check of 2 P Q gamma = P^2 + Q^2 at the lattice velocity.

    Equivalent to 4 P^2 Q^2 = (P^2 + Q^2)^2 (1 - v^2) with
    v = (P^2 - Q^2) / (P^2 + Q^2), gamma = 1 / sqrt(1 - v^2). Kept as the
    paper's identity: it turns the series over lattice reversals into the
    J0 series in s = t / gamma.
    """
    P, Q = check_size("P, Q", P, 1), check_size("P, Q", Q, 1)
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


def _deviation_rows(spec: LatticeSpec | LinearSpec,
                    parts: dict[str, tuple[Fraction, Fraction]],
                    closed: PropagatorMatrix) -> list[ConvergenceRow]:
    """One row per component of spec: its exact parts against closed."""
    rows = []
    for name in COMPONENT_ORDER:
        ex_re, ex_im = map(float, parts[name])
        cl = getattr(closed, name)
        abs_err = abs(complex(ex_re, ex_im) - cl)
        if cl == 0:
            rel_err = 0.0 if abs_err == 0.0 else float("inf")
        else:
            rel_err = abs_err / abs(cl)
        rows.append(ConvergenceRow(
            P=spec.P, Q=spec.Q, t=spec.t, v=spec.v, component=name,
            exact_re=ex_re, exact_im=ex_im,
            closed_re=cl.real, closed_im=cl.imag,
            abs_err=abs_err, rel_err=rel_err))
    return rows


WARNING_COMPONENT = "warning"


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
    closed = closed_matrix(t, t * v)
    specs = [spec_of(size) for size in sizes]
    for spec in specs:
        if spec is not None:
            check_cap("P + Q", spec.P + spec.Q, "lattice", cap)
    rows: list[ConvergenceRow] = []
    for size, spec in zip(sizes, specs):
        if spec is None:
            rows.append(ConvergenceRow(
                P=size, Q=0, t=t, v=v, component=WARNING_COMPONENT,
                exact_re=0.0, exact_im=0.0, closed_re=0.0, closed_im=0.0,
                abs_err=0.0, rel_err=0.0))
            continue
        rows.extend(_deviation_rows(spec, exact_parts(spec, cap), closed))
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
    t, v = to_fraction(t, "t", positive=True), to_fraction(v, "v")
    gen = spectrum_membership(v)
    if gen is None:
        raise DomainError(f"velocity {brief(v)} is not in the spectrum "
                          "(p^2-q^2)/(p^2+q^2)")
    P0, Q0 = gen

    def spec_of(P: int) -> LatticeSpec:
        if (P := check_size("P", P, 1)) % P0:
            raise DomainError(
                f"P = {brief(P)} cannot realize v = {brief(v)}: P must be "
                f"a positive multiple of {brief(P0)}")
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
    t, v = to_fraction(t, "t", positive=True), to_fraction(v, "v")
    if abs(v) >= 1:
        raise InvalidParameterError("sweep requires |v| < 1")
    N_list = [check_size("N", N, 1) for N in N_list]

    def spec_of(N: int) -> Optional[LinearSpec]:
        point = split_counts(N, v)
        return None if point is None else LinearSpec(*point, t)

    return _sweep(t, v, N_list, spec_of, cap)
