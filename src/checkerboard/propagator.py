"""Propagator components on the quadratic lattice, exactly and in the limit.

Three routes to the same four numbers live here. The exact route sums a
sector's path amplitudes in closed combinatorial form: the sum over paths
with a fixed number of reversals factorizes into elementary symmetric
polynomials of the odd numbers {1, 3, ..., 2n-1}, one factor per light-cone
axis, so the whole sector collapses to a short polynomial in (i * eps0)
with exact integer coefficients. The same core serves the uniform lattice
of the linear module, whose segments all weigh 1. The limit route is the
classical series in s = sqrt(t^2 - x^2) that those polynomials approach
as the lattice refines. The closed route evaluates the Bessel expressions

    psi_mp = psi_pm = J0(s)
    psi_pp = i ((t + x) / s) J1(s)
    psi_mm = i ((t - x) / s) J1(s)

directly. Convergence sweeps tabulate the exact-versus-closed deviation as
the lattice is refined at fixed velocity.

Component naming: the first sign is the direction of the path's final
segment, the second the direction of its first segment, with p (plus) for
right-moving and m (minus) for left-moving. psi_pp therefore collects the
sector of paths that start and end moving right.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isfinite, sqrt
from typing import Callable, Optional, Sequence, Union

from .bessel import bessel_j0, bessel_j1
from .errors import DomainError, InvalidParameterError
from .paths import AmplitudePolynomial, Direction
from .spacetime import rational_square_root, spectrum_membership

RationalLike = Union[int, Fraction]

COMPONENT_ORDER = ("psi_pp", "psi_pm", "psi_mp", "psi_mm")


def _rational(value: RationalLike, name: str) -> Fraction:
    """Fraction(value), refusing nan and inf with a typed error."""
    try:
        return Fraction(value)
    except (ValueError, OverflowError):
        raise InvalidParameterError(
            f"{name} must be a finite rational, got {value!r}") from None


@dataclass(frozen=True)
class SymmetricTable:
    """Elementary symmetric polynomials e_k of the first n odd numbers.

    values[k] = e_k({1, 3, ..., 2n-1}) for k = 0..n, exact integers.
    """

    n: int
    values: tuple[int, ...]

    def e(self, k: int) -> int:
        if 0 <= k <= self.n:
            return self.values[k]
        return 0


@lru_cache(maxsize=32)
def elem_sym_table(n: int) -> SymmetricTable:
    """Build the full e_k table for the odd-number set of size n.

    Grows the set one odd number at a time with the recurrence
    e_k(new set) = e_k(old) + (2n-1) * e_{k-1}(old), which is O(n^2)
    integer operations. e_1 comes out as n^2, the sum of the first n
    odd numbers, which makes a handy spot check.
    """
    if n < 0:
        raise InvalidParameterError("table size n must be >= 0")
    row = [1]
    for j in range(1, n + 1):
        odd = 2 * j - 1
        nxt = row + [0]
        for k in range(1, len(nxt)):
            nxt[k] = (row[k] if k < len(row) else 0) + odd * row[k - 1]
        row = nxt
    return SymmetricTable(n=n, values=tuple(row))


def _sector_polynomial(e_right: Sequence[int], e_left: Sequence[int],
                       start: Direction, end: Direction) -> AmplitudePolynomial:
    """Sector sum as a polynomial in (i * step), from per-axis e_k rows.

    e_right[k] is e_k of the weights of the first P - 1 right segments and
    e_left[k] the same for the first Q - 1 left segments; a counted reversal
    after segment j of an axis weighs that axis's j-th weight. The mixed
    sectors (start and end differ) have 2k + 1 reversals at order 2k: the
    counted reversal coordinates form a free k-subset of each axis, so the
    sum over subset pairs is e_right[k] * e_left[k], whichever axis the
    path starts on. A sector that starts and ends on one axis has 2k
    reversals at order 2k - 1, k counted on its own axis and k - 1 on the
    other. The rows stop at P - 1 and Q - 1 because the final segment of
    each axis never precedes a counted reversal; agreement with the
    brute-force enumeration oracle pins these bounds down.
    """
    if start is not end:
        return AmplitudePolynomial(
            {2 * k: a * b for k, (a, b) in enumerate(zip(e_right, e_left))})
    own, other = (e_right, e_left) if start is Direction.R else (e_left, e_right)
    return AmplitudePolynomial(
        {2 * k + 1: a * b for k, (a, b) in enumerate(zip(own[1:], other))})


def _parts(e_right: Sequence[int], e_left: Sequence[int],
           step: Fraction) -> dict[str, tuple[Fraction, Fraction]]:
    """All four sector sums evaluated exactly at the given step length.

    The two mixed sectors are one polynomial (see _sector_polynomial), so
    it is built and evaluated once and reported as both psi_pm and psi_mp.
    """
    R, L = Direction.R, Direction.L
    mixed = _sector_polynomial(e_right, e_left, R, L).evaluate_exact(step)
    return {
        "psi_pp": _sector_polynomial(e_right, e_left, R, R).evaluate_exact(step),
        "psi_pm": mixed,
        "psi_mp": mixed,
        "psi_mm": _sector_polynomial(e_right, e_left, L, L).evaluate_exact(step),
    }


def exact_component(P: int, Q: int, start: Direction, end: Direction) -> AmplitudePolynomial:
    """Exact sector sum as a polynomial in (i * eps0), no enumeration.

    The segment weights are the odd numbers 2j - 1, so the per-axis rows
    are elem_sym_table(P - 1) and elem_sym_table(Q - 1): the mixed
    sectors carry e_k(O_{P-1}) * e_k(O_{Q-1}) at order 2k, the
    start=end=right sector e_k(O_{P-1}) * e_{k-1}(O_{Q-1}) at order
    2k - 1, and the start=end=left sector swaps P with Q.
    """
    if P < 1 or Q < 1:
        raise InvalidParameterError("sector sums need P >= 1 and Q >= 1")
    return _sector_polynomial(elem_sym_table(P - 1).values,
                              elem_sym_table(Q - 1).values, start, end)


@dataclass(frozen=True)
class LatticeSpec:
    """Quadratic lattice endpoint: P right segments, Q left segments, time t.

    The endpoint sits at x = t (P^2 - Q^2) / (P^2 + Q^2), and the base
    segment length is eps0 = t / (P^2 + Q^2), which places the j-th
    right (left) segment endpoint at light-cone coordinate j^2 eps0.
    """

    P: int
    Q: int
    t: Fraction

    def __post_init__(self):
        if self.P < 1 or self.Q < 1:
            raise InvalidParameterError("LatticeSpec requires P >= 1 and Q >= 1")
        object.__setattr__(self, "t", _rational(self.t, "t"))
        if self.t <= 0:
            raise InvalidParameterError("LatticeSpec requires t > 0")

    @property
    def eps0(self) -> Fraction:
        return self.t / (self.P * self.P + self.Q * self.Q)

    @property
    def v(self) -> Fraction:
        return Fraction(self.P * self.P - self.Q * self.Q,
                        self.P * self.P + self.Q * self.Q)

    @property
    def x(self) -> Fraction:
        return self.t * self.v


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

    def component(self, name: str) -> complex:
        if name not in COMPONENT_ORDER:
            raise InvalidParameterError(f"unknown component {name!r}")
        return getattr(self, name)


def _to_matrix(parts: dict[str, tuple[Fraction, Fraction]]) -> PropagatorMatrix:
    """Round exact (real, imag) parts to complex at the very end."""
    return PropagatorMatrix(**{name: complex(float(re), float(im))
                               for name, (re, im) in parts.items()})


def exact_parts(spec: LatticeSpec) -> dict[str, tuple[Fraction, Fraction]]:
    """All four components evaluated at eps0, as exact (real, imag) pairs.

    The alternating coefficient sums are evaluated in Fraction arithmetic
    throughout, so cancellation costs nothing; the result is the exact
    Gaussian rational value of each finite path sum.
    """
    return _parts(elem_sym_table(spec.P - 1).values,
                  elem_sym_table(spec.Q - 1).values, spec.eps0)


def exact_matrix(spec: LatticeSpec) -> PropagatorMatrix:
    """Exact finite-lattice components, rounded to complex at the very end."""
    return _to_matrix(exact_parts(spec))


def closed_matrix(t: float, x: float) -> PropagatorMatrix:
    """Limiting components at a real point strictly inside the light cone.

    With s = sqrt(t^2 - x^2): psi_mp = psi_pm = J0(s), and the diagonal
    components are i (t +/- x) / s times J1(s).
    """
    t = float(t)
    x = float(x)
    if not (isfinite(t) and isfinite(x)):
        raise DomainError(f"point (t={t}, x={x}) must have finite coordinates")
    if t <= abs(x):
        raise DomainError(
            f"point (t={t}, x={x}) is outside the open forward light cone")
    s = sqrt((t - x) * (t + x))
    j0 = bessel_j0(s).value
    j1 = bessel_j1(s).value
    return PropagatorMatrix(
        psi_pp=complex(0.0, (t + x) / s * j1),
        psi_pm=complex(j0, 0.0),
        psi_mp=complex(j0, 0.0),
        psi_mm=complex(0.0, (t - x) / s * j1),
    )


def gamma_of(v: Union[RationalLike, float]) -> Union[Fraction, float]:
    """Lorentz factor 1 / sqrt(1 - v^2), exact when the input allows it.

    Rational v with 1 - v^2 a rational square (always the case for
    spectrum velocities) gives back an exact Fraction; anything else
    falls through to floating point.
    """
    if isinstance(v, (int, Fraction)):
        v = Fraction(v)
        if abs(v) >= 1:
            raise DomainError(f"|v| must be < 1, got {v}")
        root = rational_square_root(1 - v * v)
        if root is not None:
            return 1 / root
        v = float(v)
    if not abs(v) < 1.0:
        raise DomainError(f"|v| must be < 1, got {v}")
    return 1.0 / sqrt(1.0 - v * v)


def pq_identity_check(P: int, Q: int) -> bool:
    """Exact check of 2 P Q gamma = P^2 + Q^2 at the lattice velocity.

    Equivalent to 4 P^2 Q^2 = (P^2 + Q^2)^2 (1 - v^2) with
    v = (P^2 - Q^2) / (P^2 + Q^2); this is the identity that turns the
    series over lattice reversals into the J0 series in s = t / gamma.
    """
    if P < 1 or Q < 1:
        raise InvalidParameterError("identity check needs P, Q >= 1")
    ss = P * P + Q * Q
    v = Fraction(P * P - Q * Q, ss)
    g = gamma_of(v)
    return 4 * P * P * Q * Q == ss * ss * (1 - v * v) and 2 * P * Q * g == ss


def series_psi_mp(t: float, v: float, terms: int) -> complex:
    """Partial sum of the limiting series for the mixed components.

    The first `terms` terms of the J0 series at s = t / gamma; one term
    is the k = 0 value 1.
    """
    v = float(v)
    if abs(v) >= 1.0:
        raise DomainError(f"|v| must be < 1, got {v}")
    s = abs(float(t)) * sqrt(1.0 - v * v)
    return complex(bessel_j0(s, terms=terms).value, 0.0)


def psi_mp_term(P: int, Q: int, t: RationalLike, R: int) -> complex:
    """Large-P form of the order-R contribution to the mixed components.

    For odd R = 2k + 1 the bend sum e_k(O_{P-1}) e_k(O_{Q-1}) approaches
    (P Q)^(2k) / (k!)^2, giving (i eps0)^(R-1) (P Q)^(R-1) / (((R-1)/2)!)^2.
    Useful for watching individual reversal orders approach the limit.
    """
    if P < 1 or Q < 1:
        raise InvalidParameterError("P, Q must be >= 1")
    if R < 1 or R % 2 == 0:
        raise InvalidParameterError("mixed-sector contributions need odd R >= 1")
    k = (R - 1) // 2
    eps0 = float(_rational(t, "t") / (P * P + Q * Q))
    mag = (P * Q * eps0) ** (2 * k)
    for j in range(1, k + 1):
        mag /= j * j
    return complex((-1) ** k * mag, 0.0)


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
        cl = closed.component(name)
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


def _sweep(t: Fraction, v: Fraction, sizes: Sequence[int],
           lattice: Callable[[int], Optional[tuple[int, int, dict]]]
           ) -> list[ConvergenceRow]:
    """Deviation rows for each size against one closed-form reference.

    lattice(size) returns (P, Q, exact parts) for that size, or None when
    the size cannot realize v; such a size yields a single marker row with
    component = WARNING_COMPONENT, the size in the P column, Q = 0 and
    zeroed numeric fields, so consumers can tell silence from omission.
    """
    closed = closed_matrix(float(t), float(t * v))
    rows: list[ConvergenceRow] = []
    for size in sizes:
        point = lattice(size)
        if point is None:
            rows.append(ConvergenceRow(
                P=size, Q=0, t=t, v=v, component=WARNING_COMPONENT,
                exact_re=0.0, exact_im=0.0, closed_re=0.0, closed_im=0.0,
                abs_err=0.0, rel_err=0.0))
            continue
        P, Q, parts = point
        rows.extend(_deviation_rows(P, Q, t, v, parts, closed))
    return rows


def convergence_sweep(t: RationalLike, v: RationalLike,
                      P_list: Sequence[int]) -> list[ConvergenceRow]:
    """Deviation of the exact lattice components from the closed forms.

    The velocity fixes the generator shape (P0, Q0); every requested P
    must be a multiple of P0 so that Q = P Q0 / P0 keeps v exact. Rows
    come out grouped by lattice size in input order, components in
    COMPONENT_ORDER within each group.
    """
    t = _rational(t, "t")
    v = _rational(v, "v")
    if t <= 0:
        raise InvalidParameterError("sweep requires t > 0")
    gen = spectrum_membership(v)
    if gen is None:
        raise DomainError(
            f"velocity {v} is not in the spectrum (p^2-q^2)/(p^2+q^2)")
    P0, Q0 = gen

    def lattice(P: int) -> tuple[int, int, dict]:
        if P < 1 or P % P0 != 0:
            raise DomainError(
                f"P = {P} cannot realize v = {v}: P must be a positive "
                f"multiple of {P0}")
        Q = (P // P0) * Q0
        return P, Q, exact_parts(LatticeSpec(P=P, Q=Q, t=t))

    return _sweep(t, v, P_list, lattice)
