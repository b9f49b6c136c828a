"""The argument contract of the public surface.

A registry maps every callable in checkerboard.__all__ (exception classes
aside) to a call on valid arguments, and names the kind of each numeric
argument the call takes:

- INT, sizes, generators and caps: a Python int, or a numpy integer,
  which gives the int's result. A bool, a float, a Fraction, NaN or inf
  is refused with InvalidParameterError, so no cap value switches a
  budget off.
- NUM, reals and exact rationals: 2.0, True, np.bool_(True), np.int64(2)
  and np.float64(2.0) give the result of 2 (of 1 for the bools), and
  2.5, np.float32(2.5) and np.longdouble(2.5) that of Fraction(5, 2),
  unless they are refused with a CheckerboardError; NaN and inf are
  refused with one. 0, -1, +-10**400, 10**5000, Fraction(10**5000, 3)
  and Fraction(5, 2) give a result or a CheckerboardError.

No other exception is allowed, and no warning (pytest turns one into an
error). A wrong type is the one place a TypeError may come out: None
raises TypeError or a CheckerboardError (unless None is the argument's
default), and a str the same, or the result of the number it spells. Rows of coefficients, field arrays,
paths, directions and plain records take no numeric argument here; a
record whose fields a function reads (a point, a region, a spec) is
built inside that function's call, so its fields are that call's
arguments. A method joins the registry under its dotted name.

Every library call runs under Python's default int-to-str digit limit,
so a refusal that writes a value of more than 4,300 digits fails here;
only the repr of a result, taken after the call, lifts it.
"""

import sys
from contextlib import contextmanager
from fractions import Fraction
from math import inf, nan

import numpy as np
import pytest

import checkerboard as cb
from checkerboard.errors import CheckerboardError, InvalidParameterError

R, L = cb.Direction.R, cb.Direction.L
INT, NUM = "integer", "number"
FIELD = np.zeros((3, 3), dtype=complex)

# each hostile value with the Python-int or Fraction value it stands for
HOSTILE = ((2.0, 2), (2.5, Fraction(5, 2)), (True, 1), (0, 0), (-1, -1),
           (nan, None), (inf, None), (10**400, 10**400),
           (-10**400, -10**400), (Fraction(5, 2), Fraction(5, 2)),
           (np.int64(2), 2), (np.float64(2.0), 2), (10**5000, 10**5000),
           (Fraction(10**5000, 3), Fraction(10**5000, 3)),
           (np.float32(2.5), Fraction(5, 2)),
           (np.longdouble(2.5), Fraction(5, 2)), (np.bool_(True), 1))


# name: (call, (kind, valid value) per numeric argument of the call)
CASES = {
    "AmplitudePolynomial": (lambda: cb.AmplitudePolynomial((1, 2), (3,)),),
    "AmplitudePolynomial.evaluate_exact": (lambda eps0: cb.AmplitudePolynomial(
        (1, 2), (3,)).evaluate_exact(eps0), (NUM, Fraction(1, 3))),
    "BoostMatrix": (cb.BoostMatrix, (INT, 3), (INT, 1)),
    "ConvergenceRow": (lambda: cb.ConvergenceRow(
        2, 2, Fraction(1), Fraction(0), "psi_pp", *[0.0] * 6),),
    "Direction": (lambda: cb.Direction("R"),),
    "LatticeSpec": (cb.LatticeSpec, (INT, 3), (INT, 2), (NUM, 1)),
    "LinearSpec": (lambda P, Q, t, N: cb.LinearSpec(P, Q, t, N=N),
                   (INT, 1), (INT, 1), (NUM, 1), (INT, 2)),
    "MembershipWitness": (lambda: cb.MembershipWitness(1, 1, 2, 1),),
    "PropagatorMatrix": (lambda: cb.PropagatorMatrix(1j, 1, 1, 1j),),
    "Region": (lambda: cb.Region(0.5, 1.0, 0.2),),
    "ResidualReport": (lambda: cb.ResidualReport(
        0.1, 0.2, 1.0, 1, 1, {}, {}, {}, {}),),
    "SeriesResult": (lambda: cb.SeriesResult(1.0, 1, 0.0),),
    "SpacetimePoint": (lambda: cb.SpacetimePoint(Fraction(5), Fraction(3)),),
    "SymmetricTable": (lambda: cb.SymmetricTable((1,)),),
    "apply_boost": (lambda p, q, t, x: cb.apply_boost(
        cb.boost(p, q), cb.SpacetimePoint(t, x)),
        (INT, 2), (INT, 1), (NUM, 5), (NUM, 3)),
    "bend_records": (lambda: cb.bend_records((R, L, R)),),
    "bessel_j0": (cb.bessel_j0, (NUM, 1), (NUM, 1e-16)),
    "bessel_j1": (cb.bessel_j1, (NUM, 1), (NUM, 1e-16)),
    "boost": (cb.boost, (INT, 3), (INT, 2)),
    "closed_matrix": (cb.closed_matrix, (NUM, 3), (NUM, 1)),
    "compose": (lambda p1, q1, p2, q2: cb.compose(
        cb.boost(p1, q1), cb.boost(p2, q2)),
        (INT, 3), (INT, 2), (INT, 1), (INT, 2)),
    "convergence_sweep": (lambda t, v, P, cap: cb.convergence_sweep(
        t, v, [P], cap), (NUM, 1), (NUM, 0), (INT, 2), (INT, 4096)),
    "count_paths": (lambda P, Q, n: cb.count_paths(P, Q, R, L, n),
                    (INT, 3), (INT, 2), (INT, 1)),
    "dirac_residual": (lambda t0, t1, xfrac, h, scale, cap: cb.dirac_residual(
        cb.Region(t0, t1, xfrac), h, scale, cap), (NUM, 0.5), (NUM, 1.0),
        (NUM, 0.2), (NUM, 0.1), (NUM, 1.0), (INT, 4096)),
    "elem_sym_table": (cb.elem_sym_table, (INT, 3), (INT, 4096)),
    "enumerate_paths": (lambda P, Q, cap: list(cb.enumerate_paths(
        P, Q, R, L, cap)), (INT, 3), (INT, 2), (INT, 24)),
    "exact_component": (lambda P, Q, cap: cb.exact_component(
        P, Q, R, L, cap), (INT, 3), (INT, 2), (INT, 4096)),
    "exact_parts": (lambda P, Q, t, cap: cb.exact_parts(
        cb.LatticeSpec(P, Q, t), cap),
        (INT, 3), (INT, 2), (NUM, 1), (INT, 4096)),
    "format_rational": (cb.format_rational, (NUM, Fraction(5, 3))),
    "is_member": (lambda t, x: cb.is_member(cb.SpacetimePoint(t, x)),
                  (NUM, 5), (NUM, 3)),
    "j0_j1_values": (cb.j0_j1_values, (NUM, 1.0)),
    "j0_values": (cb.j0_values, (NUM, 1.0)),
    "j1_values": (cb.j1_values, (NUM, 1.0)),
    "linear_component": (lambda P, Q, cap: cb.linear_component(
        P, Q, R, L, cap), (INT, 3), (INT, 2), (INT, 4096)),
    "linear_converge": (lambda t, v, N, cap: cb.linear_converge(
        t, v, [N], cap), (NUM, 1), (NUM, 0), (INT, 4), (INT, 4096)),
    "linear_parts": (lambda P, Q, t, cap: cb.linear_parts(
        cb.LinearSpec(P, Q, t), cap),
        (INT, 3), (INT, 2), (NUM, 1), (INT, 4096)),
    "make_point": (cb.make_point, (INT, 1), (INT, 1), (INT, 2), (INT, 1)),
    "matrix_product": (lambda p1, q1, p2, q2: cb.matrix_product(
        cb.boost(p1, q1), cb.boost(p2, q2)),
        (INT, 3), (INT, 2), (INT, 1), (INT, 2)),
    "parse_rational": (lambda: cb.parse_rational("5/2"),),
    "path_amplitude": (lambda: cb.path_amplitude((R, L, R, L)),),
    "pq_identity_check": (cb.pq_identity_check, (INT, 3), (INT, 2)),
    "proper_time": (cb.proper_time, (NUM, 3), (NUM, 1)),
    "rational_square_root": (cb.rational_square_root, (NUM, Fraction(9, 4))),
    "residual_rows": (lambda h: cb.residual_rows(FIELD, FIELD, h),
                      (NUM, 0.1)),
    "sector_sum_bruteforce": (lambda P, Q, cap: cb.sector_sum_bruteforce(
        P, Q, R, L, cap), (INT, 3), (INT, 2), (INT, 24)),
    "spectrum_membership": (cb.spectrum_membership, (NUM, Fraction(3, 5))),
    "split_counts": (cb.split_counts, (INT, 8), (NUM, Fraction(1, 2))),
    "velocity_spectrum": (cb.velocity_spectrum, (INT, 3), (INT, 512)),
}

# (name, argument) whose default is None, so None is no wrong type there
OPTIONAL = {("LinearSpec", 3)}


@contextmanager
def _digit_limit(digits):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _outcome(call, args):
    """repr of the result, which tells 2 from 2.0 and np.int64(2), or the
    CheckerboardError class; any other exception propagates. The call runs
    under the default digit limit, the repr with none."""
    with _digit_limit(sys.int_info.default_max_str_digits):
        try:
            result = call(*args)
        except CheckerboardError as exc:
            return type(exc)
    with _digit_limit(0):
        return repr(result)


def _where(name, i, hostile) -> str:
    """The failing case's label, written after the call."""
    with _digit_limit(0):
        return f"{name} argument {i} = {hostile!r:.24}"


def _refused(outcome) -> bool:
    return isinstance(outcome, type)


def test_the_registry_covers_the_public_surface():
    public = {name for name in cb.__all__ if callable(getattr(cb, name))
              and not (isinstance(getattr(cb, name), type)
                       and issubclass(getattr(cb, name), BaseException))}
    assert {name for name in CASES if "." not in name} == public


@pytest.mark.parametrize("name", sorted(CASES))
def test_hostile_numbers_give_the_plain_result_or_a_typed_refusal(name):
    call, *kinds = CASES[name]
    valid = [value for _, value in kinds]
    assert not _refused(_outcome(call, valid))
    failures = []
    for i, (kind, _) in enumerate(kinds):
        wrong = ((None, None),) * ((name, i) not in OPTIONAL) + (("2", 2),)
        for hostile, plain in HOSTILE + wrong:
            args, plain_args = list(valid), list(valid)
            args[i], plain_args[i] = hostile, plain
            try:
                got = _outcome(call, args)
            except TypeError as exc:
                if not isinstance(hostile, (str, type(None))):
                    failures.append(
                        f"{_where(name, i, hostile)}: TypeError {exc}")
                continue
            except Exception as exc:
                failures.append(
                    f"{_where(name, i, hostile)}: {type(exc).__name__} {exc}")
                continue
            integer = type(hostile) is int or isinstance(hostile, np.integer)
            if kind == INT and not integer:
                ok = got is InvalidParameterError
            elif plain is None:
                ok = _refused(got)
            else:
                ok = got == _outcome(call, plain_args) or (
                    kind == NUM and _refused(got))
            if not ok:
                failures.append(f"{_where(name, i, hostile)}: {got!r}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("call", [
    lambda: cb.split_counts(4.0, 0),
    lambda: cb.split_counts(nan, 0),
    lambda: cb.linear_converge(2, 0, [True]),
    lambda: cb.make_point(1, 1, 2.0, 1),
    lambda: cb.pq_identity_check(2.0, 1),
    lambda: cb.velocity_spectrum(2.5),
    lambda: cb.boost(2.0, 1),
    lambda: cb.BoostMatrix(2.0, 1),
    lambda: cb.convergence_sweep(2, 0, [4.5]),
    lambda: cb.exact_component(2, 2, R, L, cap=nan),
    lambda: cb.elem_sym_table(2, cap=nan),
    lambda: cb.velocity_spectrum(2, cap=nan),
    lambda: cb.enumerate_paths(2, 2, R, L, cap=nan),
    lambda: cb.dirac_residual(cb.Region(0.5, 1.0, 0.2), 0.1, cap=nan),
    lambda: cb.exact_component(2, 2, R, L, cap=True),
    lambda: cb.enumerate_paths(2.0, 2, R, L),
])
def test_each_old_wrong_value_or_silent_budget_is_refused_at_the_call(call):
    # each once gave a float or bool value, a budget switched off, or a
    # bare TypeError, AttributeError or ValueError; none needs a next()
    with pytest.raises(InvalidParameterError):
        call()


def test_enumeration_refuses_past_its_cap_at_the_call():
    with pytest.raises(cb.ResourceLimitError):
        cb.enumerate_paths(30, 30, R, L)


@pytest.mark.parametrize("call, error", [
    (lambda: cb.bessel_j0(10**400), cb.OutOfRangeError),
    (lambda: cb.bessel_j1(-10**400), cb.OutOfRangeError),
    (lambda: cb.j0_values([1.0, 10**400]), cb.OutOfRangeError),
    (lambda: cb.proper_time(10**400, 1), cb.DomainError),
    (lambda: cb.closed_matrix(Fraction(10**400, 3), 1), cb.DomainError),
])
def test_a_real_past_float_range_is_refused_as_out_of_its_domain(call, error):
    with pytest.raises(error, match="float range"):
        call()


def test_a_dirac_bound_past_float_range_is_not_finite():
    region = cb.Region(0.5, 10**400, 0.2)
    for args in ((region, 0.1), (cb.Region(0.5, 1.0, 0.2), 10**400),
                 (cb.Region(0.5, 1.0, 0.2), 0.1, -10**400)):
        with pytest.raises(InvalidParameterError, match="must be finite"):
            cb.dirac_residual(*args)


def test_an_int64_boost_chain_equals_the_python_int_chain():
    # the int64 generator once wrapped at the 38th product
    wide = plain = cb.boost(3, 2)
    narrow = cb.boost(np.int64(3), np.int64(2))
    for _ in range(40):
        wide = cb.compose(wide, plain)
        narrow = cb.compose(narrow, cb.boost(np.int64(3), np.int64(2)))
    assert narrow == wide and type(narrow.p) is int
    assert wide.p == 3**41


BIG, BIG_THIRD = 10**5000, Fraction(10**5000, 3)  # past 4,300 digits


@pytest.mark.parametrize("call, error", [
    (lambda: cb.exact_component(BIG, 2, R, L), cb.ResourceLimitError),
    (lambda: cb.elem_sym_table(BIG), cb.ResourceLimitError),
    (lambda: cb.enumerate_paths(BIG, 2, R, L), cb.ResourceLimitError),
    (lambda: cb.sector_sum_bruteforce(BIG, 2, R, L), cb.ResourceLimitError),
    (lambda: cb.velocity_spectrum(BIG), cb.ResourceLimitError),
    (lambda: cb.convergence_sweep(1, 0, [BIG]), cb.ResourceLimitError),
    (lambda: cb.linear_converge(1, 0, [BIG]), cb.ResourceLimitError),
    (lambda: cb.BoostMatrix(2 * BIG, 2), InvalidParameterError),
    (lambda: cb.count_paths(BIG_THIRD, 2, R, L, 1), InvalidParameterError),
    (lambda: cb.boost(BIG_THIRD, 2), InvalidParameterError),
    (lambda: cb.make_point(BIG_THIRD, 1, 2, 1), InvalidParameterError),
    (lambda: cb.LatticeSpec(BIG_THIRD, 2, 1), InvalidParameterError),
    (lambda: cb.split_counts(BIG_THIRD, 0), InvalidParameterError),
    (lambda: cb.pq_identity_check(BIG_THIRD, 2), InvalidParameterError),
    (lambda: cb.exact_parts(cb.LatticeSpec(3, 2, 1), cap=BIG_THIRD),
     InvalidParameterError),
    (lambda: cb.format_rational(BIG), cb.ResourceLimitError),
], ids=["exact_component", "elem_sym_table", "enumerate_paths",
        "sector_sum_bruteforce", "velocity_spectrum", "convergence_sweep",
        "linear_converge", "BoostMatrix", "count_paths", "boost",
        "make_point", "LatticeSpec", "split_counts", "pq_identity_check",
        "exact_parts", "format_rational"])
def test_a_value_past_the_digit_limit_is_refused_by_its_size(call, error):
    # each once wrote the value in digits, in its refusal text or (in
    # format_rational) its result, and Python's int-to-str limit turned
    # that into a bare ValueError
    with _digit_limit(sys.int_info.default_max_str_digits):
        with pytest.raises(error, match=r"<a \d+-bit number>"):
            call()


NUMPY_REALS = (np.float16(0.25), np.float32(0.25), np.longdouble(0.25),
               np.bool_(True))


@pytest.mark.parametrize("call", [
    lambda t: cb.LatticeSpec(3, 2, t),
    lambda t: cb.LinearSpec(3, 2, t),
    lambda v: cb.split_counts(8, v),
    lambda t: cb.convergence_sweep(t, 0, [2]),
    lambda t: cb.linear_converge(t, 0, [4]),
    lambda t: cb.is_member(cb.SpacetimePoint(t, 1)),
    lambda t: cb.apply_boost(cb.boost(2, 1), cb.SpacetimePoint(t, 1)),
    cb.spectrum_membership,
    cb.rational_square_root,
    cb.format_rational,
    lambda eps0: cb.AmplitudePolynomial((1, 2), (3,)).evaluate_exact(eps0),
], ids=["LatticeSpec", "LinearSpec", "split_counts", "convergence_sweep",
        "linear_converge", "is_member", "apply_boost", "spectrum_membership",
        "rational_square_root", "format_rational", "evaluate_exact"])
def test_a_numpy_real_of_any_width_is_its_exact_value(call):
    # Fraction() takes no numpy float or bool: each call once raised its
    # bare TypeError
    for value in NUMPY_REALS:
        plain = True if isinstance(value, np.bool_) else Fraction(1, 4)
        try:
            got = call(value)
        except InvalidParameterError:
            continue
        assert repr(got) == repr(call(plain)), value


def test_a_longdouble_keeps_its_bits():
    third = np.longdouble(1) / 3
    exact = Fraction(*third.as_integer_ratio())
    assert cb.format_rational(third) == f"{exact.numerator}/{exact.denominator}"
    if np.finfo(np.longdouble).nmant > np.finfo(np.float64).nmant:
        assert exact != Fraction(float(third))


def test_evaluate_exact_reads_its_step_by_the_rational_rule():
    poly = cb.AmplitudePolynomial((1, 2), (3,))
    with pytest.raises(InvalidParameterError, match="eps0"):
        poly.evaluate_exact(nan)
    assert poly.evaluate_exact(np.float32(0.5)) == poly.evaluate_exact(
        Fraction(1, 2))
