"""Exception hierarchy and argument rules shared by all checkerboard modules.

The CLI maps these onto exit codes: domain violations (including invalid
parameters) exit 3, resource caps exit 4. Usage errors are argparse's
business and exit 2. Four rules read an argument: check_size, check_cap,
check_real and to_fraction, the last two with one bound, > 0; brief writes
a refused value into the refusal's text, at any size.
"""

from fractions import Fraction
from math import inf, isfinite
from numbers import Rational
from operator import index


class CheckerboardError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(CheckerboardError, ValueError):
    """An argument violates a precondition (zero generator, P < 1, ...)."""


class DomainError(CheckerboardError, ValueError):
    """The requested point lies outside the mathematical domain."""


class OutOfRangeError(DomainError):
    """Argument outside the validity window of a series implementation."""


class ResourceLimitError(CheckerboardError, RuntimeError):
    """An enumeration, an exact lattice evaluation or sweep, a Dirac grid or
    a written rational (Python's int-to-str digit limit) exceeded its cap."""


def brief(value: object) -> str:
    """value for a refusal text: a rational as str, anything else as repr, and
    one past 2,000 bits as its size, which no digit limit (>= 640) refuses."""
    if not isinstance(value, Rational):
        return repr(value)
    bits = max(abs(int(value.numerator)), int(value.denominator)).bit_length()
    return str(value) if bits <= 2000 else f"<a {bits}-bit number>"


def check_size(name: str, value: int, minimum: float = -inf) -> int:
    """value as a Python int (numpy integers pass, via operator.index) of
    at least minimum, else InvalidParameterError: the one integer rule,
    for every size, cap and generator; a bool or a float is refused."""
    size = value
    if type(size) is not int:  # a bool, a numpy integer or no integer
        try:  # index(None) refuses a bool
            size = index(None if isinstance(value, bool) else value)
        except TypeError:
            raise InvalidParameterError(
                f"integer {name} expected, got {brief(value)}") from None
    if size < minimum:
        raise InvalidParameterError(f"{name} must be >= {minimum}")
    return size


def check_cap(name: str, value: int, kind: str, cap: int) -> None:
    """Refuse value above cap, a size >= 0: the enumeration, lattice and
    spectrum caps' one ResourceLimitError text."""
    if type(cap) is not int or cap < 0:
        cap = check_size(f"{kind} cap", cap, 0)
    if value > cap:
        raise ResourceLimitError(
            f"{name} = {brief(value)} exceeds {kind} cap {brief(cap)}; "
            "raise the cap explicitly if the wait is acceptable")


def check_real(name: str, value: float, error: type,
               positive: bool = False) -> float:
    """value as a float (numpy reals and exact rationals pass); NaN, inf, past
    float range and, if positive, <= 0 raise error, a str or None TypeError."""
    try:
        if isfinite(value):
            value = float(value)
            if not positive or value > 0:
                return value
            raise error(f"{name} must be > 0")
    except OverflowError:
        pass
    raise error(f"{name} must be finite and within float range")


def to_fraction(value: Rational | float | str, name: str = "value",
                positive: bool = False) -> Fraction:
    """value as a Fraction over Python ints (Fraction(np.int64(7)) keeps int64
    parts, whose products wrap), a float of any width by its exact ratio, a str
    as Fraction reads it; refused: NaN, inf, other types, <= 0 if positive."""
    if isinstance(value, Rational):
        fraction = Fraction(int(value.numerator), int(value.denominator))
    else:
        try:
            fraction = Fraction(value) if isinstance(value, str) else Fraction(
                *value.as_integer_ratio())
        except (ValueError, OverflowError, AttributeError):
            raise InvalidParameterError(f"{name} must be a finite rational, "
                                        f"got {brief(value)}") from None
    if positive and fraction <= 0:
        raise InvalidParameterError(f"{name} must be > 0")
    return fraction
