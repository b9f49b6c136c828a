"""Exception hierarchy shared by all checkerboard modules.

The CLI maps these onto exit codes: domain violations (including invalid
parameters) exit 3, resource caps exit 4. Usage errors are argparse's
business and exit 2.
"""

from math import inf, isfinite
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
    """An enumeration, an exact lattice evaluation or sweep, or a Dirac
    residual grid exceeded its configured cap."""


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
                f"integer {name} expected, got {value!r}") from None
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
            f"{name} = {value} exceeds {kind} cap {cap}; "
            "raise the cap explicitly if the wait is acceptable")


def check_real(name: str, value: float, error: type) -> float:
    """value as a float (numpy reals and exact rationals pass); NaN, inf and
    a value past float range raise error, a str or None a TypeError."""
    try:
        if isfinite(value):
            return float(value)
    except OverflowError:
        pass
    raise error(f"{name} must be finite and within float range")
