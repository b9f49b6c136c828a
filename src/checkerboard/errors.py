"""Exception hierarchy shared by all checkerboard modules.

The CLI maps these onto exit codes: domain violations (including invalid
parameters) exit 3, resource caps exit 4. Usage errors are argparse's
business and exit 2.
"""

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


def check_cap(name: str, value: int, kind: str, cap: int) -> None:
    """Refuse value above cap: the enumeration, lattice and spectrum caps'
    one ResourceLimitError text."""
    if value > cap:
        raise ResourceLimitError(
            f"{name} = {value} exceeds {kind} cap {cap}; "
            "raise the cap explicitly if the wait is acceptable")


def check_size(name: str, value: int, minimum: int) -> int:
    """value as an int (numpy integers pass, via operator.index), refusing
    a bool, a float or any other non-integer, and a value below minimum,
    with InvalidParameterError: the size check at every public door that
    takes a segment count or a table size."""
    size = value
    if type(size) is not int:  # a bool, a numpy integer or no integer
        try:
            size = index(value)
        except TypeError:
            size = None
        if size is None or isinstance(value, bool):
            raise InvalidParameterError(
                f"integer {name} expected, got {value!r}")
    if size < minimum:
        raise InvalidParameterError(f"{name} must be >= {minimum}")
    return size
