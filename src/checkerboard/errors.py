"""Exception hierarchy shared by all checkerboard modules.

The CLI maps these onto exit codes: domain violations (including invalid
parameters) exit 3, resource caps exit 4. Usage errors are argparse's
business and exit 2.
"""


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
