"""Exception hierarchy.

Two families matter for the command line contract: ``InputError`` (malformed
input, exit code 1) and ``Refusal`` (the mathematics says no, exit code 2).
Refusals are successes of the checker, not crashes; each carries a stable
machine-readable ``code``.
"""

from __future__ import annotations


class NuchiError(Exception):
    """Base class for every error raised by this package."""


class InputError(NuchiError):
    """Malformed or inconsistent input (CLI exit code 1)."""


class Refusal(NuchiError):
    """A mathematically determined refusal (CLI exit code 2)."""

    code = "REFUSED"


# ---------------------------------------------------------------- input errors

class RingMismatch(InputError):
    """Operands live in different rings."""


class ArityMismatch(InputError):
    """Coordinate or component count does not match the ring arity."""


class UnknownVariable(InputError):
    """An expression names a symbol that the ring does not declare."""

    def __init__(self, name: str, offset: int | None = None):
        self.name = name
        self.offset = offset
        where = f" at byte {offset}" if offset is not None else ""
        super().__init__(f"unknown variable {name!r}{where}")


class PolynomialSyntaxError(InputError):
    """Expression text violates the polynomial grammar.

    ``offset`` is the byte offset of the offending position in the UTF-8
    encoding of the input.
    """

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} at byte {offset}")


class NegativeExponent(PolynomialSyntaxError):
    def __init__(self, offset: int):
        super().__init__("negative exponent", offset)


class ExponentOverflow(InputError):
    """An exponent left the supported 32-bit range."""


class MissingValue(InputError):
    """A constructible function has no value on some stratum."""


class TooLarge(InputError):
    """Point-count oracle limits exceeded (arity <= 4, q <= 16)."""


class BoundExceeded(InputError):
    """A configured enumeration bound was exceeded."""


class UnitIdeal(InputError):
    """The construction requires a proper ideal."""


# -------------------------------------------------------------------- refusals

class NotCriticalPoint(Refusal):
    code = "NOT_CRITICAL"


class NonIsolatedCriticalPoint(Refusal):
    code = "NON_ISOLATED"


class Unsupported(Refusal):
    code = "UNSUPPORTED"


class UnsupportedPresentation(Refusal):
    code = "UNSUPPORTED_PRESENTATION"


class UnsupportedCycleKind(Refusal):
    code = "UNSUPPORTED_CYCLE_KIND"


class PointNotOnVariety(Refusal):
    code = "POINT_NOT_ON_VARIETY"


class OriginNotOnVariety(Refusal):
    code = "ORIGIN_NOT_ON_VARIETY"


class IrrationalPoint(Refusal):
    code = "IRRATIONAL_POINT"


class OrderTooLow(Refusal):
    code = "ORDER_TOO_LOW"


class NoPolynomialFit(Refusal):
    code = "NO_POLYNOMIAL_FIT"
