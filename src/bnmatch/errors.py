"""Exception hierarchy.

Every error carries a short ``code`` string naming the violated invariant;
the CLI prints that code so scripts can match on it.
"""
import math


class BnmatchError(ValueError):
    """Base class for all input / invariant violations."""

    code = "Error"

    def __init__(self, message: str = ""):
        super().__init__(f"{self.code}: {message}" if message else self.code)


class OddCountError(BnmatchError):
    code = "OddCount"


class TooFewError(BnmatchError):
    code = "TooFew"


class NotStrictlyConvexError(BnmatchError):
    code = "NotStrictlyConvex"


class DuplicatePointError(BnmatchError):
    code = "DuplicatePoint"


class NotCcwError(BnmatchError):
    code = "NotCcw"


class NonFiniteError(BnmatchError):
    code = "NonFinite"


class NonFiniteValueError(BnmatchError):
    """A bottleneck whose squared length overflows float64."""

    code = "NonFiniteValue"


class UnderflowValueError(BnmatchError):
    """A bottleneck whose squared length underflows float64 to 0."""

    code = "UnderflowValue"


def check_bottleneck(value: float) -> None:
    """Raise the named error for a bottleneck length not finite or 0."""
    if not math.isfinite(value):
        raise NonFiniteValueError("the bottleneck's squared length overflows float64")
    if value == 0.0:
        raise UnderflowValueError("the bottleneck's squared length underflows float64 to 0")


class BadIndexError(BnmatchError):
    code = "BadIndex"


class BadDomainError(BnmatchError):
    code = "BadDomain"


class TooLargeError(BnmatchError):
    code = "TooLarge"


class InvalidMatchingError(BnmatchError):
    code = "InvalidMatching"


class KernelBuildError(RuntimeError):
    """The compiled row kernel could not be built: no C compiler ``cc`` on
    the PATH, a compiler error (the message carries its stderr), or an
    unwritable cache directory."""

    code = "KernelBuild"

    def __init__(self, message: str = ""):
        super().__init__(f"{self.code}: {message}" if message else self.code)
