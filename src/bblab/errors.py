"""Exception types shared across the package."""

from contextlib import contextmanager


class BBLabError(Exception):
    pass


class DimensionMismatch(BBLabError):
    pass


class TooLarge(BBLabError):
    pass


class DimensionTooLarge(TooLarge):
    pass


class TooLargeForExplicit(TooLarge):
    pass


class SpecViolation(BBLabError):
    pass


class InvalidPermutation(SpecViolation):
    pass


class IndexOutOfRange(SpecViolation):
    pass


class NonCanonicalMap(BBLabError):
    pass


class IllegalDisjunction(BBLabError):
    pass


class EmptyList(BBLabError):
    pass


class PointNotInP(BBLabError):
    pass


class PointInHull(BBLabError):
    pass


class PIsFeasible(BBLabError):
    pass


class PIsEmpty(BBLabError):
    pass


class PNotInfeasible(BBLabError):
    pass


class InequalityValidForP(BBLabError):
    pass


class InequalityInvalidForHull(BBLabError):
    pass


class PreconditionViolated(BBLabError):
    pass


class StrategyStuck(BBLabError):
    pass


class InternalError(BBLabError):
    """A self-check inside the exact kernel failed; indicates a bug, not bad input."""


class MalformedInput(BBLabError):
    """A field of an input file has the wrong shape or type; names the field."""


@contextmanager
def json_field(path):
    """Report a malformed value read inside the block as MalformedInput at ``path``."""
    try:
        yield
    except KeyError as exc:
        raise MalformedInput(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
        raise MalformedInput(f"{path}: {exc}") from exc
