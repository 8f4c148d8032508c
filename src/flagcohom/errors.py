"""Exception types shared across the package."""


class FlagCohomError(Exception):
    """Base class for all errors raised by flagcohom."""


class RingMismatchError(FlagCohomError):
    """Operands belong to different coefficient rings or series shapes."""


class SpecializationError(FlagCohomError):
    """A generator appearing in a polynomial has no assigned value."""


class IntegralityError(FlagCohomError):
    """A value contractually required to be integral came out fractional."""


class NotInImageError(FlagCohomError):
    """A polynomial is not expressible in the requested generator family."""


class DivisionError(FlagCohomError):
    """Exact series division has no solution in some homogeneous degree."""


class AssociativityError(FlagCohomError):
    """A candidate formal group law fails associativity.

    Carries the first failing coefficient position as ``self.position``.
    """

    def __init__(self, position, message=None):
        self.position = position
        super().__init__(message or f"associativity fails at coefficient {position}")


class InsufficientPrecisionError(FlagCohomError):
    """An operation needs more valid degrees than the operand carries.

    The CLI builds every law at a truncation worked out from its input, so
    this signals a library call made with too small a truncation.
    """


class DegreeValidityError(AssertionError):
    """A coefficient above the certified valid degree was read.

    This is a programming error in the caller, never a data condition.
    """
