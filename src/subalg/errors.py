"""Exceptions shared across the package."""


class SubalgError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(SubalgError):
    """Two objects over a different number of variables were combined."""


class PolyParseError(SubalgError):
    """Syntax error in a polynomial string.  Carries the offset of the bad token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ZeroLeadingTerm(SubalgError):
    """The zero polynomial has no leading term."""


class InvalidDirection(SubalgError):
    """A directional derivative needs a nonzero direction vector."""


class DegenerateCondition(SubalgError):
    """A character difference needs two distinct points."""


class NotAProperCondition(SubalgError):
    """The functional vanishes on every generator of the algebra it should cut."""


class InvalidFiltration(SubalgError):
    """A condition fails the Leibniz rule on its level.

    ``level`` is the 1-based index of the offending condition.
    """

    def __init__(self, level: int, reason: str):
        super().__init__(f"condition {level}: {reason}")
        self.level = level
        self.reason = reason


class RedundantCondition(InvalidFiltration):
    """A condition vanishes identically on its level."""


class InvariantError(SubalgError):
    """An internal invariant failed: a bug in the library, not bad input."""


class JetSpaceTooLarge(SubalgError):
    """A jet space would have too many coordinates to build in reasonable time."""


class ContainmentTooLarge(SubalgError):
    """A containment sweep would cover too many elements to test in reasonable time."""


class QnSpecTooLarge(SubalgError):
    """A point-set spec would have too many conditions to build in reasonable time."""


class CompletionDidNotStabilize(SubalgError):
    """Completing a generator list into a basis hit its iteration guard."""
