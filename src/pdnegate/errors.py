"""Exception types shared across the package."""

__all__ = [
    "SimplexError",
    "LengthError",
    "RangeError",
    "SumError",
    "LengthMismatchError",
    "DomainError",
    "NegatorSyntaxError",
]


class SimplexError(ValueError):
    """A sequence of values failed probability-distribution validation."""


class LengthError(SimplexError):
    """Fewer than two values."""


class RangeError(SimplexError):
    """A probability value lies outside [0, 1]."""


class SumError(SimplexError):
    """Values do not sum to one within the simplex tolerance."""


class LengthMismatchError(SimplexError):
    """Two distributions that must share a length do not."""


class DomainError(ValueError):
    """A parameter lies outside its mathematical domain."""


class NegatorSyntaxError(ValueError):
    """A negator description string could not be parsed."""
