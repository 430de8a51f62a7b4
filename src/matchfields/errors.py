"""Exception types shared across the package."""

__all__ = [
    "ArityTooSmallError",
    "BudgetExceededError",
    "InvalidColumnsError",
    "InvalidSubsetError",
    "MatchfieldsError",
    "NotAGeneratorError",
    "NotDivisibleError",
    "NotLinearQuotientsError",
    "TooLargeError",
    "TooSmallError",
    "UnknownVariableError",
    "ZeroPolynomialError",
]


class MatchfieldsError(Exception):
    """Base class for all errors raised by this package."""


class NotDivisibleError(MatchfieldsError):
    """Exact monomial division requested where the divisor does not divide."""


class ZeroPolynomialError(MatchfieldsError):
    """An operation that needs a leading term was given the zero polynomial."""


class InvalidColumnsError(MatchfieldsError):
    """Minor expansion asked for column indices that are not 1 <= i < j < k <= n."""


class InvalidSubsetError(MatchfieldsError):
    """A column subset is not a set of three distinct indices within [1, n]."""


class TooSmallError(MatchfieldsError):
    """The ambient size n is too small for the requested construction."""


class NotAGeneratorError(MatchfieldsError):
    """A triple was passed where a matching-field generator triple is required."""


class TooLargeError(MatchfieldsError):
    """Input exceeds the built-in size budget for this operation."""


class NotLinearQuotientsError(MatchfieldsError):
    """A Betti computation from a certificate requires a linear certificate."""


class UnknownVariableError(MatchfieldsError):
    """A monomial mentions a variable the map does not know about."""


class BudgetExceededError(MatchfieldsError):
    """A step budget ran out before the computation finished.

    Deliberately distinct from a False verdict: the check did not fail,
    it did not finish.
    """


class ArityTooSmallError(MatchfieldsError):
    """A layer of a 1-graph was requested; layers drop the arity by one."""
