"""Exception hierarchy.

Exceptions are reserved for malformed inputs and broken preconditions.
Negative answers to well-posed questions (non-realizable coefficients,
infeasible matrices, metrics that are not line metrics) are returned as
structured results, never raised: negativity is the answer, not an error.
"""

from __future__ import annotations


class TaildepError(Exception):
    """Base class for all errors raised by this package."""


class SizeLimitError(TaildepError):
    """Dimension exceeds the configured 2**p size guard."""


class InvalidBeta(TaildepError):
    """A coefficient array tagged BETA contains a negative entry."""


class InvalidTdMatrix(TaildepError):
    """Matrix violates the tail-dependence matrix invariants."""


class MalformedMatrix(TaildepError):
    """Matrix is not symmetric / nonnegative / zero-diagonal as required."""


class MalformedInput(TaildepError):
    """Decider input cannot be an instance of the stated problem."""


class DomainError(TaildepError):
    """Numeric argument outside its domain (e.g. nonpositive threshold)."""


class DegenerateModel(TaildepError):
    """Operation requires a model with at least one positive coefficient."""


class ScaleTooSmall(TaildepError):
    """Tensor scale below the sharp admissible bound."""


class InvalidPmf(TaildepError):
    """Probability mass function has negative mass or does not sum to 1."""


class NotInCutCone(TaildepError):
    """Semimetric is not a nonnegative combination of cut semimetrics."""


class DegenerateReduction(TaildepError):
    """The all-zero matrix admits no normalized reduction instance."""


class CertificateRejected(TaildepError):
    """A feasibility witness or infeasibility certificate failed verification."""


class UnboundedObjective(TaildepError):
    """Linear objective unbounded over the feasible region."""


class InternalError(TaildepError):
    """An internal invariant failed: a bug in this package, not bad input."""
