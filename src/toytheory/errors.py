"""Exception hierarchy for the toy theory simulator."""


class ToyTheoryError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(ToyTheoryError):
    """Vectors, subspaces or spaces of incompatible dimension or field."""


class NotPrimeError(ToyTheoryError):
    """Discrete dimension d must be prime; composite d is rejected outright."""


class NotIsotropic(ToyTheoryError):
    """A generating set violates classical complementarity (non-commuting pair)."""


class NotSymplectic(ToyTheoryError):
    """A matrix fails U^T J U = J and cannot act as reversible dynamics."""


class ImpossibleOutcome(ToyTheoryError):
    """State update requested for an outcome of probability zero."""


class EnumerationCapExceeded(ToyTheoryError):
    """An explicit enumeration was refused: its p^(2n) points exceed the
    configured cap, or its field is rational (`ContinuousNotEnumerable`).
    The CLI exits 3 on either."""


class ContinuousNotEnumerable(EnumerationCapExceeded):
    """An operation that enumerates or samples was given a rational field,
    whose points and outcomes are infinite; `phase_space._require_prime`
    is its one raiser."""


class NotPointMass(ToyTheoryError):
    """Rational-field probability is neither forced to 0 nor to 1."""


class SearchSpaceExceeded(ToyTheoryError):
    """A group/candidate search is larger than the configured limit."""


class InvariantViolation(ToyTheoryError):
    """A result the theory guarantees failed to hold: a bug, not bad input."""
