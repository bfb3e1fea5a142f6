"""Exception types raised across the package.

Domain and precondition violations derive from :class:`DomainError`
(a ``ValueError``), so callers can catch the whole family at once.
Internal self-check failures derive from :class:`InternalCheckError`
(a ``RuntimeError``): they signal a bug, never bad input.
"""


class DomainError(ValueError):
    """Input violates a documented precondition or domain restriction."""


class NonSquareError(DomainError):
    """Matrix is not square."""


class NonHermitianError(DomainError):
    """Matrix deviates from Hermitian symmetry beyond tolerance."""


class DimensionMismatchError(DomainError):
    """Dimensions of the supplied objects are incompatible."""


class NotPSDError(DomainError):
    """Matrix has an eigenvalue below the allowed negative tolerance."""


class InvalidDimensionError(DomainError):
    """Dimension argument outside the supported range."""


class UndefinedForDim2Error(DomainError):
    """Operation carries a 1/(D-2) factor and is singular at D = 2."""


class PolarizationOutOfRangeError(DomainError):
    """Polarization p outside the positivity range [-1/(D-1), 1]."""


class NonUnitVectorError(DomainError):
    """State vector norm differs from 1 beyond tolerance."""


class NotDPSError(DomainError):
    """State failed the depolarized-pure-state membership test."""


class AmbiguousAtPZeroError(DomainError):
    """At p = 0 every pure state is a valid purification; the request is ill-posed."""


class SubsystemOrderError(DomainError):
    """Operation requires subsystem dimensions ordered dA <= dB."""


class InvalidSchmidtVectorError(DomainError):
    """Schmidt coefficients are negative or not normalized to sum of squares 1."""


class FOutOfRangeError(DomainError):
    """Fidelity-like parameter f outside [0, 1]."""


class NotTracePreservingError(DomainError):
    """Kraus operators do not sum to the identity under K^dag K."""


class UnsupportedDimensionError(DomainError):
    """Requested dimension not supported by this operation."""


class InconsistentMomentsError(DomainError):
    """No polarization in the allowed range reproduces the given moments."""


class IndeterminateSignCountError(DomainError):
    """A matrix has an eigenvalue too close to zero to count as positive or not."""


class InternalCheckError(RuntimeError):
    """A mathematical self-check failed; indicates an implementation bug."""


class InequalityViolationError(InternalCheckError):
    """A distance-measure inequality chain failed beyond tolerance."""
