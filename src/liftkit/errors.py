"""Exception types shared across the library."""


class LiftkitError(Exception):
    """Base class for all liftkit errors."""


class DomainError(LiftkitError):
    """Evaluation requested outside the open unit disk."""


class DimensionMismatch(LiftkitError):
    """Operands with incompatible shapes."""


class NotAContraction(LiftkitError):
    """Operator norm exceeds 1 beyond the allowed slack."""


class ConstraintViolated(LiftkitError):
    """A Schur parameter does not satisfy its interpolation constraint."""


class NotASolution(LiftkitError):
    """Candidate operator does not solve the interpolation problem."""


class NonFiniteResult(LiftkitError):
    """A computation on finite input overflowed to inf or NaN."""


class SingularResolvent(LiftkitError):
    """A resolvent-type inverse is numerically singular."""


class WNotNormalizedAtZero(LiftkitError):
    """Positive-real normalization factor fails W(0) = I."""


class InconsistentGenerators(LiftkitError):
    """Least-squares extraction from generators left a large residual."""


class DegreeTooSmall(LiftkitError):
    """Truncation degree is insufficient for the requested construction."""


class ConfigError(LiftkitError):
    """Bad run configuration."""
