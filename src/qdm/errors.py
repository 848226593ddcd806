"""Exception types shared across the package."""


class QdmError(Exception):
    """Base class for all package errors."""


class BasisMismatchError(QdmError):
    """Operands are defined on incompatible bases."""


class PositivityError(QdmError):
    """A density matrix is not Hermitian, unit trace and positive within tolerance."""


class EmptySubspaceError(QdmError):
    """The projected subspace carries (numerically) no population."""


class QuadratureError(QdmError):
    """A numerical quadrature failed to reach the requested accuracy."""


class DegenerateBasisError(QdmError):
    """The dressed-basis construction is ill defined for these inputs."""


class DegenerateSteadyStateError(QdmError):
    """The Liouvillian null space is not one dimensional."""


class ConvergenceTimeoutError(QdmError):
    """The state did not reach the steady state within the time budget."""


class DomainError(QdmError):
    """An argument is outside the mathematical domain of the operation."""


class ConfigError(QdmError, ValueError):
    """A scenario configuration or parameter record violates the schema or its
    invariants (also a `ValueError`, as for any rejected argument value)."""
