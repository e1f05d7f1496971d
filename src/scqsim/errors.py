"""Exception types raised by the simulation and control layers."""


class SimulationError(Exception):
    """Base class for all scqsim errors."""


class DimensionMismatchError(SimulationError):
    """Operands have incompatible shapes."""


class NumericError(SimulationError):
    """Non-finite entries or a numerically meaningless result."""


class DomainError(SimulationError):
    """Parameter outside its physical domain."""


class DegenerateBisectorError(SimulationError):
    """Initial and final Bloch vectors are antipodal; bisector undefined."""


class UnreachableAxisError(SimulationError):
    """Requested rotation axis cannot be realized by the drive inversion."""


class IntegrationError(SimulationError):
    """Time integration became unstable; reduce the step size."""


class ConfigError(SimulationError):
    """Run configuration file is malformed."""
