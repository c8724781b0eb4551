"""Exception types shared across the package."""


class FluidchainError(Exception):
    """Base class for all package errors."""


class ModelError(FluidchainError):
    """Invalid constitutive law or preset parameters."""


class QuadratureError(FluidchainError):
    """A derived function has no trustworthy value: the density lies beyond
    the reach of its quadrature table or the value overflows, or the table
    fails its half-panel certificate because the law is not smooth."""


class DomainError(FluidchainError):
    """Particle state left the admissible open set (ordering violated or
    non-finite entries)."""


class AdmissibilityError(FluidchainError):
    """The energy budget is negative, or the energy envelope does not
    reach it within the tables' reach; names the failing side ('high' or
    'low') of the latter."""

    def __init__(self, message, side=None):
        super().__init__(message)
        self.side = side


class StiffnessError(FluidchainError):
    """Adaptive step size underflowed; the viscous coupling is too stiff
    for the explicit pair at this particle count."""


class InitialDataError(FluidchainError):
    """Initial density/velocity profile violates its constraints; names the
    part at fault when there is one: a profile ('rho0' or 'v0') for its
    values, 'rho0.x' / 'v0.x' for its table positions, or 'v0.mode'."""

    def __init__(self, message, part=None):
        super().__init__(message)
        self.part = part


class ConfigError(FluidchainError):
    """Configuration file is invalid; carries the path to the offending field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field
