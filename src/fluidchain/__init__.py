"""Structure-preserving particle engine for 1-D viscous compressible flow
between walls, with admissibility checking, weak-form residual validation,
and refinement studies."""

from .dynamics import (DiscreteFunctionals, ParticleState, functionals,
                       spacing_bounds)
from .errors import (AdmissibilityError, ConfigError, DomainError,
                     FluidchainError, InitialDataError, ModelError,
                     QuadratureError, StiffnessError)
from .fields import reconstruct, total_mass
from .initial import (AdmissibilityReport, BudgetConstants, InitialData,
                      admissibility, budget_constants, build_particles,
                      constant_density, make_initial, sine_velocity,
                      table_profile)
from .integrate import (DiagnosticsRecord, IntegratorConfig, SnapshotSeries,
                        simulate)
from .model import FluidModel, GrowthReport

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError", "AdmissibilityReport", "BudgetConstants",
    "ConfigError", "DiagnosticsRecord", "DiscreteFunctionals", "DomainError",
    "FluidModel", "FluidchainError", "GrowthReport", "InitialData",
    "InitialDataError", "IntegratorConfig", "ModelError", "ParticleState",
    "QuadratureError", "SnapshotSeries",
    "StiffnessError", "admissibility",
    "budget_constants", "build_particles", "constant_density",
    "functionals", "make_initial", "reconstruct", "simulate", "sine_velocity",
    "spacing_bounds", "table_profile", "total_mass",
]
