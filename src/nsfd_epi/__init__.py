"""Host-parasite epidemic models with dynamics-preserving discretizations.

Continuous two-class models (uninfected/infected hosts with vertical
and horizontal transmission), their equilibria and linear stability,
nonstandard finite difference counterparts that keep trajectories
positive and equilibria stable for every step size, and acceptance
checks that test the dynamic consistency numerically.
"""

from .convergence import ConvergenceSettings, Trajectory, Verdict, VerdictStatus
from .equilibria import (
    Condition,
    Equilibrium,
    EquilibriumKind,
    InteriorCoefficients,
    ReproductionNumbers,
    all_equilibria,
    disease_free_equilibrium,
    interior_coefficients,
    interior_equilibrium,
    reproduction_numbers,
    susceptible_free_equilibrium,
    trivial_equilibrium,
)
from .harness import INITIAL_POINT_PRESETS, SweepResult, first_negative_step, step_size_sweep
from .integrators import euler_kernel, simulate_continuous
from .model import (
    BlowUpError,
    DegenerateQuadraticError,
    DomainError,
    HostParams,
    ModelVariant,
    NotAnEquilibriumError,
    State,
    VariantParameterError,
    Violation,
    field_kernel,
    validate_params,
    vector_field,
)
from .nsfd import denominators, iterate, map_kernel, step
from .stability import (
    Classification,
    JuryConditions,
    Matrix2,
    Regime,
    StabilityReport,
    TheoremPrediction,
    classifications,
    continuous_jacobian,
    eigenvalues2,
    jury_conditions,
    map_weights,
    stability_report,
)

__version__ = "0.1.0"
