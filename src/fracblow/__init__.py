"""Numerical laboratory for half-Laplacian decay estimates and blow-up bounds."""

from .grid import Field, GridSpec
from .profiles import RadialProfile, bracket, bracket_profile, constant_profile, gaussian_profile
from .pv import (
    PVQuadratureConfig,
    PVResult,
    QuadratureError,
    frac_laplacian_pv,
    frac_laplacian_pv_many,
    normalization_constant,
    sphere_measure,
)
from .spectral import apply_multiplier, cordoba_violation, frac_laplacian_spectral
from .evolution import (
    ProblemParams,
    TrajectoryRecord,
    UnresolvedFieldError,
    evolve,
    linear_propagator,
    nonlinear_step,
    scaling_check,
    strang_step,
)
from .blowup import (
    BlowupConstants,
    InitialDataSpec,
    LifespanReport,
    RadiusReport,
    adapted_radius,
    compute_constants,
    lifespan_bound,
    make_initial_data,
    ode_lower_envelope,
    weight_mass,
    weighted_functional,
)
from .lemma import (
    DecayFitResult,
    LemmaVerdict,
    fit_decay,
    sample_frac_weight,
    verify_gaussian_remark,
    verify_lemma,
)
from .sweep import SweepPlan, SweepResult, fit_power_law, run_sweep

__version__ = "0.1.0"
