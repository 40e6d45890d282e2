"""Numerical laboratory for half-Laplacian decay estimates and blow-up bounds."""

from .grid import GridSpec
from .profiles import RadialProfile, bracket, bracket_profile, gaussian_profile
from .pv import (
    PVResult,
    QuadratureError,
    frac_laplacian_pv,
    normalization_constant,
    sphere_measure,
    weight_mass,
)
from .spectral import frac_laplacian_spectral
from .evolution import (
    ProblemParams,
    TrajectoryRecord,
    UnresolvedFieldError,
    evolve,
    weighted_functional,
)
from .blowup import (
    BlowupConstants,
    InitialDataSpec,
    adapted_radius,
    compute_constants,
    lifespan_bound,
    make_initial_data,
)
from .lemma import (
    LemmaVerdict,
    fit_decay,
    sample_frac_weight,
    verify_gaussian_remark,
    verify_lemma,
)
from .sweep import SweepPlan, SweepResult, fit_power_law, run_sweep

__version__ = "0.1.0"
