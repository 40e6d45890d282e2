"""Explicit blow-up constants, initial data families, and lifespan bounds.

The chain: a certified bound A on the weight's half-Laplacian feeds the
threshold constant C and the ODE rate D; initial data whose weighted
functional M_R(0) exceeds C R^(n - 1/(p-1)) cannot support a solution past

    T = (p-1)^(-1) D^(-1) R^(n(p-1)) (M_R(0) - C R^(n-1/(p-1)))^(-(p-1)),

and along the way M_R(t) - C R^(n-1/(p-1)) dominates an explicit blowing-up
envelope.  Two scaled data families (an inner power singularity and an
outer power tail) come with closed-form radii R* whose induced bound is an
exact power law in the amplitude mu.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import Field, GridSpec
from .evolution import ProblemParams, weighted_functional_values
from .profiles import WeightProfile
from .pv import PVResult, sphere_measure

__all__ = [
    "BlowupConstants",
    "InitialDataSpec",
    "LifespanReport",
    "RadiusReport",
    "weight_mass",
    "compute_constants",
    "weighted_functional",
    "lifespan_bound",
    "ode_lower_envelope",
    "make_initial_data",
    "adapted_radius",
    "blowup_radius",
]


def weight_mass(n: int) -> PVResult:
    """Integral of <x>^(-n-1) over the whole space: pi (n=1) or 2 pi (n=2).

    Closed form; the error is a roundoff allowance.
    """
    if n not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    val = n * math.pi
    return PVResult(val, 64.0 * np.finfo(float).eps * abs(val))


@dataclass(frozen=True)
class BlowupConstants:
    """Everything the lifespan formulas need, with provenance of A."""

    n: int
    p: float
    sphere: float          # surface measure of the unit sphere
    w_mass: float          # integral of <x>^(-n-1)
    w_mass_error: float
    a_bound: float         # certified |op weight| <= a_bound * weight constant
    c_threshold: float
    d_rate: float
    a_source: str = ""

    def __post_init__(self):
        for name in ("sphere", "w_mass", "a_bound", "c_threshold", "d_rate"):
            if not getattr(self, name) > 0:
                raise ValueError(f"constant {name} must be positive")

    def threshold(self, R: float) -> float:
        """C * R^(n - 1/(p-1))."""
        return self.c_threshold * R ** (self.n - 1.0 / (self.p - 1.0))


def compute_constants(params: ProblemParams, a_bound: float,
                      a_source: str = "") -> BlowupConstants:
    """Threshold constant C and ODE rate D from the certified weight bound A.

    Requires Re(alpha * lam) > 0; anything else cannot drive the weighted
    functional upward and is rejected.
    """
    if a_bound <= 0:
        raise ValueError("weight derivative bound A must be positive")
    ral = params.re_alpha_lam
    if ral <= 0:
        raise ValueError(
            f"need Re(alpha*lam) > 0, got {ral:.3g} "
            f"(alpha={params.alpha}, lam={params.lam})")
    p, pc = params.p, params.p_conj
    wm = weight_mass(params.n)
    aa = abs(params.alpha)
    c_pow_p = (2.0 ** (1.0 + pc / p) * p ** (-pc / p) / pc
               * ral ** (-pc) * aa ** (p + pc) * a_bound ** pc * wm.value ** p)
    c_threshold = c_pow_p ** (1.0 / p)
    d_rate = 0.5 * ral * aa ** (-p) * wm.value ** (-(p - 1.0))
    return BlowupConstants(n=params.n, p=p, sphere=sphere_measure(params.n),
                           w_mass=wm.value, w_mass_error=wm.error,
                           a_bound=a_bound, c_threshold=c_threshold,
                           d_rate=d_rate, a_source=a_source)


def weighted_functional(u: Field, alpha: complex, weight: WeightProfile) -> float:
    """-Im(alpha * integral of u against the weight), by lattice quadrature."""
    if abs(weight.q - (u.grid.n + 1)) > 1e-12:
        raise ValueError(f"weight exponent must equal n+1={u.grid.n + 1}, got {weight.q}")
    return weighted_functional_values(u, alpha, weight.on_grid(u.grid))


@dataclass(frozen=True)
class LifespanReport:
    """Threshold verdict and induced bound at one weight radius."""

    R: float
    m0: float
    condition_holds: bool
    t_bound: float                 # inf when the condition fails

    def __post_init__(self):
        if self.condition_holds != math.isfinite(self.t_bound):
            raise ValueError("t_bound must be finite exactly when the condition holds")


def _lifespan(constants: BlowupConstants, p: float, R: float, gap: float) -> float:
    """T = (p-1)^(-1) D^(-1) R^(n(p-1)) gap^(-(p-1)), for a gap M_R(0) - C R^(n-1/(p-1)) > 0."""
    return (constants.d_rate ** -1.0 / (p - 1.0)
            * R ** (constants.n * (p - 1.0)) * gap ** (-(p - 1.0)))


def lifespan_bound(m0: float, constants: BlowupConstants, R: float,
                   params: ProblemParams) -> LifespanReport:
    """Check M_R(0) against the threshold; return the bound or 'no conclusion'."""
    if R <= 0:
        raise ValueError("weight radius must be positive")
    gap = m0 - constants.threshold(R)
    if gap <= 0:
        return LifespanReport(R=R, m0=m0, condition_holds=False, t_bound=math.inf)
    return LifespanReport(R=R, m0=m0, condition_holds=True,
                          t_bound=_lifespan(constants, params.p, R, gap))


def ode_lower_envelope(m0: float, constants: BlowupConstants, R: float,
                       params: ProblemParams, times) -> np.ndarray:
    """Guaranteed lower envelope of M_R(t) - C R^(n-1/(p-1)) along solutions.

    Strictly increasing on [0, T) and infinite from the bound time on.
    """
    gap0 = m0 - constants.threshold(R)
    if gap0 <= 0:
        raise ValueError("envelope needs the threshold condition at t = 0")
    p = params.p
    t = np.asarray(times, dtype=float)
    bracket_term = gap0 ** (-(p - 1.0)) - (p - 1.0) * constants.d_rate \
        * R ** (-constants.n * (p - 1.0)) * t
    out = np.full(t.shape, math.inf)
    pos = bracket_term > 0
    out[pos] = bracket_term[pos] ** (-1.0 / (p - 1.0))
    return out


# ---------------------------------------------------------------------------
# initial data families
# ---------------------------------------------------------------------------

#: width of the smooth continuation outside the unit ball (inner-singular)
#: and of the collar the outer-decay ramp crosses inside it
RAMP_WIDTH = 0.5


@dataclass(frozen=True)
class InitialDataSpec:
    """Data family: amplitude mu times a fixed profile with phase locked.

    kinds: "integrable" (a positive bump), "inner-singular" (|x|^(-k) on
    the unit ball, capped near the origin), "outer-decay" (|x|^(-k) outside
    the unit ball, smooth ramp inside).  The phase is chosen so that
    -Im(alpha * f) equals the profile and Re(alpha * f) = 0.
    ``cap_radius`` overrides the default grid-scale cap dx/2 of the inner
    singularity; scaled-family sweeps pass a cap proportional to R* so the
    capped family stays self-similar.
    """

    kind: str
    mu: float
    k: float = 0.0
    cap_radius: float | None = None

    def __post_init__(self):
        if self.kind not in ("integrable", "inner-singular", "outer-decay"):
            raise ValueError(f"unknown data kind {self.kind!r}")
        if self.mu <= 0:
            raise ValueError("amplitude mu must be positive")
        if self.kind != "integrable" and self.k <= 0:
            raise ValueError("singular and tail families need k > 0")
        if self.cap_radius is not None and self.cap_radius <= 0:
            raise ValueError("cap radius must be positive when given")


def _check_k_against_dimension(spec: InitialDataSpec, n: int):
    if spec.kind == "inner-singular" and not spec.k < 0.5 * n:
        raise ValueError(f"inner-singular needs k < n/2: k={spec.k}, n/2={0.5 * n}")
    if spec.kind == "outer-decay" and not spec.k > 0.5 * n:
        raise ValueError(f"outer-decay needs k > n/2: k={spec.k}, n/2={0.5 * n}")


def _check_k_against_p(spec: InitialDataSpec, params: ProblemParams):
    lim = 1.0 / (params.p - 1.0)
    if spec.kind != "integrable" and not spec.k < lim:
        raise ValueError(f"{spec.kind} needs k < 1/(p-1): k={spec.k}, 1/(p-1)={lim}")


def data_profile(spec: InitialDataSpec, grid: GridSpec) -> np.ndarray:
    """The real nonnegative profile -Im(alpha * f) on the lattice."""
    r = grid.radii()
    if spec.kind == "integrable":
        return np.exp(-np.square(r))
    if spec.kind == "inner-singular":
        h = spec.cap_radius if spec.cap_radius is not None else 0.5 * grid.dx
        core = np.maximum(r, h) ** (-spec.k)
        # nonnegative smooth continuation outside the unit ball (the family
        # constraint there is one-sided)
        outside = np.exp(-(r - 1.0) / RAMP_WIDTH)
        return np.where(r <= 1.0, core, outside)
    # outer-decay: zero well inside, cubic ramp to the tail across the collar
    ramp = np.clip((r - (1.0 - RAMP_WIDTH)) / RAMP_WIDTH, 0.0, 1.0)
    ramp = ramp * ramp * (3.0 - 2.0 * ramp)
    return ramp * np.maximum(r, 1.0) ** (-spec.k)


def make_initial_data(spec: InitialDataSpec, grid: GridSpec, alpha: complex) -> Field:
    """mu * f with -Im(alpha f) equal to the family profile and Re(alpha f) = 0.

    The phase factor is -i conj(alpha)/|alpha|^2: then alpha * f = -i * profile,
    whose imaginary part is -profile, giving -Im(alpha f) = +profile.
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    _check_k_against_dimension(spec, grid.n)
    phase = -1j * np.conjugate(alpha) / abs(alpha) ** 2
    return Field(grid, spec.mu * phase * data_profile(spec, grid))


@dataclass(frozen=True)
class RadiusReport:
    """Adapted weight radius and induced bound for a scaled data family.

    ``adapted_radius`` fills in the closed-form fields; ``blowup_radius``
    adds the threshold verdict from the lattice data as ``report``.
    """

    kind: str
    mu: float
    r_star: float
    i_const: float
    t_bound_formula: float      # exact power law in mu by construction
    regime_ok: bool             # R1 < 1 (inner) or R2 > 10 (outer)
    in_regime_strict: bool      # R1 < 0.5 or R2 > 20 (sweep-fit inclusion)
    boundary: str
    report: LifespanReport | None = None   # threshold verdict with the lattice M_R(0)

    @property
    def conclusive(self) -> bool:
        """False without a lattice verdict (``adapted_radius`` output)."""
        return self.regime_ok and self.report is not None and self.report.condition_holds


def family_i_const(spec: InitialDataSpec, n: int) -> float:
    """Overlap constant of the family against the scaled weight."""
    omega = sphere_measure(n)
    if spec.kind == "inner-singular":
        return omega / ((n - spec.k) * 2.0 ** (n + 1))
    if spec.kind == "outer-decay":
        if spec.k < n:
            return omega / ((n - spec.k) * 2.0 ** (n + 2))
        # integral of r^(n-k-1) over [1, 2]
        if abs(spec.k - n) < 1e-12:
            integral = math.log(2.0)
        else:
            integral = (2.0 ** (n - spec.k) - 1.0) / (n - spec.k)
        return omega * integral / 2.0 ** (n + 1)
    raise ValueError("no adapted radius for this data kind")


def family_exponent(kind: str, k: float, params: ProblemParams) -> float:
    """1/(p-1) - k', with k' = k (inner) or min(n, k) (outer): R* ~ mu^(-1/this)."""
    kk = k if kind == "inner-singular" else min(float(params.n), k)
    return 1.0 / (params.p - 1.0) - kk


def adapted_radius(spec: InitialDataSpec, constants: BlowupConstants,
                   params: ProblemParams) -> RadiusReport:
    """Closed-form adapted radius R*, overlap constant and formula bound.

    R* solves mu*I/2 = C R^(k' - 1/(p-1)); the formula bound uses the family
    lower bound for M and is an exact power law in mu.  R* does not depend
    on the inner cap.  No lattice data is built: ``report`` stays None.
    """
    _check_k_against_dimension(spec, params.n)
    _check_k_against_p(spec, params)
    n, p = params.n, params.p
    i_const = family_i_const(spec, n)
    expo = family_exponent(spec.kind, spec.k, params)  # > 0, as k' <= k < 1/(p-1)
    r_star = (spec.mu * i_const / (2.0 * constants.c_threshold)) ** (-1.0 / expo)

    if spec.kind == "inner-singular":
        regime_ok, strict = r_star < 1.0, r_star < 0.5
        boundary = f"R*={r_star:.4g} (regime needs R* < 1, strict < 0.5)"
        growth = n - spec.k
    else:
        regime_ok, strict = r_star > 10.0, r_star > 20.0
        boundary = f"R*={r_star:.4g} (regime needs R* > 10, strict > 20)"
        growth = max(n - spec.k, 0.0)

    # family lower bound for the gap: M - C R^(n-1/(p-1)) >= R^growth * mu I/2
    gap_formula = r_star ** growth * spec.mu * i_const / 2.0
    t_formula = _lifespan(constants, p, r_star, gap_formula)
    return RadiusReport(kind=spec.kind, mu=spec.mu, r_star=r_star, i_const=i_const,
                        t_bound_formula=t_formula, regime_ok=regime_ok,
                        in_regime_strict=strict, boundary=boundary)


def blowup_radius(spec: InitialDataSpec, constants: BlowupConstants,
                  params: ProblemParams, data: Field) -> RadiusReport:
    """The adapted radius, with the threshold verdict from the lattice data.

    ``data`` is the family member the caller built with
    ``make_initial_data(spec, grid, params.alpha)``; its weighted functional
    at R* is M_R(0).  Amplitudes outside the scaling regime give an
    inconclusive report carrying the regime boundary.
    """
    rr = adapted_radius(spec, constants, params)
    m0 = weighted_functional(data, params.alpha, WeightProfile(q=params.n + 1, R=rr.r_star))
    return replace(rr, report=lifespan_bound(m0, constants, rr.r_star, params))
