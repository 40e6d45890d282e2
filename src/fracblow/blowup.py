"""Explicit blow-up constants, initial data families, and lifespan bounds.

The chain: a bound A on the weight's half-Laplacian feeds the threshold
constant C and the ODE rate D.  For the weight w = <x>^(-n-1),
sup |op w / w| = n in closed form and A is ``A_MARGIN`` times n, so the
constants are a closed-form function of the problem alone.  Initial data
whose weighted functional M_R(0) exceeds C R^(n - 1/(p-1)) cannot support
a solution past

    T = (p-1)^(-1) D^(-1) R^(n(p-1)) (M_R(0) - C R^(n-1/(p-1)))^(-(p-1)),

and along the way M_R(t) - C R^(n-1/(p-1)) dominates an explicit blowing-up
envelope.  Two scaled data families (an inner power singularity and an
outer power tail) come with closed-form radii R* whose induced bound is an
exact power law in the amplitude mu.  ``adapted_radius`` is the one route
to R*; the verdict at R* is ``lifespan_bound`` of the lattice M_R(0).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec
from .evolution import ProblemParams, _EvenPart, _require_radius
from .pv import sphere_measure, weight_mass

__all__ = [
    "BlowupConstants",
    "InitialDataSpec",
    "compute_constants",
    "lifespan_bound",
    "make_initial_data",
    "adapted_radius",
]


#: A = A_MARGIN * n.  n is the proven sup of |op w / w|, reached at r = 0:
#: the Poisson extension gives (-Delta)^(1/2) w = (n - |x|^2) <x>^(-n-3)
#: (Kwasnicki, FCAA 2017), so the bound holds with no margin at all.  The
#: margin is kept only so that C, D and every R* stay within 1e-7 of the
#: values of the former sampled chain (1.2 times the sampled sup), against
#: which fracbench's fixed sweep amplitudes were chosen; it drops to 1 once
#: those inputs no longer sit on a regime edge (ROADMAP item 1).
A_MARGIN = 1.2


@dataclass(frozen=True)
class BlowupConstants:
    """Everything the lifespan formulas need.

    ``n`` and ``p`` are the equation's: every formula downstream of the
    constants (threshold, lifespan, adapted radius) reads them from here.
    """

    n: int
    p: float
    c_threshold: float
    d_rate: float

    def __post_init__(self):
        for name in ("c_threshold", "d_rate"):
            if not getattr(self, name) > 0:
                raise ValueError(f"constant {name} must be positive")

    @property
    def a_bound(self) -> float:  # |op weight| <= a_bound * weight
        return A_MARGIN * self.n

    def threshold(self, R: float) -> float:
        """C * R^(n - 1/(p-1))."""
        return self.c_threshold * R ** (self.n - 1.0 / (self.p - 1.0))


def compute_constants(params: ProblemParams) -> BlowupConstants:
    """Threshold constant C and ODE rate D, from the weight bound A = ``A_MARGIN`` * n.

    Requires Re(alpha * lam) > 0; anything else cannot drive the weighted
    functional upward and is rejected.
    """
    ral = params.re_alpha_lam
    if ral <= 0:
        raise ValueError(
            f"need Re(alpha*lam) > 0, got {ral:.3g} "
            f"(alpha={params.alpha}, lam={params.lam})")
    p, pc = params.p, params.p_conj
    w_mass = weight_mass(params.n).value
    aa = abs(params.alpha)
    c_pow_p = (2.0 ** (1.0 + pc / p) * p ** (-pc / p) / pc
               * ral ** (-pc) * aa ** (p + pc) * (A_MARGIN * params.n) ** pc * w_mass ** p)
    c_threshold = c_pow_p ** (1.0 / p)
    d_rate = 0.5 * ral * aa ** (-p) * w_mass ** (-(p - 1.0))
    return BlowupConstants(n=params.n, p=p, c_threshold=c_threshold, d_rate=d_rate)


def _lifespan(constants: BlowupConstants, R: float, gap: float) -> float:
    """T = (p-1)^(-1) D^(-1) R^(n(p-1)) gap^(-(p-1)), for a gap M_R(0) - C R^(n-1/(p-1)) > 0."""
    p = constants.p
    return (constants.d_rate ** -1.0 / (p - 1.0)
            * R ** (constants.n * (p - 1.0)) * gap ** (-(p - 1.0)))


def lifespan_bound(m0: float, constants: BlowupConstants, R: float) -> float:
    """The bound T from M_R(0) at radius R, or inf ('no conclusion') below the threshold."""
    _require_radius(R)
    if not math.isfinite(m0):
        raise ValueError(f"M_R(0) must be finite, got {m0!r}")
    gap = m0 - constants.threshold(R)
    return math.inf if gap <= 0 else _lifespan(constants, R, gap)


# ---------------------------------------------------------------------------
# initial data families
# ---------------------------------------------------------------------------

#: width of the smooth continuation outside the unit ball (inner-singular)
#: and of the collar the outer-decay ramp crosses inside it
RAMP_WIDTH = 0.5

#: every data family ``InitialDataSpec`` accepts
DATA_KINDS = ("integrable", "inner-singular", "outer-decay")


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
        if self.kind not in DATA_KINDS:
            raise ValueError(f"unknown data kind {self.kind!r}")
        if not 0.0 < self.mu < math.inf:
            raise ValueError(f"amplitude mu must be finite and positive, got {self.mu}")
        if self.kind != "integrable" and self.k <= 0:
            raise ValueError("singular and tail families need k > 0")
        if self.cap_radius is not None and not 0.0 < self.cap_radius < math.inf:
            raise ValueError(f"cap_radius must be finite and positive, got {self.cap_radius}")


def _check_k(spec: InitialDataSpec, n: int, p: float | None = None):
    """The family's k against n/2, then against 1/(p-1) when p is given."""
    if spec.kind == "inner-singular" and not spec.k < 0.5 * n:
        raise ValueError(f"inner-singular needs k < n/2: k={spec.k}, n/2={0.5 * n}")
    if spec.kind == "outer-decay" and not spec.k > 0.5 * n:
        raise ValueError(f"outer-decay needs k > n/2: k={spec.k}, n/2={0.5 * n}")
    if p is not None and spec.kind != "integrable" and not spec.k < 1.0 / (p - 1.0):
        raise ValueError(f"{spec.kind} needs k < 1/(p-1): k={spec.k}, 1/(p-1)={1.0 / (p - 1.0)}")


def data_profile(spec: InitialDataSpec, grid: GridSpec) -> np.ndarray:
    """The real nonnegative profile -Im(alpha * f) on the lattice's even part."""
    r = _EvenPart(grid).radii()
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


def make_initial_data(spec: InitialDataSpec, grid: GridSpec, alpha: complex) -> np.ndarray:
    """mu * f with -Im(alpha f) equal to the family profile and Re(alpha f) = 0.

    The phase factor is -i conj(alpha)/|alpha|^2: then alpha * f = -i * profile,
    whose imaginary part is -profile, giving -Im(alpha f) = +profile.  The
    data are radial: the array holds the (N/2+1,) * n sites of the lattice's
    even part (see ``evolution._EvenPart``).
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    _check_k(spec, grid.n)
    phase = -1j * np.conjugate(alpha) / abs(alpha) ** 2
    return spec.mu * phase * data_profile(spec, grid)


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


def family_exponent(kind: str, k: float, n: int, p: float) -> float:
    """1/(p-1) - k', with k' = k (inner) or min(n, k) (outer): R* ~ mu^(-1/this)."""
    kk = k if kind == "inner-singular" else min(float(n), k)
    return 1.0 / (p - 1.0) - kk


def adapted_radius(spec: InitialDataSpec, constants: BlowupConstants) -> tuple[float, float]:
    """Closed-form adapted radius R* and formula bound T, for the n and p of ``constants``.

    R* solves mu*I/2 = C R^(k' - 1/(p-1)) with I = ``family_i_const``; the
    formula bound T uses the family lower bound for M and is an exact power
    law in mu.  R* does not depend on the inner cap, and no lattice data is
    built: the verdict at R* is ``lifespan_bound`` of the data's M_R(0).
    """
    n = constants.n
    _check_k(spec, n, constants.p)
    i_const = family_i_const(spec, n)
    expo = family_exponent(spec.kind, spec.k, n, constants.p)  # > 0, as k' <= k < 1/(p-1)
    r_star = (spec.mu * i_const / (2.0 * constants.c_threshold)) ** (-1.0 / expo)

    growth = n - spec.k if spec.kind == "inner-singular" else max(n - spec.k, 0.0)
    # family lower bound for the gap: M - C R^(n-1/(p-1)) >= R^growth * mu I/2
    gap_formula = r_star ** growth * spec.mu * i_const / 2.0
    return r_star, _lifespan(constants, r_star, gap_formula)

