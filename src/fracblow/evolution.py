"""Split-step time integration of the half-wave equation with power source.

The evolution is i u_t + Op u = lam |u|^p with Op the half-Laplacian, so
u_t = i Op u - i lam |u|^p.  Each step is a Strang composition: half a
linear step (exact Fourier multiplier exp(i t |xi|)), a full nonlinear
step (explicit midpoint on the pointwise ODE), and another half linear
step.  ``strang_step`` is the one stepping kernel: it builds the half-step
phase once per grid and step size, and hands each output's spectrum to
the next step, so a chain of steps costs 3 FFTs a step.  Blow-up is
detected from the sup norm, with step halving near the singularity; the
last accepted time is the numerical blow-up time.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .grid import Field, GridSpec
from .profiles import WeightProfile
from .reporting import write_csv
from .spectral import apply_multiplier

__all__ = [
    "ProblemParams",
    "EvolutionConfig",
    "TrajectoryRecord",
    "UnresolvedFieldError",
    "linear_propagator",
    "nonlinear_step",
    "strang_step",
    "spectral_tail_fraction",
    "evolve",
    "scaling_check",
]

#: largest share of spectral l2 mass allowed in the top band of the initial data
TAIL_FRACTION_LIMIT = 1e-3
#: a step whose sup grows past this factor is retried at half the step size ...
GROWTH_CAP = 4.0
#: ... at most this many times in a row before the run is flagged as blown up
MAX_HALVINGS = 10


@dataclass(frozen=True)
class ProblemParams:
    """Equation data: dimension, nonlinearity power, coefficients.

    ``alpha`` is the pairing coefficient of the weighted functional; the
    default conj(lam)/|lam| makes Re(alpha*lam) = |lam| > 0 automatically.
    lam = 0 degenerates to the free flow and is admitted for integrator
    testing only; the blow-up machinery rejects it at its own gate.
    """

    n: int
    p: float
    lam: complex
    alpha: complex | None = None

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if not self.p > 1.0:
            raise ValueError(f"nonlinearity power must exceed 1, got {self.p}")
        if self.alpha is None:
            default = self.lam.conjugate() / abs(self.lam) if self.lam != 0 else 1.0
            object.__setattr__(self, "alpha", default)

    @property
    def p_conj(self) -> float:
        """Holder conjugate p/(p-1)."""
        return self.p / (self.p - 1.0)

    @property
    def re_alpha_lam(self) -> float:
        return (self.alpha * self.lam).real


@dataclass(frozen=True)
class EvolutionConfig:
    grid: GridSpec
    dt: float
    t_max: float
    blowup_threshold: float

    def __post_init__(self):
        if self.dt <= 0 or self.t_max <= 0:
            raise ValueError("dt and t_max must be positive")
        if self.blowup_threshold <= 0:
            raise ValueError("blow-up threshold must be positive")


@dataclass
class TrajectoryRecord:
    """Time series of the weighted functional and norms for one run."""

    times: np.ndarray
    m_r: np.ndarray
    sup_norm: np.ndarray
    l2_norm: np.ndarray
    blew_up: bool
    t_num: float | None
    final: Field | None = field(default=None, repr=False)

    def to_csv(self, path: str | Path) -> Path:
        return write_csv(path, ["t", "m_r", "sup_norm", "l2_norm"],
                         zip(self.times, self.m_r, self.sup_norm, self.l2_norm))


class UnresolvedFieldError(RuntimeError):
    """The initial data puts too much spectral mass near the grid Nyquist."""


def linear_propagator(f: Field, t: float) -> Field:
    """Exact free flow over duration t: multiplier exp(i t |xi|), unitary."""
    if t == 0.0:
        return f.copy()
    return apply_multiplier(f, np.exp(1j * t * f.grid.abs_freq()))


def _midpoint_source(u: np.ndarray, dt: float, params: ProblemParams) -> np.ndarray:
    """Explicit midpoint for i u_t = lam |u|^p over dt, overwriting u."""
    mag = np.abs(u)
    mag **= params.p
    mid = np.multiply(0.5j * dt * params.lam, mag)
    np.subtract(u, mid, out=mid)
    np.abs(mid, out=mag)
    mag **= params.p
    np.multiply(1j * dt * params.lam, mag, out=mid)
    u -= mid
    return u


def nonlinear_step(f: Field, dt: float, params: ProblemParams) -> Field:
    """Pointwise source ODE i u_t = lam |u|^p over dt, explicit midpoint.

    |u|^p is the continuous extension with 0 at u = 0 (p > 1 keeps the
    source differentiable there), so the update is second order.
    """
    return Field(f.grid, _midpoint_source(f.values.copy(), dt, params))


@functools.lru_cache(maxsize=2)
def _half_step_phase(grid: GridSpec, dt: float) -> np.ndarray:
    """exp(i dt/2 |xi|), the multiplier of a linear half step (read-only)."""
    phase = np.exp(1j * (0.5 * dt) * grid.abs_freq())
    phase.setflags(write=False)
    return phase


def strang_step(f: Field, dt: float, params: ProblemParams) -> Field:
    """Linear half step, nonlinear full step, linear half step.

    The output carries its spectrum; the input's DFT is taken only when it
    carries none, so a chain of steps costs 3 FFTs a step.
    """
    phase = _half_step_phase(f.grid, dt)
    spec = np.fft.fftn(f.values) if f.spectrum is None else f.spectrum
    u = np.fft.ifftn(phase * spec)
    _midpoint_source(u, dt, params)
    spec = np.fft.fftn(u)
    spec *= phase
    values = np.fft.ifftn(spec)
    # read-only, so an in-place edit cannot leave the spectrum stale
    values.setflags(write=False)
    spec.setflags(write=False)
    return Field(f.grid, values, spectrum=spec)


def spectral_tail_fraction(f: Field, band: float = 0.85) -> float:
    """Fraction of spectral l2 mass carried by modes with |xi| >= band * max."""
    spec = np.abs(np.fft.fftn(f.values)) ** 2
    absxi = f.grid.abs_freq()
    total = float(spec.sum())
    if total == 0.0:
        return 0.0
    return float(spec[absxi >= band * absxi.max()].sum() / total)


def weighted_functional_values(f: Field, alpha: complex, weight_values: np.ndarray) -> float:
    """-Im(alpha * lattice integral of u * weight)."""
    acc = complex(np.sum(f.values * weight_values)) * f.grid.cell_volume
    return -(alpha * acc).imag


def evolve(u0: Field, params: ProblemParams, config: EvolutionConfig,
           weight: WeightProfile) -> TrajectoryRecord:
    """March the split-step scheme, recording the weighted functional.

    Halts at t_max, or flags blow-up when the sup norm crosses the
    configured threshold; violent steps (non-finite values or sup growth
    beyond ``GROWTH_CAP``) are retried with halved dt until ``MAX_HALVINGS``
    halvings run out, at which point the last accepted time is reported as
    the numerical blow-up time.
    """
    if u0.grid != config.grid:
        raise ValueError("initial data grid differs from the configured grid")
    tail = spectral_tail_fraction(u0)
    if tail > TAIL_FRACTION_LIMIT:
        raise UnresolvedFieldError(
            f"grid too coarse: {tail:.2e} of the spectral mass sits in the top band "
            f"(limit {TAIL_FRACTION_LIMIT:.1e}); refine N or enlarge L")
    sup0 = u0.sup_norm()
    if sup0 > 0 and config.blowup_threshold <= 10.0 * sup0:
        raise ValueError("blow-up threshold must exceed 10x the initial sup norm")

    w_values = weight.on_grid(config.grid)
    u = u0.copy()
    t = 0.0
    dt = config.dt
    dt_floor = config.dt / 2**MAX_HALVINGS
    blew_up = False
    t_num = None

    times, m_r, sups, l2s = [0.0], [weighted_functional_values(u, params.alpha, w_values)], \
        [sup0], [u0.l2_norm()]
    sup = sup0
    while t < config.t_max:
        dt_step = min(dt, config.t_max - t)
        trial = strang_step(u, dt_step, params)
        trial_sup = trial.sup_norm()
        # non-finite values make the sup NaN or infinite, failing this test too
        if not trial_sup <= GROWTH_CAP * max(sup, 1e-300):
            if dt * 0.5 < dt_floor:
                blew_up = True
                t_num = t
                break
            dt *= 0.5
            continue
        u, sup = trial, trial_sup
        t += dt_step
        times.append(t)
        m_r.append(weighted_functional_values(u, params.alpha, w_values))
        sups.append(sup)
        l2s.append(u.l2_norm())
        if sup >= config.blowup_threshold:
            blew_up = True
            t_num = t
            break

    return TrajectoryRecord(times=np.array(times), m_r=np.array(m_r),
                            sup_norm=np.array(sups), l2_norm=np.array(l2s),
                            blew_up=blew_up, t_num=t_num, final=u)


def scaling_check(u0_fn, params: ProblemParams, config: EvolutionConfig,
                  rho: float, n_checkpoints: int = 8) -> float:
    """Max relative l2 discrepancy of the dilation symmetry over a run.

    A solution u(t, x) maps to rho^(1/(p-1)) u(rho t, rho x) on the grid
    (L/rho, N).  Both runs use the same dt (matched steps per unit time
    would be exactly equivariant and test nothing), so the discrepancy
    measures the integrator error and shrinks at second order.
    ``u0_fn`` receives the coordinate arrays and returns initial values.
    """
    if rho <= 0:
        raise ValueError("scale factor must be positive")
    grid1 = config.grid
    amp = rho ** (1.0 / (params.p - 1.0))
    u1 = Field.from_function(grid1, u0_fn)
    grid2 = GridSpec(grid1.n, grid1.L / rho, grid1.N)
    v1 = u1
    v2 = Field(grid2, amp * u1.values)  # rho^(1/(p-1)) u0(rho x) on the shrunk grid
    for f in (v1, v2):
        tail = spectral_tail_fraction(f)
        if tail > TAIL_FRACTION_LIMIT:
            raise UnresolvedFieldError(f"scaling run unresolved: tail fraction {tail:.2e}")

    steps2_total = int(round(config.t_max / config.dt / rho))
    stride2 = max(1, steps2_total // n_checkpoints)
    stride1 = rho * stride2
    if abs(stride1 - round(stride1)) > 1e-9:
        raise ValueError("rho * checkpoint stride must be an integer number of steps")
    stride1 = int(round(stride1))

    worst = 0.0
    for _ in range(steps2_total // stride2):
        for _ in range(stride2):
            v2 = strang_step(v2, config.dt, params)
        for _ in range(stride1):
            v1 = strang_step(v1, config.dt, params)
        mapped = amp * v1.values  # rho^(1/(p-1)) u(rho t, rho x) on grid2 sites
        denom = float(np.linalg.norm(mapped))
        if denom == 0.0:
            continue
        worst = max(worst, float(np.linalg.norm(v2.values - mapped)) / denom)
    return worst
