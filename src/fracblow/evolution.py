"""Split-step time integration of the half-wave equation with power source.

The evolution is i u_t + Op u = lam |u|^p with Op the half-Laplacian, so
u_t = i Op u - i lam |u|^p.  Each step is a Strang composition: half a
linear step (exact Fourier multiplier exp(i t |xi|)), a full nonlinear
step (explicit midpoint on the pointwise ODE), and another half linear
step.  ``_step`` is the one stepping kernel: it maps a spectrum to the next
step's spectrum and the sup norm of its post-source stage, with the
half-step phase built once per grid and step size.  ``evolve`` carries
that (spectrum, sup) pair through its loop, so a run costs 2 FFTs a step,
and reads each step without leaving the spectrum: ``M_R`` as a pairing
with the weight's DFT, and the L2 norm by Parseval.  ``strang_step`` is
the same kernel between sampled fields, for fixed-step runs.  Blow-up is
detected from the sup norm, with step halving near the singularity; the
last accepted time is the numerical blow-up time.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .grid import Field, GridSpec
from .profiles import bracket
from .reporting import write_csv
from .spectral import apply_multiplier

__all__ = [
    "ProblemParams",
    "TrajectoryRecord",
    "UnresolvedFieldError",
    "linear_propagator",
    "nonlinear_step",
    "strang_step",
    "spectral_tail_fraction",
    "weighted_functional",
    "evolve",
    "scaling_check",
]

#: largest share of spectral l2 mass allowed in the top band of the initial data
TAIL_FRACTION_LIMIT = 1e-3
#: a step whose sup grows past this factor is retried at half the step size ...
GROWTH_CAP = 4.0
#: ... at most this many times in the whole run (dt never grows back) before
#: the run is flagged as blown up
MAX_HALVINGS = 10
#: ``evolve`` flags blow-up once sup|u| reaches this many times sup|u0|
THRESHOLD_FACTOR = 25.0
#: modes with |xi| at or above this share of the largest |xi| form the top band
TAIL_BAND = 0.85
#: dilation discrepancies compared per scaling check
SCALING_CHECKPOINTS = 8


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
        if not 1.0 < self.p < math.inf:
            raise ValueError(f"nonlinearity power must be finite and exceed 1, got {self.p}")
        if not (cmath.isfinite(self.lam) and cmath.isfinite(self.alpha or 0)):
            raise ValueError(f"lambda and alpha must be finite, got {self.lam} and {self.alpha}")
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


@dataclass
class TrajectoryRecord:
    """Time series of the weighted functional and norms for one run."""

    times: np.ndarray
    m_r: np.ndarray
    sup_norm: np.ndarray
    l2_norm: np.ndarray
    t_num: float | None
    grid: GridSpec
    final_spectrum: np.ndarray = field(repr=False)  # DFT of the last accepted state

    @property
    def final(self) -> Field:  # the last accepted state, else u0 to roundoff
        return Field(self.grid, np.fft.ifftn(self.final_spectrum))

    @property
    def threshold(self) -> float:  # the sup norm at which the run is flagged
        return THRESHOLD_FACTOR * self.sup_norm[0]

    @property
    def blew_up(self) -> bool:
        return self.t_num is not None

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
    """exp(i dt/2 |xi|), the multiplier of a linear half step (read-only).

    Two entries, because ``scaling_check`` alternates two grids; ``evolve``
    empties the cache when it ends.
    """
    phase = np.exp(1j * (0.5 * dt) * grid.abs_freq())
    phase.setflags(write=False)
    return phase


def _step(spec: np.ndarray, phase: np.ndarray, dt: float,
          params: ProblemParams) -> tuple[np.ndarray, float]:
    """Linear half step, nonlinear full step, linear half step, on a spectrum.

    Returns the output's spectrum and the sup norm of the post-source
    stage, half a linear step before the output.  ``spec`` is not written,
    so a rejected step is retried from it.
    """
    u = np.fft.ifftn(phase * spec)
    _midpoint_source(u, dt, params)
    stage_sup = float(np.max(np.abs(u)))
    spec = np.fft.fftn(u)
    spec *= phase
    return spec, stage_sup


def strang_step(f: Field, dt: float, params: ProblemParams) -> Field:
    """One Strang step of a sampled field: ``_step`` between two DFTs."""
    spec, _ = _step(np.fft.fftn(f.values), _half_step_phase(f.grid, dt), dt, params)
    return Field(f.grid, np.fft.ifftn(spec))


def spectral_tail_fraction(spectrum: np.ndarray, grid: GridSpec) -> float:
    """Fraction of spectral l2 mass carried by modes with |xi| >= TAIL_BAND * max."""
    spec = np.abs(spectrum) ** 2
    absxi = grid.abs_freq()
    total = float(spec.sum())
    if total == 0.0:
        return 0.0
    return float(spec[absxi >= TAIL_BAND * absxi.max()].sum() / total)


def _test_weight(grid: GridSpec, R: float) -> np.ndarray:
    """The test weight <x/R>^(-n-1) at every lattice site."""
    if not R > 0:
        raise ValueError(f"weight radius must be positive, got {R}")
    return bracket(grid.radii() / R) ** -(grid.n + 1)


def weighted_functional(u: Field, alpha: complex, R: float) -> float:
    """M_R(u) = -Im(alpha * integral of u against <x/R>^(-n-1)), by lattice quadrature."""
    acc = complex(np.sum(u.values * _test_weight(u.grid, R))) * u.grid.cell_volume
    return -(alpha * acc).imag


def _spectral_readings(spec: np.ndarray, grid: GridSpec, alpha: complex,
                       w_hat: np.ndarray) -> tuple[float, float]:
    """(M_R, L2 norm) of the state with DFT ``spec``, by Parseval.

    ``w_hat`` is the test weight's DFT times dx^n / N^n, real and contiguous.
    """
    # real and imaginary parts side by side, so that w_hat needs no complex copy
    re, im = w_hat.ravel() @ spec.view(np.float64).reshape(-1, 2)
    l2_sq = np.vdot(spec, spec).real * grid.cell_volume / spec.size
    return -(alpha * complex(re, im)).imag, math.sqrt(l2_sq)


def _require_resolved(spec: np.ndarray, grid: GridSpec) -> None:
    """Refuse data whose spectral tail exceeds ``TAIL_FRACTION_LIMIT``."""
    tail = spectral_tail_fraction(spec, grid)
    if tail > TAIL_FRACTION_LIMIT:
        raise UnresolvedFieldError(
            f"grid too coarse: {tail:.2e} of the spectral mass sits in the top band "
            f"(limit {TAIL_FRACTION_LIMIT:.1e}); refine N or enlarge L")


def _require_positive(**values: float) -> None:
    # written so that NaN fails: a NaN dt would be halved forever
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _initial_sup(u0: Field) -> float:
    """sup|u0|, refused unless finite and positive: zero data sets no scale."""
    sup0 = u0.sup_norm()
    if not 0.0 < sup0 < math.inf:
        raise ValueError(f"initial sup norm must be finite and positive, got {sup0!r}")
    return sup0


def evolve(u0: Field, params: ProblemParams, dt: float, t_max: float,
           weight_radius: float) -> TrajectoryRecord:
    """March the split-step scheme from step size dt, recording M_R(t) at R = weight_radius.

    Halts at t_max, or flags blow-up once the sup norm reaches
    ``THRESHOLD_FACTOR * sup|u0|``.  A step's sup norm is that of its
    post-source stage, half a linear step before the step's end; M_R and
    the L2 norm are read from the step's spectrum.  Violent steps
    (non-finite values or sup growth beyond ``GROWTH_CAP``) are retried
    with halved dt, which then holds for the rest of the run; once
    ``MAX_HALVINGS`` halvings in all are spent, the last accepted time is
    reported as the numerical blow-up time.
    """
    _require_positive(dt=dt, t_max=t_max)
    grid = u0.grid
    # one DFT of u0 serves the resolution check, M_R(0) and the first step
    spec = np.fft.fftn(u0.values)
    _require_resolved(spec, grid)
    sup0 = _initial_sup(u0)
    threshold = THRESHOLD_FACTOR * sup0

    # the weight is even on the lattice, so its DFT is real; a real copy
    # lets the complex transform go
    w_hat = np.fft.fftn(_test_weight(grid, weight_radius)).real.copy()
    w_hat *= grid.cell_volume / w_hat.size
    t = 0.0
    dt_floor = dt / 2**MAX_HALVINGS
    t_num = None

    m0, l2_0 = _spectral_readings(spec, grid, params.alpha, w_hat)
    times, m_r, sups, l2s = [0.0], [m0], [sup0], [l2_0]
    sup = sup0
    try:
        while t < t_max:
            dt_step = min(dt, t_max - t)
            trial, trial_sup = _step(spec, _half_step_phase(grid, dt_step), dt_step, params)
            # a non-finite stage makes its sup NaN or infinite, failing this test too
            if not trial_sup <= GROWTH_CAP * max(sup, 1e-300):
                if dt * 0.5 < dt_floor:
                    t_num = t
                    break
                dt *= 0.5
                continue
            spec, sup = trial, trial_sup
            t += dt_step
            m, l2 = _spectral_readings(spec, grid, params.alpha, w_hat)
            times.append(t)
            m_r.append(m)
            sups.append(sup)
            l2s.append(l2)
            if sup >= threshold:
                t_num = t
                break
    finally:
        # kept, a run's phases would outlive it as dead lattice-sized arrays
        _half_step_phase.cache_clear()

    return TrajectoryRecord(times=np.array(times), m_r=np.array(m_r),
                            sup_norm=np.array(sups), l2_norm=np.array(l2s),
                            t_num=t_num, grid=grid, final_spectrum=spec)


def scaling_check(u0: Field, params: ProblemParams, dt: float, t_max: float,
                  rho: float) -> float:
    """Max relative l2 discrepancy of the dilation symmetry over a run.

    A solution u(t, x) maps to rho^(1/(p-1)) u(rho t, rho x) on the grid
    (L/rho, N).  Both runs use the same dt (matched steps per unit time
    would be exactly equivariant and test nothing), so the discrepancy
    measures the integrator error and shrinks at second order.
    """
    _require_positive(dt=dt, t_max=t_max, rho=rho)
    steps2_total = int(round(t_max / dt / rho))
    if steps2_total == 0:
        raise ValueError(f"t_max = {t_max!r} holds no step of the dilated run "
                         f"(dt * rho = {dt * rho!r}): nothing would be compared")
    grid1 = u0.grid
    amp = rho ** (1.0 / (params.p - 1.0))
    grid2 = GridSpec(grid1.n, grid1.L / rho, grid1.N)
    # the dilated copy has the same DFT up to the factor amp, so the same tail
    _require_resolved(np.fft.fftn(u0.values), grid1)
    _initial_sup(u0)  # zero data would leave every discrepancy 0/0
    v1 = u0
    v2 = Field(grid2, amp * u0.values)  # rho^(1/(p-1)) u0(rho x) on the shrunk grid

    stride2 = max(1, steps2_total // SCALING_CHECKPOINTS)
    stride1 = rho * stride2
    if abs(stride1 - round(stride1)) > 1e-9:
        raise ValueError("rho * checkpoint stride must be an integer number of steps")
    stride1 = int(round(stride1))

    worst = 0.0
    for _ in range(steps2_total // stride2):
        for _ in range(stride2):
            v2 = strang_step(v2, dt, params)
        for _ in range(stride1):
            v1 = strang_step(v1, dt, params)
        mapped = amp * v1.values  # rho^(1/(p-1)) u(rho t, rho x) on grid2 sites
        worst = max(worst, float(np.linalg.norm(v2.values - mapped) / np.linalg.norm(mapped)))
    return worst
