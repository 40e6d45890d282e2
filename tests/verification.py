"""Verification helpers that the tests share and the CLI never runs."""
import json
import math
from pathlib import Path

import numpy as np

from fracblow.blowup import BlowupConstants
from fracblow.evolution import (ProblemParams, _half_step_phase, _initial_sup,
                                _midpoint_source, _require_positive, _require_resolved,
                                _step)
from fracblow.grid import Field, GridSpec
from fracblow.spectral import frac_laplacian_spectral

#: dilation discrepancies compared per scaling check
SCALING_CHECKPOINTS = 8


def zeros(grid: GridSpec) -> Field:
    """The zero field on the grid's lattice."""
    return Field(grid, np.zeros(grid.shape, dtype=np.complex128))


def l2_norm(f: Field) -> float:
    """Lattice L2 norm, sqrt(sum |v|^2 dx^n), by direct summation."""
    return float(np.sqrt(np.sum(np.abs(f.values) ** 2) * f.grid.cell_volume))


def linear_propagator(f: Field, t: float) -> Field:
    """Exact free flow over duration t: multiplier exp(i t |xi|), unitary."""
    if t == 0.0:
        return Field(f.grid, f.values.copy())
    return Field(f.grid, np.fft.ifftn(np.exp(1j * t * f.grid.abs_freq()) * np.fft.fftn(f.values)))


def nonlinear_step(f: Field, dt: float, params: ProblemParams) -> Field:
    """Pointwise source ODE i u_t = lam |u|^p over dt, explicit midpoint.

    |u|^p is the continuous extension with 0 at u = 0 (p > 1 keeps the
    source differentiable there), so the update is second order.
    """
    return Field(f.grid, _midpoint_source(f.values.copy(), dt, params))


def strang_step(f: Field, dt: float, params: ProblemParams) -> Field:
    """One Strang step of a sampled field: ``_step`` between two DFTs."""
    spec, _ = _step(np.fft.fftn(f.values), _half_step_phase(f.grid, dt), dt, params)
    return Field(f.grid, np.fft.ifftn(spec))


def scaling_check(u0: Field, params: ProblemParams, dt: float, t_max: float,
                  rho: float) -> float:
    """Max relative l2 discrepancy of the dilation symmetry over a run.

    A solution u(t, x) maps to rho^(1/(p-1)) u(rho t, rho x) on the grid
    (L/rho, N).  Both runs use the same dt (matched steps per unit time
    would be exactly equivariant and test nothing), so the discrepancy
    measures the integrator error and shrinks at second order.  Both runs
    carry spectra through ``_step``; the grids share N, so by Parseval the
    spectra's relative l2 discrepancy is the samples'.  A non-finite one
    raises ``FloatingPointError``.
    """
    _require_positive(dt=dt, t_max=t_max, rho=rho)
    steps2_total = int(round(t_max / dt / rho))
    if steps2_total == 0:
        raise ValueError(f"t_max = {t_max!r} holds no step of the dilated run "
                         f"(dt * rho = {dt * rho!r}): nothing would be compared")
    grid1 = u0.grid
    amp = rho ** (1.0 / (params.p - 1.0))
    grid2 = GridSpec(grid1.n, grid1.L / rho, grid1.N)
    spec1 = np.fft.fftn(u0.values)
    _require_resolved(spec1, grid1)  # the dilated copy's DFT is amp * spec1: the same tail
    _initial_sup(u0)  # zero data would leave every discrepancy 0/0
    spec2 = amp * spec1  # rho^(1/(p-1)) u0(rho x) on the shrunk grid
    phase1, phase2 = _half_step_phase(grid1, dt), _half_step_phase(grid2, dt)

    stride2 = max(1, steps2_total // SCALING_CHECKPOINTS)
    stride1 = rho * stride2
    if abs(stride1 - round(stride1)) > 1e-9:
        raise ValueError("rho * checkpoint stride must be an integer number of steps")
    stride1 = int(round(stride1))

    worst = 0.0
    for k in range(1, steps2_total // stride2 + 1):
        for _ in range(stride2):
            spec2, _ = _step(spec2, phase2, dt, params)
        for _ in range(stride1):
            spec1, _ = _step(spec1, phase1, dt, params)
        mapped = amp * spec1  # rho^(1/(p-1)) u(rho t, rho x) on grid2 sites
        d = float(np.linalg.norm(spec2 - mapped) / np.linalg.norm(mapped))
        if not math.isfinite(d):
            raise FloatingPointError(f"scaling discrepancy {d} at checkpoint {k}, "
                                     f"t = {k * stride1 * dt:g}")
        worst = max(worst, d)
    return worst


def boundary_max(phi: Field) -> float:
    """Largest |value| on the outermost lattice ring."""
    v = np.abs(phi.values)
    if phi.grid.n == 1:
        return float(max(v[0], v[-1]))
    return float(max(v[0, :].max(), v[-1, :].max(), v[:, 0].max(), v[:, -1].max()))


def cordoba_violation(phi: Field) -> float:
    """Worst-case pointwise excess of Op(phi^2) over 2*phi*Op(phi).

    The pointwise product inequality predicts a nonpositive result up to
    discretization error.  ``phi`` must be real-valued and decay below
    1e-8 of its sup at the boundary ring, else the periodic evaluation is
    meaningless and a ValueError is raised.
    """
    if np.max(np.abs(phi.values.imag)) > 1e-12 * max(phi.sup_norm(), 1e-300):
        raise ValueError("field must be real-valued")
    sup = phi.sup_norm()
    if sup > 0 and boundary_max(phi) > 1e-8 * sup:
        raise ValueError("field does not decay to 1e-8 of its sup at the boundary")
    v = phi.values.real
    sq = Field(phi.grid, v * v)
    lhs = frac_laplacian_spectral(sq).values.real
    rhs = 2.0 * v * frac_laplacian_spectral(Field(phi.grid, v + 0j)).values.real
    return float(np.max(lhs - rhs))


def ode_lower_envelope(m0: float, constants: BlowupConstants, R: float,
                       times) -> np.ndarray:
    """Guaranteed lower envelope of M_R(t) - C R^(n-1/(p-1)) along solutions.

    Strictly increasing on [0, T) and infinite from the bound time on.
    """
    gap0 = m0 - constants.threshold(R)
    if gap0 <= 0:
        raise ValueError("envelope needs the threshold condition at t = 0")
    p = constants.p
    t = np.asarray(times, dtype=float)
    bracket_term = gap0 ** (-(p - 1.0)) - (p - 1.0) * constants.d_rate \
        * R ** (-constants.n * (p - 1.0)) * t
    out = np.full(t.shape, math.inf)
    pos = bracket_term > 0
    out[pos] = bracket_term[pos] ** (-1.0 / (p - 1.0))
    return out


def load_field(basepath) -> Field:
    """The field that ``fracblow.reporting.save_field`` wrote at basepath."""
    base = Path(basepath)
    meta = json.loads(base.with_suffix(".json").read_text())
    g = meta["grid"]
    values = np.load(base.with_suffix(".npy"))
    return Field(GridSpec(n=g["n"], L=g["L"], N=g["N"]), values)
