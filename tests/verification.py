"""Verification helpers that the tests share and the CLI never runs."""
import math

import numpy as np

from fracblow.evolution import (ProblemParams, _half_step_phase, _initial_sup,
                                _require_positive, _require_resolved, _step)
from fracblow.grid import Field, GridSpec

#: dilation discrepancies compared per scaling check
SCALING_CHECKPOINTS = 8


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
