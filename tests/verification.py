"""Verification helpers that the tests share and the CLI never runs."""
import json
import math
from pathlib import Path

import numpy as np

from fracblow.blowup import BlowupConstants
from fracblow.evolution import (ProblemParams, _EvenPart, _half_step_factors, _initial_sup,
                                _midpoint_source, _require_positive, _require_resolved,
                                _step, _test_weight, _turn)
from fracblow.grid import GridSpec
from fracblow.spectral import frac_laplacian_spectral

#: dilation discrepancies compared per scaling check
SCALING_CHECKPOINTS = 8


def coords(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Meshgrid coordinate arrays, one per axis, each of lattice shape."""
    ax = grid.axis()
    if grid.n == 1:
        return (ax,)
    return tuple(np.meshgrid(ax, ax, indexing="ij"))


def sample(grid: GridSpec, fn) -> np.ndarray:
    """fn(*coords) at every lattice site, as complex samples."""
    return np.asarray(fn(*coords(grid)), dtype=np.complex128)


def even_part(grid: GridSpec, profile) -> np.ndarray:
    """profile(|x|) at the sites of the lattice's even part, as complex samples."""
    return np.asarray(profile(_EvenPart(grid).radii()), dtype=np.complex128)


def even_idft(part: _EvenPart, spec: np.ndarray) -> np.ndarray:
    """The inverse of ``part.dft``, by the bit-exact transform of the part:
    the reference against which the step's folded inverse is checked."""
    return part._even(spec / part.scale, np.fft.ifft)


def unfold(u: np.ndarray) -> np.ndarray:
    """The whole lattice's samples of data even about N/2, from their even part.

    Entry j of the even part is site N/2 + j (mod N), and site i of an axis
    equals its mirror image N/2 + |i - N/2|, so it reads entry |i - N/2|.
    ``unfold(even_part(grid, f))`` is f(|x|) on the lattice bit for bit, as
    the lattice's radii are mirror images to the bit.
    """
    h = u.shape[0] - 1
    entry = np.abs(np.arange(2 * h) - h)
    return u[np.ix_(*(entry,) * u.ndim)]


def zeros(grid: GridSpec) -> np.ndarray:
    """The zero field on the grid's lattice."""
    return np.zeros(grid.shape, dtype=np.complex128)


def sup_norm(u: np.ndarray) -> float:
    """max |u| over the samples."""
    return float(np.max(np.abs(u)))


def l2_norm(grid: GridSpec, u: np.ndarray) -> float:
    """Lattice L2 norm, sqrt(sum |v|^2 dx^n), by direct summation."""
    return float(np.sqrt(np.sum(np.abs(u) ** 2) * grid.cell_volume))


def lattice_functional(u: np.ndarray, grid: GridSpec, alpha: complex, R: float) -> float:
    """M_R(u) of samples at every lattice site, by direct summation.

    The reference for ``weighted_functional``, which sums an even part with
    multiplicities, and the reading of data that are not even.
    """
    acc = complex(np.sum(u * _test_weight(grid, R))) * grid.cell_volume
    return -(alpha * acc).imag


def linear_propagator(u: np.ndarray, grid: GridSpec, t: float) -> np.ndarray:
    """Exact free flow over duration t: multiplier exp(i t |xi|), unitary."""
    if t == 0.0:
        return u.copy()
    return np.fft.ifftn(np.exp(1j * t * grid.abs_freq()) * np.fft.fftn(u))


def nonlinear_step(u: np.ndarray, dt: float, params: ProblemParams) -> np.ndarray:
    """Pointwise source ODE i u_t = lam |u|^p over dt, explicit midpoint.

    |u|^p is the continuous extension with 0 at u = 0 (p > 1 keeps the
    source differentiable there), so the update is second order.  The
    source runs in the stepper's frame, on u turned by conj(turn) (see
    ``fracblow.evolution._turn``), and the result is turned back.
    """
    turn = _turn(params.lam)
    u = u * turn.conjugate()
    _midpoint_source(u, dt, params)
    u *= turn
    return u


def half_step_factors(grid: GridSpec, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """``_step``'s two half-step factors on the full lattice of ``grid``."""
    return _half_step_factors(grid.abs_freq(), dt, grid.N ** grid.n)


def strang_step(u: np.ndarray, grid: GridSpec, dt: float, params: ProblemParams) -> np.ndarray:
    """One Strang step of lattice samples: ``_step`` between two DFTs.

    The kernel steps the state turned by conj(turn), as ``evolve`` does.
    """
    turn = _turn(params.lam)
    spec, _ = _step(np.fft.fftn(u) * turn.conjugate(), half_step_factors(grid, dt), dt, params)
    return np.fft.ifftn(spec * turn)


def scaling_check(u0: np.ndarray, grid1: GridSpec, params: ProblemParams, dt: float,
                  t_max: float, rho: float) -> float:
    """Max relative l2 discrepancy of the dilation symmetry over a run.

    A solution u(t, x) maps to rho^(1/(p-1)) u(rho t, rho x) on the grid
    (L/rho, N).  Both runs use the same dt (matched steps per unit time
    would be exactly equivariant and test nothing), so the discrepancy
    measures the integrator error and shrinks at second order.  Both runs
    carry spectra through ``_step``, turned by conj(turn) as in ``evolve``;
    the grids share N, so by Parseval the spectra's relative l2 discrepancy
    is the samples', turned or not.  A non-finite one raises
    ``FloatingPointError``.
    """
    _require_positive(dt=dt, t_max=t_max, rho=rho)
    steps2_total = int(round(t_max / dt / rho))
    if steps2_total == 0:
        raise ValueError(f"t_max = {t_max!r} holds no step of the dilated run "
                         f"(dt * rho = {dt * rho!r}): nothing would be compared")
    amp = rho ** (1.0 / (params.p - 1.0))
    grid2 = GridSpec(grid1.n, grid1.L / rho, grid1.N)
    spec1 = np.fft.fftn(u0)
    # the dilated copy's DFT is amp * spec1: the same tail
    _require_resolved(spec1, grid1.abs_freq())
    _initial_sup(u0)  # zero data would leave every discrepancy 0/0
    spec1 *= _turn(params.lam).conjugate()  # the stepper's frame
    spec2 = amp * spec1  # rho^(1/(p-1)) u0(rho x) on the shrunk grid
    factors1, factors2 = half_step_factors(grid1, dt), half_step_factors(grid2, dt)

    stride2 = max(1, steps2_total // SCALING_CHECKPOINTS)
    stride1 = rho * stride2
    if abs(stride1 - round(stride1)) > 1e-9:
        raise ValueError("rho * checkpoint stride must be an integer number of steps")
    stride1 = int(round(stride1))

    worst = 0.0
    for k in range(1, steps2_total // stride2 + 1):
        for _ in range(stride2):
            spec2, _ = _step(spec2, factors2, dt, params)
        for _ in range(stride1):
            spec1, _ = _step(spec1, factors1, dt, params)
        mapped = amp * spec1  # rho^(1/(p-1)) u(rho t, rho x) on grid2 sites
        d = float(np.linalg.norm(spec2 - mapped) / np.linalg.norm(mapped))
        if not math.isfinite(d):
            raise FloatingPointError(f"scaling discrepancy {d} at checkpoint {k}, "
                                     f"t = {k * stride1 * dt:g}")
        worst = max(worst, d)
    return worst


def boundary_max(phi: np.ndarray) -> float:
    """Largest |value| on the outermost lattice ring."""
    v = np.abs(phi)
    if v.ndim == 1:
        return float(max(v[0], v[-1]))
    return float(max(v[0, :].max(), v[-1, :].max(), v[:, 0].max(), v[:, -1].max()))


def cordoba_violation(grid: GridSpec, phi: np.ndarray) -> float:
    """Worst-case pointwise excess of Op(phi^2) over 2*phi*Op(phi).

    The pointwise product inequality predicts a nonpositive result up to
    discretization error.  ``phi`` must be real-valued and decay below
    1e-8 of its sup at the boundary ring, else the periodic evaluation is
    meaningless and a ValueError is raised.
    """
    if np.max(np.abs(phi.imag)) > 1e-12 * max(sup_norm(phi), 1e-300):
        raise ValueError("field must be real-valued")
    sup = sup_norm(phi)
    if sup > 0 and boundary_max(phi) > 1e-8 * sup:
        raise ValueError("field does not decay to 1e-8 of its sup at the boundary")
    v = phi.real
    lhs = frac_laplacian_spectral(grid, (v * v).astype(np.complex128)).real
    rhs = 2.0 * v * frac_laplacian_spectral(grid, v + 0j).real
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


def load_field(basepath) -> tuple[GridSpec, np.ndarray]:
    """The lattice and samples that ``fracblow.reporting.save_field`` wrote at basepath."""
    base = Path(basepath)
    meta = json.loads(base.with_suffix(".json").read_text())
    g = meta["grid"]
    values = np.load(base.with_suffix(".npy"))
    return GridSpec(n=g["n"], L=g["L"], N=g["N"]), values
