"""Amplitude sweeps: build data, bound, evolve, fit the lifespan power law."""
from __future__ import annotations

import dataclasses
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .blowup import (BlowupConstants, InitialDataSpec, _check_k, adapted_radius,
                     compute_constants, family_exponent, family_i_const, lifespan_bound,
                     make_initial_data)
from .evolution import ProblemParams, UnresolvedFieldError, evolve, weighted_functional
from .grid import GridSpec

__all__ = ["SweepPlan", "SweepRow", "SweepResult", "fit_power_law", "run_sweep",
           "in_regime_amplitude"]


def fit_power_law(pairs) -> tuple[float, float, float]:
    """Least squares of log T against log mu: (exponent, intercept, rms residual).

    Refuses fewer than 4 finite pairs or repeated amplitudes.
    """
    clean = [(m, t) for m, t in pairs if math.isfinite(m) and math.isfinite(t)
             and m > 0 and t > 0]
    if len(clean) < 4:
        raise ValueError(f"power-law fit needs >= 4 finite pairs, got {len(clean)}")
    mu = np.array([c[0] for c in clean])
    if np.unique(mu).size != mu.size:
        raise ValueError("amplitudes must be distinct")
    t = np.array([c[1] for c in clean])
    expo, intercept = np.polyfit(np.log(mu), np.log(t), 1)
    resid = float(np.sqrt(np.mean((np.log(t) - (expo * np.log(mu) + intercept)) ** 2)))
    return float(expo), float(intercept), resid


#: a row is evolved up to this times the smaller of its two bounds
HORIZON_FACTOR = 1.3
#: the inner-singularity cap, in units of the adapted radius R*(mu): the
#: capped family stays self-similar across the sweep (a fixed grid-scale cap
#: would pin the lifespan to the cap scale instead of the amplitude law)
CAP_FRACTION = 0.15
#: family -> (loose, strict) edges on R*: a row is evolved only inside the loose
#: edge and fitted only inside the strict one; inner lies below, outer above
REGIME_EDGES = {"inner-singular": (1.0, 0.5), "outer-decay": (10.0, 20.0)}


@dataclass(frozen=True)
class SweepPlan:
    """One amplitude sweep over a fixed data family.

    dt is chosen per run as dt_factor / sup|u0| for inner data and dt_base
    for outer data.  A family or grid that does not fit the problem is a
    plan error, raised before any row runs.
    """

    params: ProblemParams
    kind: str                         # "inner-singular" | "outer-decay"
    k: float
    mu_values: tuple[float, ...]
    grid: GridSpec
    dt_factor: float = 0.02
    dt_base: float = 0.05

    def __post_init__(self):
        if self.kind not in REGIME_EDGES:
            raise ValueError(f"sweep kind must be a scaled family, got {self.kind!r}")
        _check_k(InitialDataSpec(kind=self.kind, mu=1.0, k=self.k), self.params.n, self.params.p)
        if self.grid.n != self.params.n:
            raise ValueError(f"grid dimension {self.grid.n} differs from n = {self.params.n}")
        # plain floats, so that notes and manifests print them as numbers
        object.__setattr__(self, "mu_values", tuple(float(m) for m in self.mu_values))
        mu = np.array(self.mu_values)
        if mu.size < 1 or not np.all((mu > 0) & (mu < np.inf)) or np.any(np.diff(mu) <= 0):
            raise ValueError(f"mu values must be finite, positive and strictly increasing, "
                             f"got {list(self.mu_values)}")
        for name in ("dt_factor", "dt_base"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if mu.size >= 4 and mu[-1] / mu[0] < 9.999:
            warnings.warn("amplitude range below one decade; exponent fit will be weak")

    @property
    def predicted_exponent(self) -> float:
        return -1.0 / family_exponent(self.kind, self.k, self.params.n, self.params.p)


@dataclass
class SweepRow:
    mu: float
    r_star: float = math.nan
    t_bound: float = math.nan         # closed-form family bound (power law in mu)
    t_prop: float = math.nan          # bound from the lattice functional at R*
    t_num: float | None = None
    m0: float = math.nan
    in_regime: bool = False
    failed: bool = False
    note: str = ""

    @property
    def condition_holds(self) -> bool:
        # NaN (the verdict never ran) counts as not holding
        return math.isfinite(self.t_prop)

    @property
    def blew_up(self) -> bool:
        return self.t_num is not None


@dataclass
class SweepResult:
    rows: list[SweepRow]
    fitted_exponent_num: float | None
    fitted_exponent_bound: float | None
    fit_residual_num: float | None
    warnings: list[str]


def in_regime_amplitude(kind: str, k: float, constants: BlowupConstants,
                        r_target: float) -> float:
    """Amplitude mu at which the adapted radius equals r_target."""
    i_const = family_i_const(InitialDataSpec(kind=kind, mu=1.0, k=k), constants.n)
    expo = family_exponent(kind, k, constants.n, constants.p)
    return 2.0 * constants.c_threshold / i_const * r_target ** (-expo)


#: numerical failures a sweep records on their row; anything else propagates
_ROW_FAILURES = (ValueError, ArithmeticError, UnresolvedFieldError, np.linalg.LinAlgError)


def _run_one(plan: SweepPlan, constants: BlowupConstants, mu: float) -> SweepRow:
    row = SweepRow(mu=mu)
    try:
        spec = InitialDataSpec(kind=plan.kind, mu=mu, k=plan.k)
        r_star, t_bound = adapted_radius(spec, constants)
        if plan.kind == "inner-singular":
            cap = max(CAP_FRACTION * r_star, 0.75 * plan.grid.dx)
            spec = dataclasses.replace(spec, cap_radius=cap)
        u0 = make_initial_data(spec, plan.grid, plan.params.alpha)
        m0 = weighted_functional(u0, plan.grid, plan.params.alpha, r_star)
        t_prop = lifespan_bound(m0, constants, r_star)
        row.r_star, row.t_bound, row.t_prop, row.m0 = r_star, t_bound, t_prop, m0
        loose, strict = REGIME_EDGES[plan.kind]
        sign, inside = ("<", operator.lt) if plan.kind == "inner-singular" else (">", operator.gt)
        row.in_regime = inside(r_star, strict) and row.condition_holds
        if not inside(r_star, loose):
            row.note = (f"R*={r_star:.4g} (regime needs R* {sign} {loose:g}, "
                        f"strict {sign} {strict:g})")
            return row
        if r_star < plan.grid.dx:
            # the weight's scale falls between lattice sites: nothing to resolve
            row.in_regime = False
            row.note = f"R*={r_star:.4g} below the grid spacing dx={plan.grid.dx:.4g}"
            return row

        dt = plan.dt_factor / float(np.max(np.abs(u0))) if plan.kind == "inner-singular" \
            else plan.dt_base
        horizon = HORIZON_FACTOR * min(row.t_prop, t_bound)
        # the row reads only t_num, so evolve builds no weight of its own
        rec = evolve(u0, plan.grid, plan.params, dt, horizon)
        row.t_num = rec.t_num
        if not rec.blew_up:
            row.note = f"no blow-up before horizon {horizon:.4g}"
    except _ROW_FAILURES as exc:  # one numerically bad row must not kill the sweep
        row.failed = True
        row.note = f"{type(exc).__name__}: {exc}"
    return row


def run_sweep(plan: SweepPlan) -> SweepResult:
    """Execute every amplitude, then fit the observed and bound power laws.

    The constants come from ``plan.params``, so R*, the bounds, the
    evolution and the predicted exponent all follow one n and one p.  Rows
    run in order, and a failure is recorded on its row without disturbing
    the others.  Fits use only rows that blew up inside the strict scaling
    regime.
    """
    constants = compute_constants(plan.params)
    notes: list[str] = []
    rows = [_run_one(plan, constants, mu) for mu in plan.mu_values]

    usable = [r for r in rows if r.in_regime and r.blew_up and not r.failed]
    fit_num = fit_bound = resid = None
    if len(usable) >= 4:
        fit_num, _, resid = fit_power_law([(r.mu, r.t_num) for r in usable])
        fit_bound, _, _ = fit_power_law([(r.mu, r.t_bound) for r in usable])
    else:
        notes.append(f"only {len(usable)} usable rows; skipping exponent fits")
    skipped = [r.mu for r in rows if not r.in_regime]
    if skipped:
        notes.append(f"amplitudes outside the strict regime excluded from fits: {skipped}")
    return SweepResult(rows=rows, fitted_exponent_num=fit_num,
                       fitted_exponent_bound=fit_bound, fit_residual_num=resid, warnings=notes)
