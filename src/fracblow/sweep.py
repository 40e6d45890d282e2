"""Amplitude sweeps: build data, bound, evolve, fit the lifespan power law."""
from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .blowup import (BlowupConstants, InitialDataSpec, _check_k_against_dimension,
                     _check_k_against_p, adapted_radius, compute_constants, family_exponent,
                     family_i_const, lifespan_bound, make_initial_data, weighted_functional)
from .evolution import THRESHOLD_FACTOR, ProblemParams, UnresolvedFieldError, evolve
from .grid import GridSpec
from .reporting import write_csv, write_manifest

__all__ = ["SweepPlan", "SweepRow", "SweepResult", "fit_power_law", "run_sweep",
           "in_regime_amplitude", "write_sweep_outputs"]


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
        if self.kind not in ("inner-singular", "outer-decay"):
            raise ValueError(f"sweep kind must be a scaled family, got {self.kind!r}")
        family = InitialDataSpec(kind=self.kind, mu=1.0, k=self.k)
        _check_k_against_dimension(family, self.params.n)
        _check_k_against_p(family, self.params.p)
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
    condition_holds: bool = False
    in_regime: bool = False
    failed: bool = False
    note: str = ""

    @property
    def blew_up(self) -> bool:
        return self.t_num is not None


@dataclass
class SweepResult:
    plan: SweepPlan
    rows: list[SweepRow]
    fitted_exponent_num: float | None
    fitted_exponent_bound: float | None
    predicted_exponent: float
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
        rr = adapted_radius(spec, constants)
        if plan.kind == "inner-singular":
            cap = max(CAP_FRACTION * rr.r_star, 0.75 * plan.grid.dx)
            spec = dataclasses.replace(spec, cap_radius=cap)
        u0 = make_initial_data(spec, plan.grid, plan.params.alpha)
        report = lifespan_bound(weighted_functional(u0, plan.params.alpha, rr.r_star),
                                constants, rr.r_star)
        row.r_star = rr.r_star
        row.t_bound = rr.t_bound_formula
        row.t_prop = report.t_bound
        row.m0 = report.m0
        row.condition_holds = report.condition_holds
        row.in_regime = rr.in_regime_strict and report.condition_holds
        if not rr.regime_ok:
            row.note = rr.boundary
            return row
        if rr.r_star < plan.grid.dx:
            # the weight's scale falls between lattice sites: nothing to resolve
            row.in_regime = False
            row.note = f"R*={rr.r_star:.4g} below the grid spacing dx={plan.grid.dx:.4g}"
            return row

        dt = plan.dt_factor / u0.sup_norm() if plan.kind == "inner-singular" else plan.dt_base
        horizon = HORIZON_FACTOR * min(report.t_bound, rr.t_bound_formula)
        rec = evolve(u0, plan.params, dt, horizon, rr.r_star)
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
    return SweepResult(plan=plan, rows=rows, fitted_exponent_num=fit_num,
                       fitted_exponent_bound=fit_bound,
                       predicted_exponent=plan.predicted_exponent,
                       fit_residual_num=resid, warnings=notes)


def write_sweep_outputs(result: SweepResult, out_dir: str | Path,
                        manifest_extra: dict | None = None) -> list[Path]:
    """rows CSV plus a JSON summary; formatting is fixed for reproducibility."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows_path = write_csv(
        out / "sweep_rows.csv",
        ["mu", "r_star", "t_bound", "t_prop", "t_num", "m0",
         "condition_holds", "in_regime", "blew_up", "failed", "note"],
        ([r.mu, r.r_star, r.t_bound, r.t_prop, r.t_num, r.m0, r.condition_holds,
          r.in_regime, r.blew_up, r.failed, r.note] for r in result.rows))
    plan = result.plan
    summary = {
        "family": plan.kind,
        "k": plan.k,
        "plan": {
            "mu_values": list(plan.mu_values),
            "dt_factor": plan.dt_factor,
            "dt_base": plan.dt_base,
            "threshold_factor": THRESHOLD_FACTOR,
            "horizon_factor": HORIZON_FACTOR,
            "cap_fraction": CAP_FRACTION,
        },
        "predicted_exponent": result.predicted_exponent,
        "fitted_exponent_t_num": result.fitted_exponent_num,
        "fitted_exponent_t_bound": result.fitted_exponent_bound,
        "fit_residual": result.fit_residual_num,
        "warnings": result.warnings,
        "rows_csv": rows_path.name,
        **(manifest_extra or {}),
    }
    return [rows_path, write_manifest(out / "sweep_result.json", "sweep", summary)]
