"""Command-line harness: constants, frac-apply, verify-lemma, evolve, sweep.

Every subcommand reads a sectioned text config (--config) and writes its
outputs under --out.  Each command's files are put together in its
``_cmd_*`` function through ``reporting``; the modules that compute
return records and write nothing.  Exit codes: 0 success, 1 usage or
configuration error, 2 numerical failure.  Outputs are written only after
the computation finishes, so a failing run leaves no partial files.
"""
from __future__ import annotations

import argparse
import ctypes
import math
import sys
from pathlib import Path

import numpy as np

from .blowup import (InitialDataSpec, adapted_radius, compute_constants, lifespan_bound,
                     make_initial_data)
from .config import ConfigError, load_config
from .evolution import (MAX_HALVINGS, THRESHOLD_FACTOR, UnresolvedFieldError, evolve,
                        weighted_functional)
from .lemma import DegenerateFitError, verify_gaussian_remark, verify_lemma
from .profiles import bracket_profile, gaussian_profile
from .pv import QuadratureError, frac_laplacian_pv, normalization_constant
from .reporting import constants_manifest, save_field, write_csv, write_manifest
from .spectral import frac_laplacian_spectral
from .sweep import CAP_FRACTION, HORIZON_FACTOR, SweepPlan, in_regime_amplitude, run_sweep

USAGE_ERROR, NUMERICAL_ERROR = 1, 2


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fracblow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("constants", "compute the kernel normalization and blow-up constants"),
        ("frac-apply", "evaluate the half-Laplacian of a profile, both routes"),
        ("verify-lemma", "run the decay-regime verification suite"),
        ("evolve", "time-evolve one initial datum and record the functional"),
        ("sweep", "amplitude sweep with lifespan power-law fits"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the sectioned config")
        p.add_argument("--out", required=True, help="output directory")
    return parser


def _cmd_constants(cfg: dict, out: Path) -> int:
    params = cfg["problem"]
    constants = compute_constants(params)
    write_manifest(out / "constants.json", "constants", {
        "problem": {"n": params.n, "p": params.p, "lambda": params.lam,
                    "alpha": params.alpha},
        "constants": constants_manifest(constants),
    })
    print(f"wrote {out / 'constants.json'}")
    return 0


def _cmd_frac_apply(cfg: dict, out: Path) -> int:
    params, grid, opts = cfg["problem"], cfg["grid"], cfg["frac_apply"]
    profile = (bracket_profile(opts["q"], opts["r"]) if opts["profile"] == "bracket"
               else gaussian_profile(opts["width"]))
    points = opts["points"]
    outside = [f"{x:g}" for x in points if grid and not -grid.L <= x < grid.L]
    if outside:
        raise ConfigError(f"[frac_apply] points must lie in [-L, L) of [grid], "
                          f"L = {grid.L:g}; outside: {', '.join(outside)}")
    b = normalization_constant(params.n)
    # a point (x, 0) in 2D: the profile is radial, so its value is that at radius |x|
    values, errors = frac_laplacian_pv(profile, params.n, np.abs(points))

    spectral = None
    if grid is not None:
        samples = np.asarray(profile(grid.radii()), dtype=np.complex128)
        spec_vals = frac_laplacian_spectral(grid, samples).real
        axis = grid.axis()
        idx = np.argmin(np.abs(axis[None, :] - np.asarray(points)[:, None]), axis=1)
        spectral = spec_vals[idx] if params.n == 1 else spec_vals[idx, grid.N // 2]

    rows_path = write_csv(out / "frac_apply.csv", ["x", "pv_value", "pv_error", "spectral_value"],
                          ([x, values[i], errors[i], None if spectral is None else spectral[i]]
                           for i, x in enumerate(points)))
    write_manifest(out / "frac_apply.json", "frac_apply", {
        "profile": profile.label, "points": list(points),
        "constants": {"B": {"value": b.value, "error": b.error}},
        "outputs": [rows_path.name],
    })
    print(f"wrote {rows_path}")
    return 0


def _lemma_csv_name(n: int, q: float | None) -> str:
    """File name of one case's samples; q is None for the Gaussian."""
    return f"lemma_n{n}_{'gaussian' if q is None else f'q{q:g}'}.csv"


def _cmd_verify_lemma(cfg: dict, out: Path) -> int:
    opts = cfg["lemma"]
    # q = None is the Gaussian remark
    cases = [(n, q) for n in opts["dims"]
             for q in [*(opts["q_values"] or [0.5 * n, float(n), float(n + 1), float(n + 2)]),
                       *([None] if opts["gaussian"] else [])]]
    claimed = {}
    for n, q in cases:
        name = _lemma_csv_name(n, q)
        case = f"n={n} " + ("gaussian" if q is None else f"q={q!r}")
        if name in claimed:
            raise ConfigError(f"[lemma] cases {claimed[name]} and {case} would both write {name}")
        claimed[name] = case

    verdicts, window = [], opts["fit_window"]
    for n, q in cases:
        v = verify_gaussian_remark(n) if q is None else verify_lemma(n, q, window=window)
        verdicts.append(v)
        print(v.diagnostics)

    entries = []
    for v in verdicts:
        # repr, not %.12g: g must read back within its own certified_error
        rows = ([*map(repr, sample), v.regime]
                for sample in zip(v.r.tolist(), v.g.tolist(), v.certified_error.tolist()))
        samples = write_csv(out / _lemma_csv_name(v.n, v.q),
                            ["r", "g", "certified_error", "bound_case"], rows)
        entries.append({
            "n": v.n, "q": v.q, "regime": v.regime, "matched": v.matched,
            "fitted_exponent": v.fitted_exponent,
            "predicted_exponent": v.predicted_exponent,
            "log_coeff": v.log_coeff, "a_hat": v.a_hat,
            "residual": v.residual, "residual_ratio": v.residual_ratio,
            "r_neg": v.r_neg, "negativity_ok": v.negativity_ok,
            "diagnostics": v.diagnostics, "csv": samples.name,
        })
    write_manifest(out / "lemma_report.json", "lemma", {"verdicts": entries})
    write_csv(out / "a_hat_table.csv", ["n", "q", "regime", "a_hat", "matched"],
              ([v.n, v.q, v.regime, v.a_hat, v.matched]
               for v in verdicts if v.q is not None))
    print(f"wrote {len(verdicts) + 2} files under {out}")
    return 0


def _cmd_evolve(cfg: dict, out: Path) -> int:
    params, grid, opts = cfg["problem"], cfg["grid"], cfg["evolve"]
    spec = InitialDataSpec(kind=opts["data"], mu=opts["mu"], k=opts["k"],
                           cap_radius=opts["cap_radius"])
    dt, t_max = opts["dt"], opts["t_max"]
    constants = compute_constants(params)
    u0 = make_initial_data(spec, grid, params.alpha)

    radius = adapted_radius(spec, constants)[0] if opts["r"] is None else opts["r"]
    t_bound = lifespan_bound(weighted_functional(u0, grid, params.alpha, radius), constants, radius)

    record = evolve(u0, grid, params, dt, t_max, radius)

    write_csv(out / "trajectory.csv", ["t", "m_r", "sup_norm", "l2_norm"],
              zip(record.times, record.m_r, record.sup_norm, record.l2_norm))
    save_field(grid, record.final, out / "final_state")
    write_manifest(out / "run_manifest.json", "evolve", {
        "problem": {"n": params.n, "p": params.p, "lambda": params.lam,
                    "alpha": params.alpha},
        "grid": {"n": grid.n, "L": grid.L, "N": grid.N},
        "data": {"kind": spec.kind, "mu": spec.mu, "k": spec.k},
        "integrator": {"dt": dt, "t_max": t_max,
                       "blowup_threshold": record.threshold,
                       "max_halvings": MAX_HALVINGS},
        "weight_radius": radius,
        "constants": constants_manifest(constants),
        "threshold_condition_holds": math.isfinite(t_bound),
        "t_bound": t_bound if math.isfinite(t_bound) else None,
        "blew_up": record.blew_up,
        "t_num": record.t_num,
        "outputs": ["trajectory.csv", "final_state.npy", "final_state.json"],
    })
    verdict = f"blow-up at t={record.t_num:.6g}" if record.blew_up else "no blow-up"
    print(f"{verdict}; wrote {out / 'trajectory.csv'}")
    return 0


def _cmd_sweep(cfg: dict, out: Path) -> int:
    params, grid, opts = cfg["problem"], cfg["grid"], cfg["sweep"]
    kind, k, count = opts["kind"], opts["k"], opts["count"]
    constants = compute_constants(params)
    if opts["mu_min"] is not None:
        mu = np.geomspace(opts["mu_min"], opts["mu_max"], count)
    else:
        # pick the decade ending just inside the strict scaling regime
        r_target = 0.45 if kind == "inner-singular" else 22.0
        edge = in_regime_amplitude(kind, k, constants, r_target)
        mu = np.geomspace(edge, 10.0 * edge, count) if kind == "inner-singular" \
            else np.geomspace(edge / 10.0, edge, count)
    plan = SweepPlan(params=params, kind=kind, k=k, mu_values=tuple(mu), grid=grid,
                     dt_factor=opts["dt_factor"], dt_base=opts["dt_base"])
    result = run_sweep(plan)
    rows_path = write_csv(
        out / "sweep_rows.csv",
        ["mu", "r_star", "t_bound", "t_prop", "t_num", "m0",
         "condition_holds", "in_regime", "blew_up", "failed", "note"],
        ([r.mu, r.r_star, r.t_bound, r.t_prop, r.t_num, r.m0, r.condition_holds,
          r.in_regime, r.blew_up, r.failed, r.note] for r in result.rows))
    write_manifest(out / "sweep_result.json", "sweep", {
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
        "predicted_exponent": plan.predicted_exponent,
        "fitted_exponent_t_num": result.fitted_exponent_num,
        "fitted_exponent_t_bound": result.fitted_exponent_bound,
        "fit_residual": result.fit_residual_num,
        "warnings": result.warnings,
        "rows_csv": rows_path.name,
        "constants": constants_manifest(constants),
        "problem": {"n": params.n, "p": params.p, "lambda": params.lam,
                    "alpha": params.alpha},
        "grid": {"n": grid.n, "L": grid.L, "N": grid.N},
    })
    if result.fitted_exponent_num is not None:
        print(f"fitted t_num exponent {result.fitted_exponent_num:.4f} "
              f"(predicted {plan.predicted_exponent:.4f})")
    for note in result.warnings:
        print(f"warning: {note}", file=sys.stderr)
    print(f"wrote {rows_path}")
    return 0


#: each command, and the sections it cannot run without
_COMMANDS = {
    "constants": (_cmd_constants, ("problem",)),
    "frac-apply": (_cmd_frac_apply, ("problem",)),
    "verify-lemma": (_cmd_verify_lemma, ()),
    "evolve": (_cmd_evolve, ("problem", "grid")),
    "sweep": (_cmd_sweep, ("problem", "grid")),
}


def _keep_freed_memory() -> None:
    """Let glibc keep freed arrays on the heap for reuse.

    By default every freed block of 128 KiB or more (1D and 2D fields) goes
    back to the kernel and is page-faulted in again on the next allocation.
    Raising both the mmap and the trim threshold keeps them; either one
    alone does not.  A no-op where mallopt is missing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: keep up to 64 MiB of free heap
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: heap-allocate blocks below 32 MiB


def main(argv=None) -> int:
    _keep_freed_memory()
    try:
        args = _build_parser().parse_args(argv)
    except _ArgumentError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        cfg = load_config(args.config)
        command, needs = _COMMANDS[args.command]
        for section in needs:
            if cfg[section] is None:
                raise ConfigError(f"this command needs a [{section}] section")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return command(cfg, out)
    except (QuadratureError, UnresolvedFieldError, FloatingPointError, OverflowError,
            DegenerateFitError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
