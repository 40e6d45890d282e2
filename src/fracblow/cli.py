"""Command-line harness: constants, frac-apply, verify-lemma, evolve, sweep.

Every subcommand reads a sectioned text config (--config) and writes its
outputs under --out.  Exit codes: 0 success, 1 usage or configuration
error, 2 numerical failure.  Outputs are written only after the
computation finishes, so a failing run leaves no partial files.
"""
from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .blowup import InitialDataSpec, blowup_radius, compute_constants, make_initial_data
from .config import ConfigError, HarnessConfig, load_config, parse_float_list
from .evolution import EvolutionConfig, UnresolvedFieldError, evolve
from .grid import Field, GridSpec
from .lemma import (estimate_weight_derivative_bound, verify_gaussian_remark,
                    verify_lemma, write_lemma_report)
from .profiles import WeightProfile, bracket_profile, gaussian_profile
from .pv import QuadratureError, frac_laplacian_pv_many, normalization_constant
from .reporting import constants_manifest, save_field, write_manifest
from .spectral import frac_laplacian_spectral
from .sweep import SweepPlan, in_regime_amplitude, run_sweep, write_sweep_outputs

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


def _require(cfg: HarnessConfig, what: str):
    value = getattr(cfg, what)
    if value is None:
        raise ConfigError(f"this command needs a [{'problem' if what == 'params' else what}] section")
    return value


def _constants_block(cfg: HarnessConfig, safety: float = 1.2):
    params = _require(cfg, "params")
    b = normalization_constant(params.n, cfg.quadrature)
    a_bound, verdict = estimate_weight_derivative_bound(params.n, cfg.quadrature, safety=safety)
    source = (f"decay suite n={params.n} q={params.n + 1}, sampled sup "
              f"{verdict.a_hat:.6g} x safety {safety}")
    return params, b, compute_constants(params, a_bound, a_source=source)


def _cmd_constants(cfg: HarnessConfig, out: Path) -> int:
    safety = float(cfg.section("constants").get("safety", 1.2))
    params, b, constants = _constants_block(cfg, safety)
    write_manifest(out / "constants.json", "constants", {
        "problem": {"n": params.n, "p": params.p, "lambda": params.lam,
                    "alpha": params.alpha},
        "constants": constants_manifest(constants, b),
    })
    print(f"wrote {out / 'constants.json'}")
    return 0


def _cmd_frac_apply(cfg: HarnessConfig, out: Path) -> int:
    params = _require(cfg, "params")
    quad = cfg.quadrature
    sec = cfg.section("frac_apply")
    name = sec.get("profile", "bracket")
    if name == "bracket":
        profile = bracket_profile(float(sec.get("q", 2.0)), float(sec.get("r", 1.0)))
    elif name == "gaussian":
        profile = gaussian_profile(float(sec.get("width", 1.0)))
    else:
        raise ConfigError(f"unknown profile {name!r} in [frac_apply]")
    points = parse_float_list(cfg, "frac_apply", "points",
                              default=list(np.linspace(0.0, 5.0, 11)))
    b = normalization_constant(params.n, quad)
    xs = [(x, 0.0) if params.n == 2 else x for x in points]
    values, errors = frac_laplacian_pv_many(profile, xs, b.value, quad)

    spectral = None
    if cfg.grid is not None:
        field = Field.from_radial(cfg.grid, profile)
        spec_vals = frac_laplacian_spectral(field).values.real
        axis = cfg.grid.axis()
        idx = np.argmin(np.abs(axis[None, :] - np.asarray(points)[:, None]), axis=1)
        spectral = spec_vals[idx] if params.n == 1 else spec_vals[idx, cfg.grid.N // 2]

    rows_path = out / "frac_apply.csv"
    with open(rows_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "pv_value", "pv_error", "spectral_value"])
        for i, x in enumerate(points):
            w.writerow([f"{x:.12g}", f"{values[i]:.12g}", f"{errors[i]:.12g}",
                        "" if spectral is None else f"{spectral[i]:.12g}"])
    write_manifest(out / "frac_apply.json", "frac_apply", {
        "profile": profile.label, "points": list(points),
        "constants": {"B": {"value": b.value, "error": b.error}},
        "outputs": [rows_path.name],
    })
    print(f"wrote {rows_path}")
    return 0


def _cmd_verify_lemma(cfg: HarnessConfig, out: Path) -> int:
    quad = cfg.quadrature
    sec = cfg.section("lemma")
    dims = [int(v) for v in parse_float_list(cfg, "lemma", "dims", default=[1, 2])]
    include_gaussian = sec.get("gaussian", "true").strip().lower() in ("1", "true", "yes")
    window = tuple(parse_float_list(cfg, "lemma", "fit_window", default=[1e2, 1e4]))
    if "q_values" in sec and sec["q_values"].strip() == "":
        print("warning: empty q list, nothing to verify", file=sys.stderr)
        return 0

    verdicts = []
    for n in dims:
        qs = parse_float_list(cfg, "lemma", "q_values",
                              default=[0.5 * n, float(n), float(n + 1), float(n + 2)])
        b = normalization_constant(n, quad)
        for q in qs:
            v = verify_lemma(n, q, quad, window=window, b=b.value)
            verdicts.append(v)
            print(v.diagnostics)
        if include_gaussian:
            verdicts.append(verify_gaussian_remark(n, quad, b=b.value))
            print(verdicts[-1].diagnostics)

    files = write_lemma_report(verdicts, out)
    table = out / "a_hat_table.csv"
    with open(table, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "q", "regime", "a_hat", "matched"])
        for v in verdicts:
            if v.regime != "gaussian":
                w.writerow([v.n, f"{v.q:.12g}", v.regime, f"{v.a_hat:.12g}", int(v.matched)])
    print(f"wrote {len(files) + 1} files under {out}")
    return 0


def _data_spec_from(sec: dict) -> InitialDataSpec:
    kind = sec.get("data", "inner-singular")
    mu = float(sec.get("mu", 1.0))
    k = float(sec.get("k", 0.25))
    cap = sec.get("cap_radius", "").strip()
    return InitialDataSpec(kind=kind, mu=mu, k=k,
                           cap_radius=float(cap) if cap else None)


def _cmd_evolve(cfg: HarnessConfig, out: Path) -> int:
    params = _require(cfg, "params")
    grid = _require(cfg, "grid")
    sec = cfg.section("evolve")
    _, b, constants = _constants_block(cfg)
    spec = _data_spec_from(sec)
    u0 = make_initial_data(spec, grid, params.alpha)

    r_raw = sec.get("r", "auto").strip()
    if r_raw == "auto":
        rr = blowup_radius(spec, constants, params, grid)
        radius, report = rr.r_star, rr.report
    else:
        radius = float(r_raw)
        from .blowup import lifespan_bound, weighted_functional
        m0 = weighted_functional(u0, params.alpha, WeightProfile(q=params.n + 1, R=radius))
        report = lifespan_bound(m0, constants, radius, params)

    sup0 = u0.sup_norm()
    dt = float(sec.get("dt", 0.01))
    t_max = float(sec.get("t_max", 1.0))
    threshold = float(sec.get("threshold_factor", 25.0)) * sup0
    config = EvolutionConfig(grid=grid, dt=dt, t_max=t_max, blowup_threshold=threshold)
    record = evolve(u0, params, config, WeightProfile(q=params.n + 1, R=radius))

    record.to_csv(out / "trajectory.csv")
    save_field(record.final, out / "final_state")
    write_manifest(out / "run_manifest.json", "evolve", {
        "problem": {"n": params.n, "p": params.p, "lambda": params.lam,
                    "alpha": params.alpha},
        "grid": {"n": grid.n, "L": grid.L, "N": grid.N},
        "data": {"kind": spec.kind, "mu": spec.mu, "k": spec.k},
        "integrator": {"dt": config.dt, "t_max": config.t_max,
                       "blowup_threshold": config.blowup_threshold,
                       "max_halvings": config.max_halvings},
        "weight_radius": radius,
        "constants": constants_manifest(constants, b),
        "threshold_condition_holds": report.condition_holds,
        "t_bound": None if not report.condition_holds else report.t_bound,
        "blew_up": record.blew_up,
        "t_num": record.t_num,
        "outputs": ["trajectory.csv", "final_state.npy", "final_state.json"],
    })
    verdict = f"blow-up at t={record.t_num:.6g}" if record.blew_up else "no blow-up"
    print(f"{verdict}; wrote {out / 'trajectory.csv'}")
    return 0


def _cmd_sweep(cfg: HarnessConfig, out: Path) -> int:
    params = _require(cfg, "params")
    grid = _require(cfg, "grid")
    sec = cfg.section("sweep")
    _, b, constants = _constants_block(cfg)
    kind = sec.get("kind", "inner-singular")
    k = float(sec.get("k", 0.25))
    count = int(sec.get("count", 8))
    if "mu_min" in sec and "mu_max" in sec:
        mu = np.geomspace(float(sec["mu_min"]), float(sec["mu_max"]), count)
    else:
        # pick the decade ending just inside the strict scaling regime
        r_target = 0.45 if kind == "inner-singular" else 22.0
        edge = in_regime_amplitude(kind, k, params, constants, r_target)
        mu = np.geomspace(edge, 10.0 * edge, count) if kind == "inner-singular" \
            else np.geomspace(edge / 10.0, edge, count)
    plan = SweepPlan(params=params, kind=kind, k=k, mu_values=tuple(mu), grid=grid,
                     dt_factor=float(sec.get("dt_factor", 0.02)),
                     dt_base=float(sec.get("dt_base", 0.05)),
                     workers=int(sec.get("workers", 1)))
    result = run_sweep(plan, constants)
    files = write_sweep_outputs(result, out, manifest_extra={
        "constants": constants_manifest(constants, b),
        "problem": {"n": params.n, "p": params.p, "lambda": params.lam,
                    "alpha": params.alpha},
        "grid": {"n": grid.n, "L": grid.L, "N": grid.N},
    })
    if result.fitted_exponent_num is not None:
        print(f"fitted t_num exponent {result.fitted_exponent_num:.4f} "
              f"(predicted {result.predicted_exponent:.4f})")
    for note in result.warnings:
        print(f"warning: {note}", file=sys.stderr)
    print(f"wrote {files[0]}")
    return 0


_COMMANDS = {
    "constants": _cmd_constants,
    "frac-apply": _cmd_frac_apply,
    "verify-lemma": _cmd_verify_lemma,
    "evolve": _cmd_evolve,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _ArgumentError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        cfg = load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (QuadratureError, UnresolvedFieldError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
