"""Command-line harness: constants, frac-apply, verify-lemma, evolve, sweep.

Every subcommand reads a sectioned text config (--config) and writes its
outputs under --out.  Exit codes: 0 success, 1 usage or configuration
error, 2 numerical failure.  Outputs are written only after the
computation finishes, so a failing run leaves no partial files.
"""
from __future__ import annotations

import argparse
import ctypes
import sys
from pathlib import Path

import numpy as np

from .blowup import (InitialDataSpec, blowup_radius, compute_constants, lifespan_bound,
                     make_initial_data, weighted_functional)
from .config import (ConfigError, HarnessConfig, dimensions, flag, float_list,
                     increasing_pair, load_config)
from .evolution import MAX_HALVINGS, EvolutionConfig, UnresolvedFieldError, evolve
from .grid import Field
from .lemma import (A_SAFETY, estimate_weight_derivative_bound, verify_gaussian_remark,
                    verify_lemma, write_lemma_report)
from .profiles import WeightProfile, bracket_profile, gaussian_profile
from .pv import QuadratureError, frac_laplacian_pv_many, normalization_constant
from .reporting import constants_manifest, save_field, write_csv, write_manifest
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


def _constants_block(cfg: HarnessConfig):
    params = _require(cfg, "params")
    b = normalization_constant(params.n)
    a_bound, verdict = estimate_weight_derivative_bound(params.n, cfg.quadrature)
    source = (f"decay suite n={params.n} q={params.n + 1}, sampled sup "
              f"{verdict.a_hat:.6g} x safety {A_SAFETY}")
    return params, b, compute_constants(params, a_bound, a_source=source)


def _cmd_constants(cfg: HarnessConfig, out: Path) -> int:
    params, b, constants = _constants_block(cfg)
    write_manifest(out / "constants.json", "constants", {
        "problem": {"n": params.n, "p": params.p, "lambda": params.lam,
                    "alpha": params.alpha},
        "constants": constants_manifest(constants, b),
    })
    print(f"wrote {out / 'constants.json'}")
    return 0


def _cmd_frac_apply(cfg: HarnessConfig, out: Path) -> int:
    params = _require(cfg, "params")
    name = cfg.get("frac_apply", "profile", str, "bracket")
    if name == "bracket":
        profile = bracket_profile(cfg.get("frac_apply", "q", float, 2.0),
                                  cfg.get("frac_apply", "r", float, 1.0))
    elif name == "gaussian":
        profile = gaussian_profile(cfg.get("frac_apply", "width", float, 1.0))
    else:
        raise ConfigError(f"unknown profile {name!r} in [frac_apply]")
    points = (cfg.get("frac_apply", "points", float_list, None)
              or list(np.linspace(0.0, 5.0, 11)))
    b = normalization_constant(params.n)
    xs = [(x, 0.0) if params.n == 2 else x for x in points]
    values, errors = frac_laplacian_pv_many(profile, xs, b.value, cfg.quadrature)

    spectral = None
    if cfg.grid is not None:
        field = Field.from_radial(cfg.grid, profile)
        spec_vals = frac_laplacian_spectral(field).values.real
        axis = cfg.grid.axis()
        idx = np.argmin(np.abs(axis[None, :] - np.asarray(points)[:, None]), axis=1)
        spectral = spec_vals[idx] if params.n == 1 else spec_vals[idx, cfg.grid.N // 2]

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


def _cmd_verify_lemma(cfg: HarnessConfig, out: Path) -> int:
    quad = cfg.quadrature
    dims = cfg.get("lemma", "dims", dimensions, None) or [1, 2]
    include_gaussian = cfg.get("lemma", "gaussian", flag, True)
    window = cfg.get("lemma", "fit_window", increasing_pair, (1e2, 1e4))
    q_values = cfg.get("lemma", "q_values", float_list, None)
    if q_values == []:
        print("warning: empty q list, nothing to verify", file=sys.stderr)
        return 0

    verdicts = []
    for n in dims:
        qs = q_values or [0.5 * n, float(n), float(n + 1), float(n + 2)]
        b = normalization_constant(n)
        for q in qs:
            v = verify_lemma(n, q, quad, window=window, b=b.value)
            verdicts.append(v)
            print(v.diagnostics)
        if include_gaussian:
            verdicts.append(verify_gaussian_remark(n, quad, b=b.value))
            print(verdicts[-1].diagnostics)

    files = write_lemma_report(verdicts, out)
    write_csv(out / "a_hat_table.csv", ["n", "q", "regime", "a_hat", "matched"],
              ([v.n, v.q, v.regime, v.a_hat, v.matched]
               for v in verdicts if v.regime != "gaussian"))
    print(f"wrote {len(files) + 1} files under {out}")
    return 0


def _cmd_evolve(cfg: HarnessConfig, out: Path) -> int:
    params = _require(cfg, "params")
    grid = _require(cfg, "grid")
    cap = cfg.get("evolve", "cap_radius", lambda raw: float(raw) if raw else None, None)
    spec = InitialDataSpec(kind=cfg.get("evolve", "data", str, "inner-singular"),
                           mu=cfg.get("evolve", "mu", float, 1.0),
                           k=cfg.get("evolve", "k", float, 0.25), cap_radius=cap)
    r_fixed = cfg.get("evolve", "r", lambda raw: None if raw == "auto" else float(raw), None)
    dt = cfg.get("evolve", "dt", float, 0.01)
    t_max = cfg.get("evolve", "t_max", float, 1.0)
    threshold_factor = cfg.get("evolve", "threshold_factor", float, 25.0)
    _, b, constants = _constants_block(cfg)
    u0 = make_initial_data(spec, grid, params.alpha)

    if r_fixed is None:
        rr = blowup_radius(spec, constants, params, u0)
        radius, report = rr.r_star, rr.report
    else:
        radius = r_fixed
        m0 = weighted_functional(u0, params.alpha, WeightProfile(q=params.n + 1, R=radius))
        report = lifespan_bound(m0, constants, radius, params)

    config = EvolutionConfig(grid=grid, dt=dt, t_max=t_max,
                             blowup_threshold=threshold_factor * u0.sup_norm())
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
                       "max_halvings": MAX_HALVINGS},
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
    kind = cfg.get("sweep", "kind", str, "inner-singular")
    k = cfg.get("sweep", "k", float, 0.25)
    count = cfg.get("sweep", "count", int, 8)
    mu_min = cfg.get("sweep", "mu_min", float, None)
    mu_max = cfg.get("sweep", "mu_max", float, None)
    dt_factor = cfg.get("sweep", "dt_factor", float, 0.02)
    dt_base = cfg.get("sweep", "dt_base", float, 0.05)
    workers = cfg.get("sweep", "workers", int, 1)
    _, b, constants = _constants_block(cfg)
    if mu_min is not None and mu_max is not None:
        mu = np.geomspace(mu_min, mu_max, count)
    else:
        # pick the decade ending just inside the strict scaling regime
        r_target = 0.45 if kind == "inner-singular" else 22.0
        edge = in_regime_amplitude(kind, k, params, constants, r_target)
        mu = np.geomspace(edge, 10.0 * edge, count) if kind == "inner-singular" \
            else np.geomspace(edge / 10.0, edge, count)
    plan = SweepPlan(params=params, kind=kind, k=k, mu_values=tuple(mu), grid=grid,
                     dt_factor=dt_factor, dt_base=dt_base, workers=workers)
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


def _keep_freed_memory() -> None:
    """Let glibc keep freed arrays on the heap for reuse.

    By default every freed block of 128 KiB or more (PV blocks, 1D fields,
    2D fields) goes back to the kernel and is page-faulted in again on the
    next allocation.  Raising both the mmap and the trim threshold keeps
    them; either one alone does not.  A no-op where mallopt is missing.
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
