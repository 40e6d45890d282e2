"""Acceptance criteria, one test per criterion, with a pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see every line as it
is produced; under plain pytest the lines surface for failing criteria.
"""
import math
import time

import numpy as np
import pytest

from fracblow.blowup import (InitialDataSpec, adapted_radius, compute_constants,
                             lifespan_bound, make_initial_data)
from fracblow.evolution import ProblemParams, evolve, weighted_functional
from fracblow.grid import GridSpec
from fracblow.lemma import verify_gaussian_remark, verify_lemma
from fracblow.profiles import bracket_profile
from fracblow.pv import frac_laplacian_pv, normalization_constant
from fracblow.spectral import frac_laplacian_spectral
from fracblow.sweep import SweepPlan, in_regime_amplitude, run_sweep
from verification import (coords, cordoba_violation, ode_lower_envelope, sample, scaling_check,
                          strang_step, sup_norm)


def _report(num: int, ok: bool, detail: str):
    print(f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def lemma_verdicts():
    out = {}
    start = time.monotonic()
    for n, qs in ((1, (0.5, 1.0, 2.0, 3.0)), (2, (1.0, 2.0, 3.0, 4.0))):
        for q in qs:
            out[(n, q)] = verify_lemma(n, q)
    out["elapsed"] = time.monotonic() - start
    return out


@pytest.fixture(scope="module")
def chain_p2():
    """Constants chain for the inner-singular runs: n=1, p=2, lam=i."""
    params = ProblemParams(n=1, p=2.0, lam=1j)
    constants = compute_constants(params)
    return params, constants


@pytest.fixture(scope="module")
def inner_sweep(chain_p2):
    params, constants = chain_p2
    grid = GridSpec(1, 40.0, 32768)
    edge = in_regime_amplitude("inner-singular", 0.25, constants, 0.45)
    plan = SweepPlan(params=params, kind="inner-singular", k=0.25,
                     mu_values=tuple(np.geomspace(edge, 10.0 * edge, 8)), grid=grid)
    start = time.monotonic()
    result = run_sweep(plan)
    return plan, result, constants, time.monotonic() - start


@pytest.fixture(scope="module")
def outer_sweep():
    params = ProblemParams(n=1, p=1.25, lam=1j)
    constants = compute_constants(params)
    grid = GridSpec(1, 256.0, 16384)
    edge = in_regime_amplitude("outer-decay", 0.6, constants, 22.0)
    plan = SweepPlan(params=params, kind="outer-decay", k=0.6,
                     mu_values=tuple(np.geomspace(edge / 10.0, edge, 8)), grid=grid)
    start = time.monotonic()
    result = run_sweep(plan)
    return plan, result, constants, time.monotonic() - start


def test_criterion_01_normalization_constant():
    start = time.monotonic()
    res = normalization_constant(1)
    elapsed = time.monotonic() - start
    err = abs(res.value - 1.0 / math.pi)
    _report(1, err < 1e-6 and elapsed < 1.0,
            f"B(1) = {res.value:.10f}, |diff from 1/pi| = {err:.2e}, {elapsed:.3f}s")


def test_criterion_02_closed_form_oracle():
    start = time.monotonic()
    pts = np.linspace(-10.0, 10.0, 50)
    want = (1.0 - pts**2) / (1.0 + pts**2) ** 2
    pv_vals, _ = frac_laplacian_pv(bracket_profile(2.0), 1, np.abs(pts))
    pv_err = float(np.max(np.abs(pv_vals - want)))

    g = GridSpec(1, 160.0, 8192)
    x = g.axis()
    spec_all = frac_laplacian_spectral(g, 1.0 / (1.0 + x * x) + 0j).real
    idx = np.argmin(np.abs(x[None, :] - pts[:, None]), axis=1)
    sp_err = float(np.max(np.abs(spec_all[idx] - (1.0 - x[idx] ** 2) / (1.0 + x[idx] ** 2) ** 2)))
    elapsed = time.monotonic() - start
    _report(2, pv_err < 1e-4 and sp_err < 1e-4 and elapsed < 10.0,
            f"50-point max errors: pv {pv_err:.2e}, spectral {sp_err:.2e}, {elapsed:.2f}s")


def test_criterion_03_decay_regimes(lemma_verdicts):
    failures = []
    details = []
    for (n, q), v in ((k, v) for k, v in lemma_verdicts.items() if k != "elapsed"):
        tol = 0.05 if n == 1 else 0.1
        ok = abs(v.fitted_exponent - v.predicted_exponent) <= tol
        if v.regime == "q=n":
            ok = ok and v.log_coeff > 0 and v.residual_ratio > 3.0
        details.append(f"(n={n},q={q:g}): fitted {v.fitted_exponent:.3f} "
                       f"predicted {v.predicted_exponent:g}")
        if not ok:
            failures.append(details[-1])
    elapsed = lemma_verdicts["elapsed"]
    _report(3, not failures and elapsed < 300.0,
            f"{len(details) - len(failures)}/8 regimes matched in {elapsed:.1f}s"
            + (f"; mismatches: {failures}" if failures else ""))


def test_criterion_04_sharpness(lemma_verdicts):
    problems = []
    for (n, q), v in ((k, v) for k, v in lemma_verdicts.items() if k != "elapsed"):
        if q < n:
            continue
        if v.r_neg is None or not np.all(v.g[v.r >= v.r_neg] < 0):
            problems.append(f"(n={n},q={q:g}) negativity")
        if abs(v.fitted_exponent + (n + 1)) > 0.1:
            problems.append(f"(n={n},q={q:g}) exponent {v.fitted_exponent:.3f}")
    for n in (1, 2):
        v = verify_gaussian_remark(n)
        if v.r_neg is None or not np.all(v.g[v.r >= v.r_neg] < 0):
            problems.append(f"gaussian n={n} negativity")
        if abs(v.fitted_exponent + (n + 1)) > 0.1:
            problems.append(f"gaussian n={n} exponent {v.fitted_exponent:.3f}")
    _report(4, not problems,
            "all q >= n weights and both gaussians negative beyond R_neg with "
            "exponent -(n+1) +- 0.1" + (f"; problems: {problems}" if problems else ""))


def test_criterion_05_product_inequality():
    rng = np.random.default_rng(2024)
    worst = -math.inf
    g1 = GridSpec(1, 20.0, 2048)
    x1 = g1.axis()
    for _ in range(20):
        c = rng.uniform(-5.0, 5.0, 5)
        s = rng.uniform(0.5, 2.0, 5)
        a = rng.uniform(0.2, 1.5, 5)
        v = sum(ai * np.exp(-(((x1 - ci) / si) ** 2) / 2) for ai, ci, si in zip(a, c, s))
        phi = v + 0j
        worst = max(worst, cordoba_violation(g1, phi) / sup_norm(phi) ** 2)
    g2 = GridSpec(2, 20.0, 256)
    xx, yy = coords(g2)
    for _ in range(5):
        c = rng.uniform(-5.0, 5.0, (4, 2))
        s = rng.uniform(0.6, 2.0, 4)
        a = rng.uniform(0.2, 1.5, 4)
        v = sum(ai * np.exp(-(((xx - ci[0]) ** 2 + (yy - ci[1]) ** 2) / (2 * si**2)))
                for ai, ci, si in zip(a, c, s))
        phi = v + 0j
        worst = max(worst, cordoba_violation(g2, phi) / sup_norm(phi) ** 2)
    _report(5, worst <= 1e-6,
            f"worst normalized violation over 20 + 5 mixtures: {worst:.2e} (<= 1e-6)")


def test_criterion_06_solver_order_and_unitarity():
    g = GridSpec(1, 20.0, 1024)
    u0 = sample(g, lambda x: np.exp(-x * x) * np.exp(0.5j * x))
    rec = evolve(u0, g, ProblemParams(1, 2.0, 0.0), 0.01, 10.0, 1.0)
    drift = float(np.max(np.abs(rec.l2_norm - rec.l2_norm[0])) / rec.l2_norm[0])

    params = ProblemParams(1, 2.0, 1.0 + 0.5j)
    T = 0.4

    def run(nsteps):
        u = sample(g, lambda x: 1.2 * np.exp(-x * x) + 0j)
        for _ in range(nsteps):
            u = strang_step(u, g, T / nsteps, params)
        return u

    ref = run(1024)
    dts, errs = [], []
    for nsteps in (32, 64, 128):
        dts.append(T / nsteps)
        errs.append(float(np.linalg.norm(run(nsteps) - ref)))
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    _report(6, drift < 1e-12 and 1.8 <= slope <= 2.2,
            f"free-flow l2 drift {drift:.2e} per 1e3 steps; error slope {slope:.3f}")


def test_criterion_07_scaling_invariance():
    g = GridSpec(1, 20.0, 2048)
    params = ProblemParams(1, 2.0, 1.0 + 0.5j)
    u0 = sample(g, lambda x: np.exp(-x * x))
    d = scaling_check(u0, g, params, 0.01, 0.64, 2.0)
    d_half = scaling_check(u0, g, params, 0.005, 0.64, 2.0)
    ratio = d / d_half
    _report(7, d <= 1e-3 and 2.5 <= ratio <= 6.0,
            f"rho=2 discrepancy {d:.2e} (<= 1e-3), improvement x{ratio:.2f} under dt halving")


def test_criterion_08_ode_envelope(chain_p2):
    params, constants = chain_p2
    grid = GridSpec(1, 40.0, 16384)
    problems = []
    for mu in (20.0, 28.0, 40.0, 56.0, 80.0):
        r_star, _ = adapted_radius(InitialDataSpec(kind="inner-singular", mu=mu, k=0.25),
                                   constants)
        spec = InitialDataSpec(kind="inner-singular", mu=mu, k=0.25,
                               cap_radius=max(0.15 * r_star, 0.75 * grid.dx))
        u0 = make_initial_data(spec, grid, params.alpha)
        m0 = weighted_functional(u0, grid, params.alpha, r_star)
        t_bound = lifespan_bound(m0, constants, r_star)
        rec = evolve(u0, grid, params, 0.01 / sup_norm(u0), 1.3 * t_bound, r_star)
        if not rec.blew_up:
            problems.append(f"mu={mu}: no blow-up")
            continue
        tcut = 0.8 * min(rec.t_num, t_bound)
        sel = rec.times <= tcut
        env = ode_lower_envelope(m0, constants, r_star, rec.times[sel])
        gap = rec.m_r[sel] - constants.threshold(r_star)
        if not np.all(gap >= 0.9 * env):
            problems.append(f"mu={mu}: domination ratio {float(np.min(gap / env)):.3f}")
        if not np.all(np.diff(rec.m_r[sel]) >= 0):
            problems.append(f"mu={mu}: functional not nondecreasing")
    _report(8, not problems,
            "5 blow-up runs dominate 0.9x the envelope with nondecreasing functional"
            + (f"; problems: {problems}" if problems else ""))


def test_criterion_09_lifespan_ordering_and_scaling(inner_sweep, outer_sweep):
    problems = []
    for label, (plan, result, constants, _) in (("inner", inner_sweep), ("outer", outer_sweep)):
        for row in result.rows:
            if row.blew_up and row.t_num is not None and not row.failed:
                if row.t_num > 1.1 * row.t_prop:
                    problems.append(f"{label} mu={row.mu:.3g}: "
                                    f"t_num {row.t_num:.4g} > 1.1 t_bound {row.t_prop:.4g}")
        if result.fitted_exponent_num is None:
            problems.append(f"{label}: no exponent fit")
            continue
        dev = abs(result.fitted_exponent_num - plan.predicted_exponent) \
            / abs(plan.predicted_exponent)
        if dev > 0.2:
            problems.append(f"{label}: fitted {result.fitted_exponent_num:.4f} vs "
                            f"{plan.predicted_exponent:.4f} ({dev:.1%})")
        if abs(result.fitted_exponent_bound - plan.predicted_exponent) \
                > 1e-9 * abs(plan.predicted_exponent):
            problems.append(f"{label}: bound column exponent "
                            f"{result.fitted_exponent_bound!r} not exact")
    elapsed = inner_sweep[3] + outer_sweep[3]
    inner_fit = inner_sweep[1].fitted_exponent_num
    outer_fit = outer_sweep[1].fitted_exponent_num
    _report(9, not problems and elapsed < 1800.0,
            f"inner fit {inner_fit:.4f} (pred {inner_sweep[0].predicted_exponent:.4f}), "
            f"outer fit {outer_fit:.4f} (pred {outer_sweep[0].predicted_exponent:.4f}), "
            f"ordering holds on all flagged runs, sweeps took {elapsed:.0f}s"
            + (f"; problems: {problems}" if problems else ""))


def test_criterion_10_threshold_gate(inner_sweep):
    plan, result, constants, _ = inner_sweep
    params, grid = plan.params, plan.grid
    row = next(r for r in result.rows if r.in_regime)
    r_star, mu0 = row.r_star, row.mu

    def m_at(mu):
        data = make_initial_data(
            InitialDataSpec(kind="inner-singular", mu=mu, k=plan.k), grid, params.alpha)
        return weighted_functional(data, grid, params.alpha, r_star)

    # bisect the verdict flip at fixed radius
    lo, hi = 1e-8 * mu0, mu0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if math.isfinite(lifespan_bound(m_at(mid), constants, r_star)):
            hi = mid
        else:
            lo = mid
    mu_flip = 0.5 * (lo + hi)
    crossing = constants.threshold(r_star) / (m_at(mu0) / mu0)  # linearity in mu
    rel = abs(mu_flip - crossing) / crossing
    below = lifespan_bound(m_at(crossing * (1 - 1e-6)), constants, r_star)
    above = lifespan_bound(m_at(crossing * (1 + 1e-6)), constants, r_star)
    ok = rel < 1e-6 and math.isinf(below) and math.isfinite(above)
    _report(10, ok,
            f"verdict flips at mu = {mu_flip:.6g}, lattice crossing at {crossing:.6g} "
            f"(rel diff {rel:.1e}); inconclusive below, bounded above")
