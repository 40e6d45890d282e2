"""Power-law fitting and the sweep driver."""
import numpy as np
import pytest

from fracblow import sweep
from fracblow.blowup import blowup_radius, compute_constants, make_initial_data
from fracblow.evolution import ProblemParams
from fracblow.grid import GridSpec
from fracblow.sweep import (SweepPlan, fit_power_law, in_regime_amplitude, run_sweep,
                            write_sweep_outputs)


class TestFitPowerLaw:
    def test_exact_synthetic(self):
        mu = np.geomspace(1.0, 10.0, 6)
        expo, intercept, resid = fit_power_law(list(zip(mu, 3.0 * mu**-2)))
        assert expo == pytest.approx(-2.0, abs=1e-12)
        assert np.exp(intercept) == pytest.approx(3.0, rel=1e-12)
        assert resid < 1e-12

    def test_noisy_recovery(self):
        rng = np.random.default_rng(42)
        mu = np.geomspace(1.0, 10.0, 8)
        t = 3.0 * mu**-2 * (1.0 + 0.05 * rng.standard_normal(8))
        expo, _, _ = fit_power_law(list(zip(mu, t)))
        assert expo == pytest.approx(-2.0, abs=0.1)

    def test_constant_series(self):
        mu = np.geomspace(1.0, 10.0, 5)
        expo, _, _ = fit_power_law([(m, 7.0) for m in mu])
        assert expo == pytest.approx(0.0, abs=1e-12)

    def test_refusals(self):
        with pytest.raises(ValueError):
            fit_power_law([(1.0, 1.0), (2.0, 0.5), (3.0, 0.3)])
        with pytest.raises(ValueError):
            fit_power_law([(1.0, 1.0), (1.0, 0.5), (2.0, 0.3), (3.0, 0.2)])
        # non-finite entries are dropped before the count check
        with pytest.raises(ValueError):
            fit_power_law([(1.0, np.inf), (2.0, 0.5), (3.0, 0.3), (4.0, 0.2)])


@pytest.fixture(scope="module")
def inner_setup(quad):
    params = ProblemParams(n=1, p=2.0, lam=1j)
    constants = compute_constants(params, 1.2)
    grid = GridSpec(1, 40.0, 8192)
    return params, constants, grid


class TestRunSweep:
    def test_short_sweep_rows_and_fit(self, inner_setup):
        params, constants, grid = inner_setup
        edge = in_regime_amplitude("inner-singular", 0.25, params, constants, 0.45)
        plan = SweepPlan(params=params, kind="inner-singular", k=0.25,
                         mu_values=tuple(np.geomspace(edge, 10 * edge, 4)),
                         grid=grid)
        result = run_sweep(plan, constants)
        assert len(result.rows) == 4
        assert all(r.blew_up and r.in_regime for r in result.rows)
        assert result.fitted_exponent_bound == pytest.approx(
            result.predicted_exponent, rel=1e-10)
        assert result.fitted_exponent_num == pytest.approx(
            result.predicted_exponent, rel=0.2)
        for r in result.rows:
            assert r.t_num <= 1.1 * r.t_prop

    def test_single_row_skips_fit(self, inner_setup, recwarn):
        params, constants, grid = inner_setup
        plan = SweepPlan(params=params, kind="inner-singular", k=0.25,
                         mu_values=(30.0,), grid=grid)
        result = run_sweep(plan, constants)
        assert result.fitted_exponent_num is None
        assert any("usable rows" in w for w in result.warnings)

    def test_failed_row_is_isolated(self, inner_setup):
        params, constants, grid = inner_setup
        # an amplitude far below the regime cannot build a conclusive bound
        # but must not raise out of the sweep
        plan = SweepPlan(params=params, kind="inner-singular", k=0.25,
                         mu_values=(0.001, 30.0), grid=grid)
        result = run_sweep(plan, constants)
        assert len(result.rows) == 2
        assert not result.rows[0].blew_up
        assert result.rows[1].blew_up

    def test_numerical_failure_recorded_on_row(self, inner_setup, monkeypatch):
        params, constants, grid = inner_setup

        def overflow(*args, **kwargs):
            raise FloatingPointError("overflow in the stepper")

        monkeypatch.setattr(sweep, "evolve", overflow)
        result = run_sweep(SweepPlan(params=params, kind="inner-singular", k=0.25,
                                     mu_values=(30.0,), grid=grid), constants)
        assert result.rows[0].failed
        assert result.rows[0].note == "FloatingPointError: overflow in the stepper"

    def test_programming_error_propagates(self, inner_setup, monkeypatch):
        params, constants, grid = inner_setup

        def broken(*args, **kwargs):
            raise TypeError("evolve() got an unexpected keyword argument")

        monkeypatch.setattr(sweep, "evolve", broken)
        with pytest.raises(TypeError):
            run_sweep(SweepPlan(params=params, kind="inner-singular", k=0.25,
                                mu_values=(30.0,), grid=grid), constants)

    def test_radius_below_grid_spacing_not_in_regime(self, quad):
        # 2D, p = 2, lam = i, L = 4, N = 256, k = 0.5 with the automatic
        # range: the top three of 8 amplitudes have R* < dx = 0.03125
        params = ProblemParams(n=2, p=2.0, lam=1j)
        constants = compute_constants(params, 1.2)
        grid = GridSpec(2, 4.0, 256)
        edge = in_regime_amplitude("inner-singular", 0.5, params, constants, 0.45)
        mu = np.geomspace(edge, 10.0 * edge, 8)
        result = run_sweep(SweepPlan(params=params, kind="inner-singular", k=0.5,
                                     mu_values=(mu[4], mu[5], mu[7]), grid=grid), constants)
        above, *below = result.rows
        assert grid.dx < above.r_star < 2 * grid.dx and above.in_regime
        for row in below:
            assert row.r_star < grid.dx
            assert not row.in_regime and not row.blew_up and not row.failed
            assert "dx=0.03125" in row.note
        assert any(str(below[-1].mu) in w for w in result.warnings)
        assert not any("np.float64" in w for w in result.warnings)

    def test_inner_row_builds_one_lattice_report(self, inner_setup, monkeypatch):
        # the cap's R* comes from the closed form, so a row calls blowup_radius once
        params, constants, grid = inner_setup
        calls = []

        def counting(spec, *args):
            calls.append(spec)
            return blowup_radius(spec, *args)

        monkeypatch.setattr(sweep, "blowup_radius", counting)
        result = run_sweep(SweepPlan(params=params, kind="inner-singular", k=0.25,
                                     mu_values=(30.0,), grid=grid), constants)
        assert len(calls) == 1 and result.rows[0].blew_up
        assert calls[0].cap_radius == max(0.15 * result.rows[0].r_star, 0.75 * grid.dx)

    def test_row_builds_initial_data_once(self, inner_setup, monkeypatch):
        # M_R(0) is measured on the field that is then evolved
        params, constants, grid = inner_setup
        built, measured = [], []

        def building(*args):
            built.append(make_initial_data(*args))
            return built[-1]

        def measuring(spec, constants, params, data):
            measured.append(data)
            return blowup_radius(spec, constants, params, data)

        monkeypatch.setattr(sweep, "make_initial_data", building)
        monkeypatch.setattr(sweep, "blowup_radius", measuring)
        result = run_sweep(SweepPlan(params=params, kind="inner-singular", k=0.25,
                                     mu_values=(30.0, 60.0), grid=grid), constants)
        assert all(r.blew_up for r in result.rows)
        assert len(built) == 2 and all(m is b for m, b in zip(measured, built))

    def test_plan_validation(self, inner_setup):
        params, _, grid = inner_setup
        with pytest.raises(ValueError):
            SweepPlan(params=params, kind="gaussian", k=0.25,
                      mu_values=(1.0,), grid=grid)
        with pytest.raises(ValueError):
            SweepPlan(params=params, kind="inner-singular", k=0.25,
                      mu_values=(2.0, 1.0), grid=grid)

    def test_workers_match_serial(self, inner_setup):
        params, constants, grid = inner_setup
        mus = tuple(np.geomspace(25.0, 60.0, 3))
        serial = run_sweep(SweepPlan(params=params, kind="inner-singular", k=0.25,
                                     mu_values=mus, grid=grid), constants)
        threaded = run_sweep(SweepPlan(params=params, kind="inner-singular", k=0.25,
                                       mu_values=mus, grid=grid, workers=3), constants)
        for a, b in zip(serial.rows, threaded.rows):
            assert a.t_num == b.t_num and a.r_star == b.r_star

    def test_outputs_deterministic(self, inner_setup, tmp_path):
        params, constants, grid = inner_setup
        plan = SweepPlan(params=params, kind="inner-singular", k=0.25,
                         mu_values=(25.0, 40.0), grid=grid)
        result = run_sweep(plan, constants)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        write_sweep_outputs(result, d1)
        write_sweep_outputs(run_sweep(plan, constants), d2)
        assert (d1 / "sweep_rows.csv").read_bytes() == (d2 / "sweep_rows.csv").read_bytes()
        assert (d1 / "sweep_result.json").read_bytes() == (d2 / "sweep_result.json").read_bytes()
