"""Power-law fitting and the sweep driver."""
import csv
import math
import re

import numpy as np
import pytest

from fracblow import blowup, evolution, sweep
from fracblow.blowup import (InitialDataSpec, adapted_radius, compute_constants,
                             lifespan_bound, make_initial_data)
from fracblow.cli import main
from fracblow.evolution import ProblemParams, weighted_functional
from fracblow.grid import GridSpec
from fracblow.sweep import SweepPlan, fit_power_law, in_regime_amplitude, run_sweep


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
def inner_setup():
    params = ProblemParams(n=1, p=2.0, lam=1j)
    constants = compute_constants(params)
    grid = GridSpec(1, 40.0, 8192)
    return params, constants, grid


def run_sweep_command(tmp_path, out, mu_min, mu_max, count):
    """``fracblow sweep`` of the inner family on the lattice of ``inner_setup``."""
    path = tmp_path / "sweep.ini"
    path.write_text("[problem]\nn = 1\np = 2.0\nlambda = 1j\n\n[grid]\nL = 40\nN = 8192\n\n"
                    f"[sweep]\nkind = inner-singular\nk = 0.25\ncount = {count}\n"
                    f"mu_min = {mu_min!r}\nmu_max = {mu_max!r}\n")
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0


class TestRunSweep:
    def test_short_sweep_rows_and_fit(self, inner_setup):
        params, constants, grid = inner_setup
        edge = in_regime_amplitude("inner-singular", 0.25, constants, 0.45)
        plan = SweepPlan(params=params, kind="inner-singular", k=0.25,
                         mu_values=tuple(np.geomspace(edge, 10 * edge, 4)),
                         grid=grid)
        result = run_sweep(plan)
        assert len(result.rows) == 4
        assert all(r.blew_up and r.in_regime for r in result.rows)
        assert result.fitted_exponent_bound == pytest.approx(
            plan.predicted_exponent, rel=1e-10)
        assert result.fitted_exponent_num == pytest.approx(
            plan.predicted_exponent, rel=0.2)
        for r in result.rows:
            assert r.t_num <= 1.1 * r.t_prop

    def test_single_row_skips_fit(self, inner_setup, recwarn):
        params, constants, grid = inner_setup
        plan = SweepPlan(params=params, kind="inner-singular", k=0.25,
                         mu_values=(30.0,), grid=grid)
        result = run_sweep(plan)
        assert result.fitted_exponent_num is None
        assert any("usable rows" in w for w in result.warnings)

    def test_failed_row_is_isolated(self, inner_setup):
        params, constants, grid = inner_setup
        # an amplitude far below the regime cannot build a conclusive bound
        # but must not raise out of the sweep
        plan = SweepPlan(params=params, kind="inner-singular", k=0.25,
                         mu_values=(0.001, 30.0), grid=grid)
        result = run_sweep(plan)
        assert len(result.rows) == 2
        assert not result.rows[0].blew_up
        assert result.rows[1].blew_up

    def test_numerical_failure_recorded_on_row(self, inner_setup, monkeypatch):
        params, constants, grid = inner_setup

        def overflow(*args, **kwargs):
            raise FloatingPointError("overflow in the stepper")

        monkeypatch.setattr(sweep, "evolve", overflow)
        result = run_sweep(SweepPlan(params=params, kind="inner-singular", k=0.25,
                                     mu_values=(30.0,), grid=grid))
        assert result.rows[0].failed
        assert result.rows[0].note == "FloatingPointError: overflow in the stepper"

    def test_condition_column_follows_the_verdict(self, monkeypatch, tmp_path):
        # three rows out of regime (R* > 1), so none is evolved: the first
        # verdict raises, the second is inconclusive (M_R(0) = 0 is below the
        # threshold) and the third is conclusive
        readings = iter([None, 0.0, 1e6])

        def reading(*args):
            m0 = next(readings)
            if m0 is None:
                raise ValueError("no reading")
            return m0

        monkeypatch.setattr(sweep, "weighted_functional", reading)
        run_sweep_command(tmp_path, tmp_path, 1.0, 2.0, 3)
        with open(tmp_path / "sweep_rows.csv", newline="") as fh:
            failed, inconclusive, conclusive = csv.DictReader(fh)
        assert (failed["failed"], failed["t_prop"], failed["condition_holds"]) == ("1", "nan", "0")
        assert (inconclusive["t_prop"], inconclusive["condition_holds"]) == ("inf", "0")
        assert math.isfinite(float(conclusive["t_prop"]))
        assert conclusive["condition_holds"] == "1"

    def test_programming_error_propagates(self, inner_setup, monkeypatch):
        params, constants, grid = inner_setup

        def broken(*args, **kwargs):
            raise TypeError("evolve() got an unexpected keyword argument")

        monkeypatch.setattr(sweep, "evolve", broken)
        with pytest.raises(TypeError):
            run_sweep(SweepPlan(params=params, kind="inner-singular", k=0.25,
                                mu_values=(30.0,), grid=grid))

    def test_radius_below_grid_spacing_not_in_regime(self):
        # 2D, p = 2, lam = i, L = 4, N = 256, k = 0.5 with the automatic
        # range: the top three of 8 amplitudes have R* < dx = 0.03125
        params = ProblemParams(n=2, p=2.0, lam=1j)
        constants = compute_constants(params)
        grid = GridSpec(2, 4.0, 256)
        edge = in_regime_amplitude("inner-singular", 0.5, constants, 0.45)
        mu = np.geomspace(edge, 10.0 * edge, 8)
        result = run_sweep(SweepPlan(params=params, kind="inner-singular", k=0.5,
                                     mu_values=(mu[4], mu[5], mu[7]), grid=grid))
        above, *below = result.rows
        assert grid.dx < above.r_star < 2 * grid.dx and above.in_regime
        for row in below:
            assert row.r_star < grid.dx
            assert not row.in_regime and not row.blew_up and not row.failed
            assert "dx=0.03125" in row.note
        assert any(str(below[-1].mu) in w for w in result.warnings)
        assert not any("np.float64" in w for w in result.warnings)

    def test_inner_row_builds_one_lattice_report(self, inner_setup, monkeypatch):
        # one closed-form R* serves both the cap and the verdict, and a row
        # takes one verdict, on the capped data
        params, constants, grid = inner_setup
        radii, verdicts, built = [], [], []

        def counting(spec, *args):
            radii.append(spec)
            return adapted_radius(spec, *args)

        def judging(*args):
            verdicts.append(args)
            return lifespan_bound(*args)

        def building(spec, *args):
            built.append(spec)
            return make_initial_data(spec, *args)

        for module in (blowup, sweep):   # a call through either module counts
            monkeypatch.setattr(module, "adapted_radius", counting)
        monkeypatch.setattr(sweep, "lifespan_bound", judging)
        monkeypatch.setattr(sweep, "make_initial_data", building)
        result = run_sweep(SweepPlan(params=params, kind="inner-singular", k=0.25,
                                     mu_values=(30.0,), grid=grid))
        assert len(radii) == 1 and len(verdicts) == 1 and result.rows[0].blew_up
        assert verdicts[0][2] == result.rows[0].r_star
        assert built[0].cap_radius == max(0.15 * result.rows[0].r_star, 0.75 * grid.dx)

    def test_row_builds_initial_data_once(self, inner_setup, monkeypatch):
        # M_R(0) is measured on the field that is then evolved
        params, constants, grid = inner_setup
        built, measured = [], []

        def building(*args):
            built.append(make_initial_data(*args))
            return built[-1]

        def measuring(data, grid, alpha, R):
            measured.append(data)
            return weighted_functional(data, grid, alpha, R)

        monkeypatch.setattr(sweep, "make_initial_data", building)
        monkeypatch.setattr(sweep, "weighted_functional", measuring)
        result = run_sweep(SweepPlan(params=params, kind="inner-singular", k=0.25,
                                     mu_values=(30.0, 60.0), grid=grid))
        assert all(r.blew_up for r in result.rows)
        assert len(built) == 2 and all(m is b for m, b in zip(measured, built))

    @pytest.mark.parametrize("n, L, N, k, radii", [(1, 40.0, 8192, 0.25, (0.3, 2.0)),
                                                   (2, 4.0, 128, 0.5, (0.45, 0.3, 2.0))])
    def test_rows_take_no_lattice_wide_samples(self, monkeypatch, n, L, N, k, radii):
        # radial data are built, judged and stepped on the even part: no row
        # samples |x| at every lattice site, and the rows equal an unpatched run's
        params = ProblemParams(n=n, p=2.0, lam=1j)
        constants = compute_constants(params)
        mu = sorted(in_regime_amplitude("inner-singular", k, constants, r) for r in radii)
        plan = SweepPlan(params=params, kind="inner-singular", k=k, mu_values=tuple(mu),
                         grid=GridSpec(n, L, N))
        want = run_sweep(plan).rows

        def no_lattice(self):
            raise AssertionError("a row sampled the whole lattice")

        monkeypatch.setattr(GridSpec, "radii", no_lattice)
        rows = run_sweep(plan).rows
        assert rows == want
        assert [r.blew_up for r in rows] == [False] + [True] * (len(radii) - 1)

    @pytest.mark.parametrize("n, L, N, k, radii", [(1, 40.0, 8192, 0.25, (0.3, 2.0)),
                                                   (2, 4.0, 128, 0.5, (0.45, 0.3, 2.0))])
    def test_rows_build_one_test_weight(self, monkeypatch, n, L, N, k, radii):
        # a row's verdict builds its one test weight, at R*; its evolve
        # builds none and takes no spectral reading
        params = ProblemParams(n=n, p=2.0, lam=1j)
        constants = compute_constants(params)
        mu = sorted(in_regime_amplitude("inner-singular", k, constants, r) for r in radii)
        plan = SweepPlan(params=params, kind="inner-singular", k=k, mu_values=tuple(mu),
                         grid=GridSpec(n, L, N))
        want = run_sweep(plan).rows
        weight, evolve = evolution._test_weight, sweep.evolve
        weights, evolved = [], []

        def weighing(grid, R):
            weights.append(R)
            return weight(grid, R)

        def evolving(*args):
            evolved.append(args)
            return evolve(*args)

        def no_reading(*args):
            raise AssertionError("a row took a spectral reading")

        monkeypatch.setattr(evolution, "_test_weight", weighing)
        monkeypatch.setattr(evolution, "_spectral_readings", no_reading)
        monkeypatch.setattr(sweep, "evolve", evolving)
        rows = run_sweep(plan).rows
        assert rows == want
        # R* = 2 lies outside the loose edge: that row is judged, not evolved
        assert weights == [r.r_star for r in rows]
        assert len(evolved) == len(radii) - 1

    def test_constants_follow_the_plan(self, inner_setup):
        # R* and the predicted exponent both follow plan.params.p = 1.5; the
        # row sits out of regime (R* = 2), so nothing is evolved
        _, p2_constants, grid = inner_setup
        params = ProblemParams(n=1, p=1.5, lam=1j)
        mu = in_regime_amplitude("inner-singular", 0.25, compute_constants(params), 2.0)
        plan = SweepPlan(params=params, kind="inner-singular", k=0.25, mu_values=(mu,), grid=grid)
        result = run_sweep(plan)
        spec = InitialDataSpec(kind="inner-singular", mu=mu, k=0.25)
        assert result.rows[0].r_star == pytest.approx(2.0, rel=1e-12)
        assert adapted_radius(spec, p2_constants)[0] != pytest.approx(2.0, rel=0.1)
        assert plan.predicted_exponent == pytest.approx(-1.0 / (2.0 - 0.25), rel=1e-12)

    @pytest.mark.parametrize("p, kind, k, grid, r_star, note", [
        pytest.param(2.0, "inner-singular", 0.25, GridSpec(1, 40.0, 32768), 2.0,
                     "R*=2 (regime needs R* < 1, strict < 0.5)", id="inner"),
        pytest.param(1.25, "outer-decay", 0.6, GridSpec(1, 256.0, 16384), 5.0,
                     "R*=5 (regime needs R* > 10, strict > 20)", id="outer"),
    ])
    def test_out_of_regime_row_is_noted_and_not_evolved(self, monkeypatch, p, kind, k, grid,
                                                        r_star, note):
        # one amplitude beyond the loose edge of each family, on the lattices
        # of the acceptance sweeps
        def no_evolution(*args, **kwargs):
            raise AssertionError("an out-of-regime row was evolved")

        monkeypatch.setattr(sweep, "evolve", no_evolution)
        params = ProblemParams(n=1, p=p, lam=1j)
        mu = in_regime_amplitude(kind, k, compute_constants(params), r_star)
        result = run_sweep(SweepPlan(params=params, kind=kind, k=k, mu_values=(mu,),
                                     grid=grid))
        (row,) = result.rows
        assert row.r_star == pytest.approx(r_star, rel=1e-12)
        assert row.note == note
        assert row.in_regime is False and row.t_num is None and not row.failed

    def test_plan_validation(self, inner_setup):
        params, _, grid = inner_setup
        with pytest.raises(ValueError):
            SweepPlan(params=params, kind="gaussian", k=0.25,
                      mu_values=(1.0,), grid=grid)
        with pytest.raises(ValueError):
            SweepPlan(params=params, kind="inner-singular", k=0.25,
                      mu_values=(2.0, 1.0), grid=grid)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="mu values must be finite"):
                SweepPlan(params=params, kind="inner-singular", k=0.25,
                          mu_values=(30.0, bad), grid=grid)
        # the family must fit the problem (n = 1, p = 2) and the grid its dimension
        for kind, k, message in (("inner-singular", 0.7, "inner-singular needs k < n/2"),
                                 ("inner-singular", float("nan"), "needs k < n/2: k=nan"),
                                 ("outer-decay", 0.4, "outer-decay needs k > n/2"),
                                 ("outer-decay", 1.5, "outer-decay needs k < 1/(p-1)")):
            with pytest.raises(ValueError, match=re.escape(message)):
                SweepPlan(params=params, kind=kind, k=k, mu_values=(30.0,), grid=grid)
        with pytest.raises(ValueError, match="grid dimension 2 differs from n = 1"):
            SweepPlan(params=params, kind="inner-singular", k=0.25,
                      mu_values=(30.0,), grid=GridSpec(2, 4.0, 64))

    @pytest.mark.parametrize("key", ["dt_factor", "dt_base"])
    @pytest.mark.parametrize("value", [-0.2, 0.0, float("nan"), float("inf")])
    def test_step_sizes_validated(self, inner_setup, key, value):
        params, _, grid = inner_setup
        with pytest.raises(ValueError, match=f"{key} must be finite and positive"):
            SweepPlan(params=params, kind="inner-singular", k=0.25,
                      mu_values=(30.0,), grid=grid, **{key: value})


    def test_outputs_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_sweep_command(tmp_path, d1, 25.0, 40.0, 2)
        run_sweep_command(tmp_path, d2, 25.0, 40.0, 2)
        assert (d1 / "sweep_rows.csv").read_bytes() == (d2 / "sweep_rows.csv").read_bytes()
        assert (d1 / "sweep_result.json").read_bytes() == (d2 / "sweep_result.json").read_bytes()
