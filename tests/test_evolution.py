"""Split-step integrator: propagator, orders, blow-up detection, scaling."""
import math

import numpy as np
import pytest

from fracblow import evolution
from fracblow.evolution import (ProblemParams, UnresolvedFieldError, evolve,
                                linear_propagator, nonlinear_step, scaling_check,
                                spectral_tail_fraction, strang_step)
from fracblow.grid import Field, GridSpec


def gaussian_packet(x):
    return np.exp(-x * x) * np.exp(0.5j * x)


class TestLinearPropagator:
    def test_zero_duration_is_identity(self):
        g = GridSpec(1, 10.0, 128)
        f = Field.from_function(g, gaussian_packet)
        out = linear_propagator(f, 0.0)
        assert np.array_equal(out.values, f.values)

    def test_single_mode_phase(self):
        g = GridSpec(1, 10.0, 128)
        k = 2.0 * np.pi * 5 / (2 * g.L)
        f = Field.from_function(g, lambda x: np.exp(1j * k * x))
        out = linear_propagator(f, 0.37)
        want = np.exp(1j * 0.37 * abs(k)) * f.values
        assert np.max(np.abs(out.values - want)) < 1e-13

    def test_l2_preserved(self):
        rng = np.random.default_rng(2)
        g = GridSpec(1, 10.0, 256)
        f = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        out = linear_propagator(f, 4.2)
        assert out.l2_norm() == pytest.approx(f.l2_norm(), rel=1e-13)


class TestNonlinearStep:
    def test_zero_field_fixed(self):
        g = GridSpec(1, 10.0, 64)
        out = nonlinear_step(Field.zeros(g), 0.1, ProblemParams(1, 2.0, 1j))
        assert np.all(out.values == 0)

    def test_scalar_ode_local_order_three(self):
        # lam = i, p = 2, constant real c: the pointwise ODE is u' = u^2
        # with exact value c/(1 - c dt)
        g = GridSpec(1, 10.0, 8)
        params = ProblemParams(1, 2.0, 1j)
        c = 0.8
        errs = []
        for dt in (0.01, 0.005):
            got = nonlinear_step(Field(g, np.full(g.shape, c, complex)), dt, params)
            errs.append(abs(got.values.flat[0] - c / (1 - c * dt)))
        assert errs[0] / errs[1] == pytest.approx(8.0, rel=0.15)

    def test_scalar_ode_global_order_two(self):
        # fixed horizon: halving dt divides the error by about four
        g = GridSpec(1, 10.0, 8)
        params = ProblemParams(1, 2.0, 1j)
        T, errs = 0.5, []
        for nsteps in (16, 32):
            u = Field(g, np.full(g.shape, 1.0, complex))
            for _ in range(nsteps):
                u = nonlinear_step(u, T / nsteps, params)
            errs.append(abs(u.values.flat[0] - 1.0 / (1.0 - T)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)


class TestEvolve:
    def test_free_flow_conserves_l2(self):
        g = GridSpec(1, 20.0, 1024)
        u0 = Field.from_function(g, gaussian_packet)
        params = ProblemParams(1, 2.0, 0.0)
        rec = evolve(u0, params, 0.01, 10.0, 1.0)
        assert not rec.blew_up
        drift = np.max(np.abs(rec.l2_norm - rec.l2_norm[0])) / rec.l2_norm[0]
        assert drift < 1e-12
        assert np.max(rec.sup_norm) < 2 * rec.sup_norm[0]

    def test_free_flow_reversible(self):
        g = GridSpec(1, 20.0, 1024)
        u0 = Field.from_function(g, gaussian_packet)
        params = ProblemParams(1, 2.0, 0.0)
        rec = evolve(u0, params, 0.01, 2.0, 1.0)
        back = linear_propagator(rec.final, -rec.times[-1])
        assert np.max(np.abs(back.values - u0.values)) < 1e-11

    def test_times_strictly_increasing(self):
        g = GridSpec(1, 20.0, 512)
        u0 = Field.from_function(g, gaussian_packet)
        rec = evolve(u0, ProblemParams(1, 2.0, 1.0), 0.02, 0.5, 1.0)
        assert np.all(np.diff(rec.times) > 0)

    def test_refusal_on_underresolved_data(self):
        g = GridSpec(1, 20.0, 64)
        rng = np.random.default_rng(0)
        u0 = Field(g, rng.standard_normal(g.shape) + 0j)  # white spectrum
        with pytest.raises(UnresolvedFieldError):
            evolve(u0, ProblemParams(1, 2.0, 1j), 0.01, 1.0, 1.0)
        with pytest.raises(UnresolvedFieldError):
            scaling_check(u0, ProblemParams(1, 2.0, 1j), 0.01, 0.32, 2.0)
        assert spectral_tail_fraction(u0) > 1e-3

    def test_nonpositive_weight_radius_rejected(self):
        g = GridSpec(1, 20.0, 512)
        u0 = Field.from_function(g, gaussian_packet)
        with pytest.raises(ValueError, match="weight radius must be positive"):
            evolve(u0, ProblemParams(1, 2.0, 1j), 0.01, 1.0, 0.0)

    def test_zero_data_rejected(self):
        # sup|u0| = 0 leaves no blow-up threshold
        u0 = Field.zeros(GridSpec(1, 20.0, 512))
        with pytest.raises(ValueError, match="initial sup norm"):
            evolve(u0, ProblemParams(1, 2.0, 1j), 0.01, 1.0, 1.0)

    def test_blowup_flagged_on_focusing_data(self):
        # real positive data with lam = i feeds its own modulus
        g = GridSpec(1, 40.0, 2048)
        u0 = Field.from_function(g, lambda x: 6.0 * np.exp(-x * x) + 0j)
        params = ProblemParams(1, 2.0, 1j)
        rec = evolve(u0, params, 0.002, 2.0, 1.0)
        assert rec.blew_up and rec.t_num is not None
        assert rec.threshold == 25 * u0.sup_norm() <= rec.sup_norm[-1]
        assert rec.t_num < 0.5
        # sup-norm nondecreasing once past 10x the initial sup
        sup = rec.sup_norm
        hot = sup >= 10 * sup[0]
        if hot.any():
            start = int(np.argmax(hot))
            assert np.all(np.diff(sup[start:]) >= -1e-9 * sup[start:][:-1])

    def test_two_ffts_per_step(self, monkeypatch):
        # one DFT of u0, one of the weight, then one transform each way a step
        g = GridSpec(1, 20.0, 512)
        u0 = Field.from_function(g, gaussian_packet)
        calls = []
        for name in ("fftn", "ifftn"):
            def counted(*args, _fn=getattr(np.fft, name), **kwargs):
                calls.append(_fn)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        rec = evolve(u0, ProblemParams(1, 2.0, 1j), 0.01, 0.2, 1.0)
        monkeypatch.undo()
        k = len(rec.times) - 1
        assert k == 20 and not rec.blew_up
        assert len(calls) <= 2 * k + 2

    @pytest.mark.parametrize("grid, data", [
        (GridSpec(1, 20.0, 1024), lambda x: 1.5 * np.exp(-x * x) * np.exp(0.5j * x)),
        (GridSpec(2, 10.0, 64), lambda x, y: 1.5 * np.exp(-(x**2 + y**2)) * np.exp(0.5j * x)),
    ])
    def test_spectral_readings_match_the_final_state(self, grid, data):
        # M_R and L2 come from the spectrum; the final values give the same numbers
        params = ProblemParams(grid.n, 2.0, 1j)
        rec = evolve(Field.from_function(grid, data), params, 0.01, 0.3, 1.5)
        want_m = evolution.weighted_functional(rec.final, params.alpha, 1.5)
        assert rec.m_r[-1] == pytest.approx(want_m, rel=1e-12)
        assert rec.l2_norm[-1] == pytest.approx(rec.final.l2_norm(), rel=1e-12)

    def test_free_flow_conserves_l2_dim2(self):
        g = GridSpec(2, 10.0, 64)
        u0 = Field.from_function(g, lambda x, y: np.exp(-(x**2 + y**2)) + 0j)
        rec = evolve(u0, ProblemParams(2, 2.0, 0.0), 0.02, 1.0, 1.0)
        drift = np.max(np.abs(rec.l2_norm - rec.l2_norm[0])) / rec.l2_norm[0]
        assert drift < 1e-12

    def test_phase_cache_emptied_when_evolve_ends(self, monkeypatch):
        # no half-step phase outlives its run, whether the run returns or raises
        g = GridSpec(2, 10.0, 64)
        u0 = Field.from_function(g, lambda x, y: np.exp(-(x**2 + y**2)) + 0j)
        params = ProblemParams(2, 2.0, 1j)
        evolve(u0, params, 0.02, 0.2, 1.0)
        assert evolution._half_step_phase.cache_info().currsize == 0

        kernel = evolution.strang_step

        def step_then_fail(f, dt, params):
            kernel(f, dt, params)
            raise RuntimeError("stepper failed")

        monkeypatch.setattr(evolution, "strang_step", step_then_fail)
        with pytest.raises(RuntimeError, match="stepper failed"):
            evolve(u0, params, 0.02, 0.2, 1.0)
        assert evolution._half_step_phase.cache_info().currsize == 0

    def test_strang_self_convergence_second_order(self):
        g = GridSpec(1, 20.0, 1024)
        params = ProblemParams(1, 2.0, 1.0 + 0.5j)
        T = 0.4

        def run(nsteps):
            u = Field.from_function(g, lambda x: 1.2 * np.exp(-x * x) + 0j)
            for _ in range(nsteps):
                u = strang_step(u, T / nsteps, params)
            return u.values

        ref = run(1024)
        errs = [np.linalg.norm(run(n) - ref) for n in (32, 64, 128)]
        slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(1.8 <= s <= 2.2 for s in slopes)


def reference_step(f, dt, params):
    """The Strang composition spelled out with the public building blocks."""
    stage = nonlinear_step(linear_propagator(f, 0.5 * dt), dt, params)
    out = linear_propagator(stage, 0.5 * dt)
    return Field(f.grid, out.values, spectrum=np.fft.fftn(out.values),
                 stage_sup=stage.sup_norm())


class TestStrangKernel:
    @pytest.mark.parametrize("grid, data", [
        (GridSpec(1, 20.0, 1024), lambda x: 1.2 * np.exp(-x * x) + 0j),
        (GridSpec(2, 10.0, 64), lambda x, y: 1.2 * np.exp(-(x**2 + y**2)) * np.exp(0.5j * x)),
    ])
    def test_matches_reference_composition(self, grid, data):
        params = ProblemParams(grid.n, 2.0, 1.0 + 0.5j)
        u = ref = Field.from_function(grid, data)
        for _ in range(50):
            u = strang_step(u, 0.01, params)
            ref = reference_step(ref, 0.01, params)
            err = np.linalg.norm(u.values - ref.values) / np.linalg.norm(ref.values)
            assert err <= 1e-12

    def test_carries_spectrum_and_leaves_input_alone(self):
        # a rejected step is retried from the same input, spectrum included
        g = GridSpec(1, 20.0, 256)
        params = ProblemParams(1, 2.0, 1j)
        u = strang_step(Field.from_function(g, gaussian_packet), 0.05, params)
        values, spectrum = u.values.copy(), u.spectrum.copy()
        out = strang_step(u, 0.05, params)
        strang_step(u, 0.025, params)
        assert np.array_equal(u.values, values) and np.array_equal(u.spectrum, spectrum)
        assert np.max(np.abs(out.spectrum - np.fft.fft(out.values))) \
            <= 1e-12 * np.max(np.abs(out.spectrum))
        assert u.copy().spectrum is None

    def test_values_are_one_lazy_inverse_dft(self):
        g = GridSpec(1, 20.0, 256)
        out = strang_step(Field.from_function(g, gaussian_packet), 0.05,
                          ProblemParams(1, 2.0, 1j))
        values = out.values
        assert np.array_equal(values, np.fft.ifftn(out.spectrum))
        assert not values.flags.writeable
        assert out.values is values

    def test_stage_sup_is_the_post_source_sup(self):
        g = GridSpec(1, 20.0, 512)
        params = ProblemParams(1, 2.0, 1.0 + 0.5j)
        u = Field.from_function(g, lambda x: 1.2 * np.exp(-x * x) * np.exp(0.5j * x))
        for _ in range(3):
            out = strang_step(u, 0.05, params)
            want = nonlinear_step(linear_propagator(u, 0.025), 0.05, params).sup_norm()
            # the kernel reuses a carried spectrum where the reference takes a new DFT
            assert out.stage_sup == pytest.approx(want, rel=1e-12)
            u = out

    def test_output_is_read_only(self):
        # an in-place edit would leave the carried spectrum stale
        g = GridSpec(1, 20.0, 256)
        out = strang_step(Field.from_function(g, gaussian_packet), 0.05,
                          ProblemParams(1, 2.0, 1j))
        for arr in (out.values, out.spectrum):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        copy = out.copy()
        copy.values[0] = 0.0
        assert out.values[0] != 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_evolve_rejects_non_finite_trial(self, monkeypatch, bad):
        # the first attempt at dt = 0.02 comes back non-finite and must be
        # retried at 0.01, which then runs exactly like a dt = 0.01 run
        g = GridSpec(1, 20.0, 256)
        u0 = Field.from_function(g, gaussian_packet)
        params = ProblemParams(1, 2.0, 1j)
        kernel, sizes = evolution.strang_step, []

        def first_call_bad(f, dt, params):
            sizes.append(dt)
            out = kernel(f, dt, params)
            if len(sizes) == 1:
                values = out.values.copy()
                values[7] = bad
                return Field(f.grid, values, stage_sup=bad)
            return out

        monkeypatch.setattr(evolution, "strang_step", first_call_bad)
        rec = evolve(u0, params, 0.02, 0.05, 1.0)
        monkeypatch.setattr(evolution, "strang_step", kernel)
        ref = evolve(u0, params, 0.01, 0.05, 1.0)

        assert sizes[:2] == [0.02, 0.01]
        assert np.all(np.isfinite(rec.final.values))
        assert not rec.blew_up and rec.t_num is None
        for name in ("times", "m_r", "sup_norm", "l2_norm"):
            assert np.array_equal(getattr(rec, name), getattr(ref, name))
        assert np.array_equal(rec.final.values, ref.final.values)

    def test_evolve_with_rejection_matches_reference(self, monkeypatch):
        # GROWTH_CAP 1.1 rejects the first dt = 0.02 step; the halved steps
        # then reach t_max = 0.037 with a shorter last step
        monkeypatch.setattr(evolution, "GROWTH_CAP", 1.1)
        g = GridSpec(1, 20.0, 512)
        u0 = Field.from_function(g, lambda x: 6.0 * np.exp(-x * x) + 0j)
        params = ProblemParams(1, 2.0, 1j)
        kernel, sizes = evolution.strang_step, []

        def spy(f, dt, params):
            sizes.append(dt)
            return kernel(f, dt, params)

        monkeypatch.setattr(evolution, "strang_step", spy)
        rec = evolve(u0, params, 0.02, 0.037, 1.0)
        monkeypatch.setattr(evolution, "strang_step", reference_step)
        ref = evolve(u0, params, 0.02, 0.037, 1.0)

        assert len(sizes) > len(rec.times) - 1        # a step was rejected
        assert len(set(sizes)) >= 3                   # 0.02, 0.01 and the last step
        assert not rec.blew_up and rec.times[-1] == pytest.approx(0.037)
        assert np.array_equal(rec.times, ref.times)
        assert rec.blew_up == ref.blew_up and rec.t_num == ref.t_num
        np.testing.assert_allclose(rec.m_r, ref.m_r, rtol=1e-10)
        np.testing.assert_allclose(rec.sup_norm, ref.sup_norm, rtol=1e-10)


class TestScalingCheck:
    def test_identity_scale_exact_zero(self):
        g = GridSpec(1, 20.0, 512)
        u0 = Field.from_function(g, lambda x: np.exp(-x * x))
        d = scaling_check(u0, ProblemParams(1, 2.0, 1.0), 0.01, 0.32, 1.0)
        assert d == 0.0

    def test_dilation_symmetry_and_order(self):
        g = GridSpec(1, 20.0, 2048)
        params = ProblemParams(1, 2.0, 1.0 + 0.5j)
        u0 = Field.from_function(g, lambda x: np.exp(-x * x))
        d = scaling_check(u0, params, 0.01, 0.64, 2.0)
        d_half = scaling_check(u0, params, 0.005, 0.64, 2.0)
        assert d <= 1e-3
        assert d / d_half == pytest.approx(4.0, rel=0.3)


@pytest.mark.parametrize("name", ["dt", "t_max"])
@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_config_validation(name, bad):
    # a NaN dt would be halved forever inside evolve
    values = dict(dt=0.01, t_max=1.0)
    values[name] = bad
    u0 = Field.from_function(GridSpec(1, 20.0, 256), gaussian_packet)
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        evolve(u0, ProblemParams(1, 2.0, 1j), weight_radius=1.0, **values)


def test_params_validation():
    with pytest.raises(ValueError):
        ProblemParams(1, 1.0, 1j)
    with pytest.raises(ValueError):
        ProblemParams(3, 2.0, 1j)
    p = ProblemParams(1, 2.0, 2j)
    assert p.alpha == pytest.approx(-1j)
    assert p.re_alpha_lam == pytest.approx(2.0)
    assert p.p_conj == pytest.approx(2.0)


@pytest.mark.parametrize("p, lam, alpha", [
    (math.inf, 1j, None), (math.nan, 1j, None), (2.0, complex(math.nan, 0.0), None),
    (2.0, complex(0.0, math.inf), None), (2.0, 1j, complex(math.nan, 1.0)),
    (2.0, 1j, complex(math.inf, 0.0)),
])
def test_params_reject_non_finite(p, lam, alpha):
    with pytest.raises(ValueError, match="finite"):
        ProblemParams(1, p, lam, alpha)
