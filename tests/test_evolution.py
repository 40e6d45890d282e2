"""Split-step integrator: propagator, orders, blow-up detection, scaling."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracblow import evolution
from fracblow.evolution import (ProblemParams, UnresolvedFieldError, evolve,
                                linear_propagator, nonlinear_step,
                                spectral_tail_fraction, strang_step)
from fracblow.grid import Field, GridSpec
from fracblow.profiles import bracket
from verification import scaling_check


def gaussian_packet(x):
    return np.exp(-x * x) * np.exp(0.5j * x)


def count_ffts(monkeypatch):
    """The list to which every np.fft.fftn and ifftn call appends, until monkeypatch.undo()."""
    calls = []
    for name in ("fftn", "ifftn"):
        def counted(*args, _fn=getattr(np.fft, name), **kwargs):
            calls.append(_fn)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


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
        assert spectral_tail_fraction(np.fft.fftn(u0.values), g) > 1e-3

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
        calls = count_ffts(monkeypatch)
        rec = evolve(u0, ProblemParams(1, 2.0, 1j), 0.01, 0.2, 1.0)
        monkeypatch.undo()
        k = len(rec.times) - 1
        assert k == 20 and not rec.blew_up
        assert len(calls) <= 2 * k + 2

    @pytest.mark.parametrize("grid, data", [
        (GridSpec(1, 20.0, 1024), lambda x: 1.5 * np.exp(-x * x) * np.exp(0.5j * x)),
        (GridSpec(2, 10.0, 64), lambda x, y: 1.5 * np.exp(-(x**2 + y**2)) * np.exp(0.5j * x)),
        (GridSpec(2, 3.7, 64), lambda x, y: 1.5 * np.exp(-(x**2 + y**2)) * (1.0 + 0.5j)),
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
    """The Strang composition spelled out with the public building blocks:
    the output and the sup norm of its post-source stage."""
    stage = nonlinear_step(linear_propagator(f, 0.5 * dt), dt, params)
    return linear_propagator(stage, 0.5 * dt), stage.sup_norm()


def reference_kernel(grid):
    """``reference_step`` on the lattice ``grid``, called as ``evolution._step``."""
    def kernel(spec, phase, dt, params, dft=None):
        out, stage_sup = reference_step(Field(grid, np.fft.ifftn(spec)), dt, params)
        return np.fft.fftn(out.values), stage_sup
    return kernel


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
            ref, _ = reference_step(ref, 0.01, params)
            err = np.linalg.norm(u.values - ref.values) / np.linalg.norm(ref.values)
            assert err <= 1e-12

    def test_carries_spectrum_and_leaves_input_alone(self):
        # strang_step is the kernel between two DFTs, and leaves its input alone
        g = GridSpec(1, 20.0, 256)
        params = ProblemParams(1, 2.0, 1j)
        u = strang_step(Field.from_function(g, gaussian_packet), 0.05, params)
        values = u.values.copy()
        out = strang_step(u, 0.05, params)
        strang_step(u, 0.025, params)
        assert np.array_equal(u.values, values)
        spec, _ = evolution._step(np.fft.fftn(values), evolution._half_step_phase(g, 0.05),
                                  0.05, params)
        assert np.array_equal(out.values, np.fft.ifftn(spec))

    def test_kernel_leaves_its_spectrum_for_a_retry(self):
        # a rejected step is retried from the same spectrum: the kernel must
        # not write it, and the retry repeats the step bit for bit
        g = GridSpec(1, 20.0, 256)
        params = ProblemParams(1, 2.0, 1j)
        spec = np.fft.fftn(Field.from_function(g, gaussian_packet).values)
        before = spec.copy()
        phase = evolution._half_step_phase(g, 0.05)
        out, stage_sup = evolution._step(spec, phase, 0.05, params)
        evolution._step(spec, evolution._half_step_phase(g, 0.025), 0.025, params)
        assert np.array_equal(spec, before)
        again, again_sup = evolution._step(spec, phase, 0.05, params)
        assert np.array_equal(again, out) and again_sup == stage_sup

    def test_stage_sup_is_the_post_source_sup(self):
        g = GridSpec(1, 20.0, 512)
        params = ProblemParams(1, 2.0, 1.0 + 0.5j)
        u = Field.from_function(g, lambda x: 1.2 * np.exp(-x * x) * np.exp(0.5j * x))
        spec = np.fft.fftn(u.values)
        for _ in range(3):
            spec, stage_sup = evolution._step(spec, evolution._half_step_phase(g, 0.05),
                                              0.05, params)
            want = nonlinear_step(linear_propagator(u, 0.025), 0.05, params).sup_norm()
            # the kernel carries the spectrum where the reference takes a new DFT
            assert stage_sup == pytest.approx(want, rel=1e-12)
            u = Field(g, np.fft.ifftn(spec))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_evolve_rejects_non_finite_trial(self, monkeypatch, bad):
        # the first attempt at dt = 0.02 comes back non-finite and must be
        # retried at 0.01, which then runs exactly like a dt = 0.01 run
        g = GridSpec(1, 20.0, 256)
        u0 = Field.from_function(g, gaussian_packet)
        params = ProblemParams(1, 2.0, 1j)
        kernel, sizes = evolution._step, []

        def first_call_bad(spec, phase, dt, params, dft=None):
            sizes.append(dt)
            out, stage_sup = kernel(spec, phase, dt, params, dft)
            if len(sizes) == 1:
                out[7] = bad
                return out, bad
            return out, stage_sup

        monkeypatch.setattr(evolution, "_step", first_call_bad)
        rec = evolve(u0, params, 0.02, 0.05, 1.0)
        monkeypatch.setattr(evolution, "_step", kernel)
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
        # not even, so that the full lattice is stepped (see TestEvenQuarter for the half)
        u0 = Field.from_function(g, lambda x: 6.0 * np.exp(-x * x) * np.exp(0.5j * x))
        params = ProblemParams(1, 2.0, 1j)
        kernel, sizes = evolution._step, []

        def spy(spec, phase, dt, params, dft=None):
            sizes.append(dt)
            return kernel(spec, phase, dt, params, dft)

        monkeypatch.setattr(evolution, "_step", spy)
        rec = evolve(u0, params, 0.02, 0.037, 1.0)
        monkeypatch.setattr(evolution, "_step", reference_kernel(g))
        ref = evolve(u0, params, 0.02, 0.037, 1.0)

        assert len(sizes) > len(rec.times) - 1        # a step was rejected
        assert len(set(sizes)) >= 3                   # 0.02, 0.01 and the last step
        assert not rec.blew_up and rec.times[-1] == pytest.approx(0.037)
        assert np.array_equal(rec.times, ref.times)
        assert rec.blew_up == ref.blew_up and rec.t_num == ref.t_num
        np.testing.assert_allclose(rec.m_r, ref.m_r, rtol=1e-10)
        np.testing.assert_allclose(rec.sup_norm, ref.sup_norm, rtol=1e-10)

    def test_one_phase_built_per_step_size_change(self, monkeypatch):
        # the rejection scenario above: dt = 0.02 is rejected, 0.01 holds,
        # and the short last step needs a third phase
        monkeypatch.setattr(evolution, "GROWTH_CAP", 1.1)
        g = GridSpec(1, 20.0, 512)
        # not even, so that the full lattice is stepped (see TestEvenQuarter for the half)
        u0 = Field.from_function(g, lambda x: 6.0 * np.exp(-x * x) * np.exp(0.5j * x))
        build, kernel, built, sizes = evolution._half_step_phase, evolution._step, [], []

        def build_spy(grid, dt):
            built.append(dt)
            return build(grid, dt)

        def step_spy(spec, phase, dt, params, dft=None):
            sizes.append(dt)
            np.testing.assert_array_equal(phase, build(g, dt))
            return kernel(spec, phase, dt, params, dft)

        monkeypatch.setattr(evolution, "_half_step_phase", build_spy)
        monkeypatch.setattr(evolution, "_step", step_spy)
        evolve(u0, ProblemParams(1, 2.0, 1j), 0.02, 0.037, 1.0)
        changes = [b for a, b in zip([None] + sizes, sizes) if a != b]
        assert len(changes) >= 3 and len(sizes) > len(changes)
        assert built == changes


def full_lattice_run(u0, *args):
    """``evolve`` with the even part turned off."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(evolution, "_is_even", lambda u: False)
        return evolve(u0, *args)


class TestEvenQuarter:
    """Even data on the even part: the (N/2+1)^2 quarter in 2D, the N/2+1 half in 1D."""

    def test_radial_data_steps_the_quarter(self, monkeypatch):
        # radial data takes no 2D transform of the full lattice; other data does
        g = GridSpec(2, 3.7, 200)  # dx = 0.037 is not exact in binary
        params = ProblemParams(2, 2.0, 1j)
        radial = Field.from_radial(g, lambda r: np.exp(-r * r) * (1.0 + 0.5j))
        packet = Field.from_function(g, lambda x, y: np.exp(-(x**2 + y**2)) * np.exp(0.5j * x))
        calls = count_ffts(monkeypatch)
        rec = evolve(radial, params, 0.01, 0.05, 1.0)
        assert calls == [] and len(rec.times) == 6
        evolve(packet, params, 0.01, 0.05, 1.0)
        assert len(calls) == 2 + 2 * 5

    def test_radial_1d_data_steps_the_half(self, monkeypatch):
        # in 1D too: radial data takes no transform of the full lattice; a packet does
        g = GridSpec(1, 3.7, 200)
        params = ProblemParams(1, 2.0, 1j)
        radial = Field.from_radial(g, lambda r: np.exp(-r * r) * (1.0 + 0.5j))
        packet = Field.from_function(g, gaussian_packet)
        calls = count_ffts(monkeypatch)
        rec = evolve(radial, params, 0.01, 0.05, 1.0)
        assert calls == [] and len(rec.times) == 6
        assert rec.final_spectrum.shape == (g.N // 2 + 1,)
        evolve(packet, params, 0.01, 0.05, 1.0)
        assert len(calls) == 2 + 2 * 5

    @pytest.mark.parametrize("n, N", [pytest.param(2, N, id=str(N)) for N in (16, 48, 200, 384)]
                             + [pytest.param(1, N, id=f"1d-{N}")
                                for N in (16, 48, 200, 384, 16384)])
    def test_transforms_are_the_full_lattice_dft_to_the_bit(self, n, N):
        # the part's data, extended even, is a full lattice's: its DFT by
        # fftn, cut to the part and scaled, is the part's, bit for bit
        h = N // 2
        part = evolution._EvenPart(GridSpec(n, 4.0, N))
        rng = np.random.default_rng(N)
        shape = (h + 1,) * n
        u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        fold = np.ix_(*(np.r_[0:h + 1, h - 1:0:-1],) * n)
        cut = (slice(0, h + 1),) * n
        spec = part.dft(u)
        assert spec.flags.c_contiguous
        assert np.array_equal(spec, np.fft.fftn(u[fold])[cut] * part.scale)
        assert np.array_equal(part.idft(u), np.fft.ifftn((u / part.scale)[fold])[cut])

    def test_matches_a_strang_step_loop(self):
        # evolve's loop in sample space, without halvings: the same steps,
        # the same blow-up time and the same readings
        g = GridSpec(2, 8.0, 64)
        params = ProblemParams(2, 2.0, 1j)
        u = u0 = Field.from_radial(g, lambda r: 3.0 * np.exp(-r * r) + 0j)
        rec = evolve(u0, params, 0.005, 1.0, 1.5)
        t, t_num, dt = 0.0, None, 0.005
        m0 = evolution.weighted_functional(u0, params.alpha, 1.5)
        times, m_r, sups, l2s = [0.0], [m0], [u0.sup_norm()], [u0.l2_norm()]
        while t < 1.0:
            stage = nonlinear_step(linear_propagator(u, 0.5 * dt), dt, params).sup_norm()
            assert stage <= evolution.GROWTH_CAP * sups[-1]  # no halving
            u = strang_step(u, dt, params)
            t += dt
            times.append(t)
            m_r.append(evolution.weighted_functional(u, params.alpha, 1.5))
            sups.append(stage)
            l2s.append(u.l2_norm())
            if stage >= rec.threshold:
                t_num = t
                break
        assert rec.blew_up and rec.t_num == t_num and np.array_equal(rec.times, times)
        np.testing.assert_allclose(rec.m_r, m_r, rtol=1e-12)
        np.testing.assert_allclose(rec.sup_norm, sups, rtol=1e-12)
        np.testing.assert_allclose(rec.l2_norm, l2s, rtol=1e-12)

    def test_final_state_matches_the_full_lattice(self, monkeypatch):
        # a run with halvings: the quarter's final spectrum unfolds to the full one
        monkeypatch.setattr(evolution, "GROWTH_CAP", 1.1)
        g = GridSpec(2, 4.0, 48)
        params = ProblemParams(2, 2.0, 1j)
        u0 = Field.from_radial(g, lambda r: 4.0 * np.exp(-r * r) * (1.0 + 0.2j))
        rec = evolve(u0, params, 0.02, 0.1, 1.0)
        ref = full_lattice_run(u0, params, 0.02, 0.1, 1.0)
        assert np.array_equal(rec.times, ref.times) and len(rec.times) > 6
        assert rec.final_spectrum.shape == (g.N // 2 + 1,) * 2  # the quarter's, unfolded by final
        scale = np.max(np.abs(ref.final.values))
        assert np.max(np.abs(rec.final.values - ref.final.values)) <= 1e-13 * scale

    def test_final_state_matches_the_full_lattice_1d(self, monkeypatch):
        # a 1D run with two halvings: the half's final spectrum unfolds to the full one
        monkeypatch.setattr(evolution, "GROWTH_CAP", 1.1)
        g = GridSpec(1, 8.0, 256)
        params = ProblemParams(1, 2.0, 1j)
        u0 = Field.from_radial(g, lambda r: 4.0 * np.exp(-r * r) * (1.0 + 0.2j))
        rec = evolve(u0, params, 0.02, 0.2, 1.0)
        ref = full_lattice_run(u0, params, 0.02, 0.2, 1.0)
        assert np.array_equal(rec.times, ref.times)
        assert np.unique(np.diff(rec.times).round(12)).size >= 3  # 0.02, 0.01, 0.005
        assert rec.final_spectrum.shape == (g.N // 2 + 1,)
        scale = np.max(np.abs(ref.final.values))
        assert np.max(np.abs(rec.final.values - ref.final.values)) <= 1e-13 * scale

    def test_evolve_with_rejection_on_the_half_matches_the_full_lattice(self, monkeypatch):
        # TestStrangKernel's rejection scenario on radial 1D data: the half
        # takes the full lattice's steps and reads its numbers
        monkeypatch.setattr(evolution, "GROWTH_CAP", 1.1)
        g = GridSpec(1, 20.0, 512)
        u0 = Field.from_function(g, lambda x: 6.0 * np.exp(-x * x) + 0j)
        params = ProblemParams(1, 2.0, 1j)
        kernel, sizes = evolution._step, []

        def spy(spec, phase, dt, params, dft=None):
            sizes.append(dt)
            assert spec.shape == (g.N // 2 + 1,)
            return kernel(spec, phase, dt, params, dft)

        monkeypatch.setattr(evolution, "_step", spy)
        rec = evolve(u0, params, 0.02, 0.037, 1.0)
        monkeypatch.setattr(evolution, "_step", kernel)
        ref = full_lattice_run(u0, params, 0.02, 0.037, 1.0)

        assert len(sizes) > len(rec.times) - 1        # a step was rejected
        assert len(set(sizes)) >= 3                   # 0.02, 0.01 and the last step
        assert not rec.blew_up and rec.times[-1] == pytest.approx(0.037)
        assert np.array_equal(rec.times, ref.times)
        assert rec.blew_up == ref.blew_up and rec.t_num == ref.t_num
        for name in ("m_r", "sup_norm", "l2_norm"):
            np.testing.assert_allclose(getattr(rec, name), getattr(ref, name), rtol=1e-12)

    def test_one_phase_built_per_step_size_change_on_the_half(self, monkeypatch):
        # the scenario above: each phase is the half's, built once per step size
        monkeypatch.setattr(evolution, "GROWTH_CAP", 1.1)
        g = GridSpec(1, 20.0, 512)
        u0 = Field.from_function(g, lambda x: 6.0 * np.exp(-x * x) + 0j)
        half = evolution._EvenPart(g)
        build, kernel, built, sizes = evolution._half_step_phase, evolution._step, [], []

        def build_spy(grid, dt):
            built.append(dt)
            return build(grid, dt)

        def step_spy(spec, phase, dt, params, dft=None):
            sizes.append(dt)
            np.testing.assert_array_equal(phase, build(half, dt))
            return kernel(spec, phase, dt, params, dft)

        monkeypatch.setattr(evolution, "_half_step_phase", build_spy)
        monkeypatch.setattr(evolution, "_step", step_spy)
        evolve(u0, ProblemParams(1, 2.0, 1j), 0.02, 0.037, 1.0)
        changes = [b for a, b in zip([None] + sizes, sizes) if a != b]
        assert len(changes) >= 3 and len(sizes) > len(changes)
        assert built == changes

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n=st.sampled_from([1, 2]), N=st.sampled_from([16, 32, 48]), gaussian=st.booleans(),
           width=st.floats(0.6, 2.0), q=st.floats(1.0, 4.0),
           amp=st.floats(0.1, 2.0), angle=st.floats(0.0, 2.0 * math.pi))
    def test_random_radial_data_match_the_full_lattice(self, n, N, gaussian, width, q, amp,
                                                       angle):
        g = GridSpec(n, N / 4.0, N)  # dx = 0.5
        params = ProblemParams(n, 2.0, 1.0 + 0.5j)
        c = amp * complex(math.cos(angle), math.sin(angle))
        profile = (lambda r: c * np.exp(-(r / width) ** 2)) if gaussian else \
            (lambda r: c * bracket(r / width) ** -q)
        u0 = Field.from_radial(g, profile)
        rec = evolve(u0, params, 0.01, 0.05, width)
        ref = full_lattice_run(u0, params, 0.01, 0.05, width)
        assert np.array_equal(rec.times, ref.times) and rec.t_num == ref.t_num
        for name in ("m_r", "sup_norm", "l2_norm"):
            np.testing.assert_allclose(getattr(rec, name), getattr(ref, name), rtol=1e-12)
        scale = np.max(np.abs(ref.final.values))
        assert np.max(np.abs(rec.final.values - ref.final.values)) <= 1e-13 * scale


class TestScalingCheck:
    def test_identity_scale_exact_zero(self):
        g = GridSpec(1, 20.0, 512)
        u0 = Field.from_function(g, lambda x: np.exp(-x * x))
        d = scaling_check(u0, ProblemParams(1, 2.0, 1.0), 0.01, 0.32, 1.0)
        assert d == 0.0

    def test_run_without_a_dilated_step_rejected(self):
        # t_max < dt * rho / 2 leaves no checkpoint to compare
        g = GridSpec(1, 20.0, 512)
        u0 = Field.from_function(g, lambda x: np.exp(-x * x))
        with pytest.raises(ValueError, match="no step of the dilated run"):
            scaling_check(u0, ProblemParams(1, 2.0, 1.0 + 0.5j), dt=0.01, t_max=0.004, rho=2.0)

    def test_zero_data_rejected(self):
        # every discrepancy would be 0/0
        u0 = Field.zeros(GridSpec(1, 20.0, 512))
        with pytest.raises(ValueError, match="initial sup norm"):
            scaling_check(u0, ProblemParams(1, 2.0, 1.0 + 0.5j), 0.01, 0.32, 2.0)

    def test_overflow_raises(self):
        # focusing data overflows to NaN within the first checkpoint
        u0 = Field.from_function(GridSpec(1, 40.0, 2048), lambda x: 6.0 * np.exp(-x * x) + 0j)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="checkpoint 1"):
            scaling_check(u0, ProblemParams(1, 2.0, 1j), 0.01, 2.0, 2.0)

    def test_matches_sample_space_reference_at_two_ffts_a_step(self, monkeypatch):
        # criterion 7's setup, against strang_step runs compared by their samples
        g = GridSpec(1, 20.0, 2048)
        params = ProblemParams(1, 2.0, 1.0 + 0.5j)
        u0 = Field.from_function(g, lambda x: np.exp(-x * x))
        amp, rho, dt = 2.0, 2.0, 0.01  # amp = rho^(1/(p-1))
        v1, v2, want = u0, Field(GridSpec(1, 10.0, 2048), amp * u0.values), 0.0
        for _ in range(8):  # 32 dilated steps in 8 checkpoints of 4
            for _ in range(4):
                v2 = strang_step(v2, dt, params)
            for _ in range(8):
                v1 = strang_step(v1, dt, params)
            mapped = amp * v1.values
            want = max(want, np.linalg.norm(v2.values - mapped) / np.linalg.norm(mapped))

        calls = count_ffts(monkeypatch)
        d = scaling_check(u0, params, dt, 0.64, rho)
        monkeypatch.undo()
        assert d == pytest.approx(want, rel=1e-9)
        assert len(calls) == 1 + 2 * 8 * (4 + 8)  # one DFT of u0, then 2 a step

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
