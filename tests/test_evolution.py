"""Split-step integrator: propagator, orders, blow-up detection, scaling."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracblow import evolution
from fracblow.evolution import (ProblemParams, UnresolvedFieldError, evolve,
                                spectral_tail_fraction)
from fracblow.grid import GridSpec
from fracblow.profiles import bracket
from verification import (even_part, half_step_factors, l2_norm, lattice_functional,
                          linear_propagator, nonlinear_step, sample, scaling_check, strang_step,
                          sup_norm, unfold, zeros)


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


#: a folded step against the unfolded one, over the largest |spectrum|: the
#: gaps measured 4.3e-16 (1D N = 16384), 5.9e-16 (2D N = 384), 3.3e-16
#: (2D N = 200) and 2.0e-16 (full lattice), and the stage sups 2.3e-16
STEP_GAP = 2e-15
#: the same over a run with a halving and a short last step: the readings
#: measured 6.6e-16 (relative) and the final spectra 7.9e-16
RUN_GAP = 4e-15


class TestLinearPropagator:
    def test_zero_duration_is_identity(self):
        g = GridSpec(1, 10.0, 128)
        f = sample(g, gaussian_packet)
        out = linear_propagator(f, g, 0.0)
        assert np.array_equal(out, f)

    def test_single_mode_phase(self):
        g = GridSpec(1, 10.0, 128)
        k = 2.0 * np.pi * 5 / (2 * g.L)
        f = sample(g, lambda x: np.exp(1j * k * x))
        out = linear_propagator(f, g, 0.37)
        want = np.exp(1j * 0.37 * abs(k)) * f
        assert np.max(np.abs(out - want)) < 1e-13

    def test_l2_preserved(self):
        rng = np.random.default_rng(2)
        g = GridSpec(1, 10.0, 256)
        f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        out = linear_propagator(f, g, 4.2)
        assert l2_norm(g, out) == pytest.approx(l2_norm(g, f), rel=1e-13)


class TestNonlinearStep:
    def test_zero_field_fixed(self):
        g = GridSpec(1, 10.0, 64)
        out = nonlinear_step(zeros(g), 0.1, ProblemParams(1, 2.0, 1j))
        assert np.all(out == 0)

    def test_scalar_ode_local_order_three(self):
        # lam = i, p = 2, constant real c: the pointwise ODE is u' = u^2
        # with exact value c/(1 - c dt)
        g = GridSpec(1, 10.0, 8)
        params = ProblemParams(1, 2.0, 1j)
        c = 0.8
        errs = []
        for dt in (0.01, 0.005):
            got = nonlinear_step(np.full(g.shape, c, complex), dt, params)
            errs.append(abs(got.flat[0] - c / (1 - c * dt)))
        assert errs[0] / errs[1] == pytest.approx(8.0, rel=0.15)

    def test_scalar_ode_global_order_two(self):
        # fixed horizon: halving dt divides the error by about four
        g = GridSpec(1, 10.0, 8)
        params = ProblemParams(1, 2.0, 1j)
        T, errs = 0.5, []
        for nsteps in (16, 32):
            u = np.full(g.shape, 1.0, complex)
            for _ in range(nsteps):
                u = nonlinear_step(u, T / nsteps, params)
            errs.append(abs(u.flat[0] - 1.0 / (1.0 - T)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)


class TestEvolve:
    def test_free_flow_conserves_l2(self):
        g = GridSpec(1, 20.0, 1024)
        u0 = sample(g, gaussian_packet)
        params = ProblemParams(1, 2.0, 0.0)
        rec = evolve(u0, g, params, 0.01, 10.0, 1.0)
        assert not rec.blew_up
        drift = np.max(np.abs(rec.l2_norm - rec.l2_norm[0])) / rec.l2_norm[0]
        assert drift < 1e-12
        assert np.max(rec.sup_norm) < 2 * rec.sup_norm[0]

    def test_free_flow_reversible(self):
        g = GridSpec(1, 20.0, 1024)
        u0 = sample(g, gaussian_packet)
        params = ProblemParams(1, 2.0, 0.0)
        rec = evolve(u0, g, params, 0.01, 2.0, 1.0)
        back = linear_propagator(rec.final, g, -rec.times[-1])
        assert np.max(np.abs(back - u0)) < 1e-11

    def test_times_strictly_increasing(self):
        g = GridSpec(1, 20.0, 512)
        u0 = sample(g, gaussian_packet)
        rec = evolve(u0, g, ProblemParams(1, 2.0, 1.0), 0.02, 0.5, 1.0)
        assert np.all(np.diff(rec.times) > 0)

    def test_refusal_on_underresolved_data(self):
        g = GridSpec(1, 20.0, 64)
        rng = np.random.default_rng(0)
        u0 = rng.standard_normal(g.shape) + 0j  # white spectrum
        with pytest.raises(UnresolvedFieldError):
            evolve(u0, g, ProblemParams(1, 2.0, 1j), 0.01, 1.0, 1.0)
        with pytest.raises(UnresolvedFieldError):
            scaling_check(u0, g, ProblemParams(1, 2.0, 1j), 0.01, 0.32, 2.0)
        assert spectral_tail_fraction(np.fft.fftn(u0), g.abs_freq()) > 1e-3

    def test_nonpositive_weight_radius_rejected(self):
        g = GridSpec(1, 20.0, 512)
        u0 = sample(g, gaussian_packet)
        with pytest.raises(ValueError, match="weight radius must be positive"):
            evolve(u0, g, ProblemParams(1, 2.0, 1j), 0.01, 1.0, 0.0)

    def test_zero_data_rejected(self):
        # sup|u0| = 0 leaves no blow-up threshold
        g = GridSpec(1, 20.0, 512)
        with pytest.raises(ValueError, match="initial sup norm"):
            evolve(zeros(g), g, ProblemParams(1, 2.0, 1j), 0.01, 1.0, 1.0)

    def test_blowup_flagged_on_focusing_data(self):
        # real positive data with lam = i feeds its own modulus
        g = GridSpec(1, 40.0, 2048)
        u0 = even_part(g, lambda r: 6.0 * np.exp(-r * r) + 0j)
        params = ProblemParams(1, 2.0, 1j)
        rec = evolve(u0, g, params, 0.002, 2.0, 1.0)
        assert rec.blew_up and rec.t_num is not None
        assert rec.threshold == 25 * sup_norm(u0) <= rec.sup_norm[-1]
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
        u0 = sample(g, gaussian_packet)
        calls = count_ffts(monkeypatch)
        rec = evolve(u0, g, ProblemParams(1, 2.0, 1j), 0.01, 0.2, 1.0)
        monkeypatch.undo()
        k = len(rec.times) - 1
        assert k == 20 and not rec.blew_up
        assert len(calls) <= 2 * k + 2

    @pytest.mark.parametrize("grid, data", [
        (GridSpec(1, 20.0, 1024),
         lambda g: sample(g, lambda x: 1.5 * np.exp(-x * x) * np.exp(0.5j * x))),
        (GridSpec(2, 10.0, 64),
         lambda g: sample(g, lambda x, y: 1.5 * np.exp(-(x**2 + y**2)) * np.exp(0.5j * x))),
        (GridSpec(2, 3.7, 64),
         lambda g: even_part(g, lambda r: 1.5 * np.exp(-r * r) * (1.0 + 0.5j))),
    ])
    def test_spectral_readings_match_the_final_state(self, grid, data):
        # M_R and L2 come from the spectrum; the final values give the same numbers
        params = ProblemParams(grid.n, 2.0, 1j)
        rec = evolve(data(grid), grid, params, 0.01, 0.3, 1.5)
        want_m = lattice_functional(rec.final, grid, params.alpha, 1.5)
        assert rec.m_r[-1] == pytest.approx(want_m, rel=1e-12)
        assert rec.l2_norm[-1] == pytest.approx(l2_norm(grid, rec.final), rel=1e-12)

    def test_free_flow_conserves_l2_dim2(self):
        g = GridSpec(2, 10.0, 64)
        u0 = even_part(g, lambda r: np.exp(-r * r) + 0j)
        rec = evolve(u0, g, ProblemParams(2, 2.0, 0.0), 0.02, 1.0, 1.0)
        drift = np.max(np.abs(rec.l2_norm - rec.l2_norm[0])) / rec.l2_norm[0]
        assert drift < 1e-12

    def test_strang_self_convergence_second_order(self):
        g = GridSpec(1, 20.0, 1024)
        params = ProblemParams(1, 2.0, 1.0 + 0.5j)
        T = 0.4

        def run(nsteps):
            u = sample(g, lambda x: 1.2 * np.exp(-x * x) + 0j)
            for _ in range(nsteps):
                u = strang_step(u, g, T / nsteps, params)
            return u

        ref = run(1024)
        errs = [np.linalg.norm(run(n) - ref) for n in (32, 64, 128)]
        slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(1.8 <= s <= 2.2 for s in slopes)


def reference_step(u, grid, dt, params):
    """The Strang composition spelled out with the public building blocks:
    the output and the sup norm of its post-source stage."""
    stage = nonlinear_step(linear_propagator(u, grid, 0.5 * dt), dt, params)
    return linear_propagator(stage, grid, 0.5 * dt), sup_norm(stage)


def reference_kernel(grid):
    """``reference_step`` on the lattice ``grid``, called as ``evolution._step``."""
    def kernel(spec, factors, dt, params, transforms=None):
        out, stage_sup = reference_step(np.fft.ifftn(spec), grid, dt, params)
        return np.fft.fftn(out), stage_sup
    return kernel


class TestStrangKernel:
    @pytest.mark.parametrize("grid, data", [
        (GridSpec(1, 20.0, 1024), lambda x: 1.2 * np.exp(-x * x) + 0j),
        (GridSpec(2, 10.0, 64), lambda x, y: 1.2 * np.exp(-(x**2 + y**2)) * np.exp(0.5j * x)),
    ])
    def test_matches_reference_composition(self, grid, data):
        params = ProblemParams(grid.n, 2.0, 1.0 + 0.5j)
        u = ref = sample(grid, data)
        for _ in range(50):
            u = strang_step(u, grid, 0.01, params)
            ref, _ = reference_step(ref, grid, 0.01, params)
            err = np.linalg.norm(u - ref) / np.linalg.norm(ref)
            assert err <= 1e-12

    def test_carries_spectrum_and_leaves_input_alone(self):
        # strang_step is the kernel between two DFTs, and leaves its input alone
        g = GridSpec(1, 20.0, 256)
        params = ProblemParams(1, 2.0, 1j)
        u = strang_step(sample(g, gaussian_packet), g, 0.05, params)
        values = u.copy()
        out = strang_step(u, g, 0.05, params)
        strang_step(u, g, 0.025, params)
        assert np.array_equal(u, values)
        spec, _ = evolution._step(np.fft.fftn(values), half_step_factors(g, 0.05), 0.05, params)
        assert np.array_equal(out, np.fft.ifftn(spec))

    @pytest.mark.parametrize("grid, data", [
        (GridSpec(1, 20.0, 512), lambda x: 1.2 * np.exp(-x * x) * np.exp(0.5j * x)),
        (GridSpec(2, 10.0, 64), lambda x, y: 1.2 * np.exp(-(x**2 + y**2)) * np.exp(0.5j * x)),
    ])
    def test_folded_step_equals_the_unfolded_one(self, grid, data):
        # the full lattice's 1/N^n rides in the first factor
        params = ProblemParams(grid.n, 2.0, 1j)
        spec = np.fft.fftn(sample(grid, data))
        phase = np.exp(1j * 0.005 * grid.abs_freq())
        for _ in range(5):
            got, got_sup = evolution._step(spec, half_step_factors(grid, 0.01), 0.01, params)
            stage = nonlinear_step(np.fft.ifftn(phase * spec), 0.01, params)
            want = np.fft.fftn(stage) * phase
            assert np.max(np.abs(got - want)) <= STEP_GAP * np.max(np.abs(want))
            assert got_sup == pytest.approx(sup_norm(stage), rel=STEP_GAP)
            spec = want

    def test_kernel_leaves_its_spectrum_for_a_retry(self):
        # a rejected step is retried from the same spectrum: the kernel must
        # not write it, and the retry repeats the step bit for bit
        g = GridSpec(1, 20.0, 256)
        params = ProblemParams(1, 2.0, 1j)
        spec = np.fft.fftn(sample(g, gaussian_packet))
        before = spec.copy()
        factors = half_step_factors(g, 0.05)
        out, stage_sup = evolution._step(spec, factors, 0.05, params)
        evolution._step(spec, half_step_factors(g, 0.025), 0.025, params)
        assert np.array_equal(spec, before)
        again, again_sup = evolution._step(spec, factors, 0.05, params)
        assert np.array_equal(again, out) and again_sup == stage_sup

    def test_stage_sup_is_the_post_source_sup(self):
        g = GridSpec(1, 20.0, 512)
        params = ProblemParams(1, 2.0, 1.0 + 0.5j)
        u = sample(g, lambda x: 1.2 * np.exp(-x * x) * np.exp(0.5j * x))
        spec = np.fft.fftn(u)
        for _ in range(3):
            spec, stage_sup = evolution._step(spec, half_step_factors(g, 0.05), 0.05, params)
            want = sup_norm(nonlinear_step(linear_propagator(u, g, 0.025), 0.05, params))
            # the kernel carries the spectrum where the reference takes a new DFT
            assert stage_sup == pytest.approx(want, rel=1e-12)
            u = np.fft.ifftn(spec)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_evolve_rejects_non_finite_trial(self, monkeypatch, bad):
        # the first attempt at dt = 0.02 comes back non-finite and must be
        # retried at 0.01, which then runs exactly like a dt = 0.01 run
        g = GridSpec(1, 20.0, 256)
        u0 = sample(g, gaussian_packet)
        params = ProblemParams(1, 2.0, 1j)
        kernel, sizes = evolution._step, []

        def first_call_bad(spec, factors, dt, params, transforms=None):
            sizes.append(dt)
            out, stage_sup = kernel(spec, factors, dt, params, transforms)
            if len(sizes) == 1:
                out[7] = bad
                return out, bad
            return out, stage_sup

        monkeypatch.setattr(evolution, "_step", first_call_bad)
        rec = evolve(u0, g, params, 0.02, 0.05, 1.0)
        monkeypatch.setattr(evolution, "_step", kernel)
        ref = evolve(u0, g, params, 0.01, 0.05, 1.0)

        assert sizes[:2] == [0.02, 0.01]
        assert np.all(np.isfinite(rec.final))
        assert not rec.blew_up and rec.t_num is None
        for name in ("times", "m_r", "sup_norm", "l2_norm"):
            assert np.array_equal(getattr(rec, name), getattr(ref, name))
        assert np.array_equal(rec.final, ref.final)

    def test_evolve_with_rejection_matches_reference(self, monkeypatch):
        # GROWTH_CAP 1.1 rejects the first dt = 0.02 step; the halved steps
        # then reach t_max = 0.037 with a shorter last step
        monkeypatch.setattr(evolution, "GROWTH_CAP", 1.1)
        g = GridSpec(1, 20.0, 512)
        # not even, so given and stepped on the full lattice (see TestEvenQuarter for the half)
        u0 = sample(g, lambda x: 6.0 * np.exp(-x * x) * np.exp(0.5j * x))
        params = ProblemParams(1, 2.0, 1j)
        kernel, sizes = evolution._step, []

        def spy(spec, factors, dt, params, transforms=None):
            sizes.append(dt)
            return kernel(spec, factors, dt, params, transforms)

        monkeypatch.setattr(evolution, "_step", spy)
        rec = evolve(u0, g, params, 0.02, 0.037, 1.0)
        monkeypatch.setattr(evolution, "_step", reference_kernel(g))
        ref = evolve(u0, g, params, 0.02, 0.037, 1.0)

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
        # not even, so given and stepped on the full lattice (see TestEvenQuarter for the half)
        u0 = sample(g, lambda x: 6.0 * np.exp(-x * x) * np.exp(0.5j * x))
        build, kernel, built, sizes = evolution._half_step_factors, evolution._step, [], []

        def build_spy(absxi, dt, size, scale=1.0):
            built.append(dt)
            return build(absxi, dt, size, scale)

        def step_spy(spec, factors, dt, params, transforms=None):
            sizes.append(dt)
            for got, want in zip(factors, build(g.abs_freq(), dt, g.N), strict=True):
                np.testing.assert_array_equal(got, want)
            return kernel(spec, factors, dt, params, transforms)

        monkeypatch.setattr(evolution, "_half_step_factors", build_spy)
        monkeypatch.setattr(evolution, "_step", step_spy)
        evolve(u0, g, ProblemParams(1, 2.0, 1j), 0.02, 0.037, 1.0)
        changes = [b for a, b in zip([None] + sizes, sizes) if a != b]
        assert len(changes) >= 3 and len(sizes) > len(changes)
        assert built == changes


def unfolded_step(part, spec, dt, params):
    """``_step`` on the even part with each constant its own pass:
    ``dft(source(idft(phase * spec))) * phase``, by the part's bit-exact transforms."""
    phase = np.exp(1j * (0.5 * dt) * part.abs_freq())
    stage = nonlinear_step(part.idft(phase * spec), dt, params)
    return part.dft(stage) * phase, sup_norm(stage)


def full_lattice_run(u0, grid, *args):
    """``evolve`` of the even part ``u0`` given on the whole lattice, which is then stepped."""
    return evolve(unfold(u0), grid, *args)


class TestEvenQuarter:
    """Even data on the even part: the (N/2+1)^2 quarter in 2D, the N/2+1 half in 1D."""

    def test_radial_data_steps_the_quarter(self, monkeypatch):
        # radial data takes no 2D transform of the full lattice; other data does
        g = GridSpec(2, 3.7, 200)  # dx = 0.037 is not exact in binary
        params = ProblemParams(2, 2.0, 1j)
        radial = even_part(g, lambda r: np.exp(-r * r) * (1.0 + 0.5j))
        packet = sample(g, lambda x, y: np.exp(-(x**2 + y**2)) * np.exp(0.5j * x))
        calls = count_ffts(monkeypatch)
        rec = evolve(radial, g, params, 0.01, 0.05, 1.0)
        assert calls == [] and len(rec.times) == 6
        evolve(packet, g, params, 0.01, 0.05, 1.0)
        assert len(calls) == 2 + 2 * 5

    def test_radial_1d_data_steps_the_half(self, monkeypatch):
        # in 1D too: radial data takes no transform of the full lattice; a packet does
        g = GridSpec(1, 3.7, 200)
        params = ProblemParams(1, 2.0, 1j)
        radial = even_part(g, lambda r: np.exp(-r * r) * (1.0 + 0.5j))
        packet = sample(g, gaussian_packet)
        calls = count_ffts(monkeypatch)
        rec = evolve(radial, g, params, 0.01, 0.05, 1.0)
        assert calls == [] and len(rec.times) == 6
        assert rec.final_spectrum.shape == (g.N // 2 + 1,)
        evolve(packet, g, params, 0.01, 0.05, 1.0)
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

    @pytest.mark.parametrize("n, L, N", [pytest.param(1, 256.0, 16384, id="1d-16384"),
                                         pytest.param(2, 4.0, 384, id="384"),
                                         pytest.param(2, 3.7, 200, id="200")])
    def test_folded_step_equals_the_unfolded_one(self, n, L, N):
        # the scale and the inverse's 1/N^n ride in the two factors; dx = 0.037
        # is not exact in binary
        g = GridSpec(n, L, N)
        part = evolution._EvenPart(g)
        params = ProblemParams(n, 2.0, 1j)
        spec = part.dft(even_part(g, lambda r: 3.0 * np.exp(-r * r) * (1.0 + 0.5j)))
        factors = evolution._half_step_factors(part.abs_freq(), 0.01, N ** n, part.scale)
        for _ in range(5):
            got, got_sup = evolution._step(spec, factors, 0.01, params,
                                           (part.unscaled_dft, part.unscaled_idft))
            want, want_sup = unfolded_step(part, spec, 0.01, params)
            assert got.flags.c_contiguous
            assert np.max(np.abs(got - want)) <= STEP_GAP * np.max(np.abs(want))
            assert got_sup == pytest.approx(want_sup, rel=STEP_GAP)
            spec = want

    @pytest.mark.parametrize("n, L, N", [(1, 20.0, 512), (2, 4.0, 48)])
    def test_folded_run_equals_the_unfolded_one(self, monkeypatch, n, L, N):
        # dt = 0.02 is rejected, 0.01 holds and the short last step is 0.007:
        # each of the three factor builds feeds steps that the unfolded kernel matches
        monkeypatch.setattr(evolution, "GROWTH_CAP", 1.1)
        g = GridSpec(n, L, N)
        u0 = even_part(g, lambda r: 6.0 * np.exp(-r * r) + 0j)
        params = ProblemParams(n, 2.0, 1j)
        build, built = evolution._half_step_factors, []

        def build_spy(absxi, dt, size, scale=1.0):
            built.append(dt)
            return build(absxi, dt, size, scale)

        monkeypatch.setattr(evolution, "_half_step_factors", build_spy)
        rec = evolve(u0, g, params, 0.02, 0.037, 1.0)
        assert len(built) == len(set(built)) == 3
        part = evolution._EvenPart(g)
        monkeypatch.setattr(evolution, "_step",
                            lambda spec, factors, dt, params, transforms=None:
                            unfolded_step(part, spec, dt, params))
        ref = evolve(u0, g, params, 0.02, 0.037, 1.0)

        assert np.array_equal(rec.times, ref.times) and rec.times[-1] == pytest.approx(0.037)
        assert not rec.blew_up and not ref.blew_up
        for name in ("m_r", "sup_norm", "l2_norm"):
            np.testing.assert_allclose(getattr(rec, name), getattr(ref, name), rtol=RUN_GAP)
        gap = np.max(np.abs(rec.final_spectrum - ref.final_spectrum))
        assert gap <= RUN_GAP * np.max(np.abs(ref.final_spectrum))

    def test_matches_a_strang_step_loop(self):
        # evolve's loop in sample space, without halvings: the same steps,
        # the same blow-up time and the same readings
        g = GridSpec(2, 8.0, 64)
        params = ProblemParams(2, 2.0, 1j)
        u0 = even_part(g, lambda r: 3.0 * np.exp(-r * r) + 0j)
        rec = evolve(u0, g, params, 0.005, 1.0, 1.5)
        t, t_num, dt = 0.0, None, 0.005
        u = unfold(u0)
        m0 = lattice_functional(u, g, params.alpha, 1.5)
        times, m_r, sups, l2s = [0.0], [m0], [sup_norm(u)], [l2_norm(g, u)]
        while t < 1.0:
            stage = sup_norm(nonlinear_step(linear_propagator(u, g, 0.5 * dt), dt, params))
            assert stage <= evolution.GROWTH_CAP * sups[-1]  # no halving
            u = strang_step(u, g, dt, params)
            t += dt
            times.append(t)
            m_r.append(lattice_functional(u, g, params.alpha, 1.5))
            sups.append(stage)
            l2s.append(l2_norm(g, u))
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
        u0 = even_part(g, lambda r: 4.0 * np.exp(-r * r) * (1.0 + 0.2j))
        rec = evolve(u0, g, params, 0.02, 0.1, 1.0)
        ref = full_lattice_run(u0, g, params, 0.02, 0.1, 1.0)
        assert np.array_equal(rec.times, ref.times) and len(rec.times) > 6
        assert rec.final_spectrum.shape == (g.N // 2 + 1,) * 2  # the quarter's, unfolded by final
        scale = np.max(np.abs(ref.final))
        assert np.max(np.abs(rec.final - ref.final)) <= 1e-13 * scale

    def test_final_state_matches_the_full_lattice_1d(self, monkeypatch):
        # a 1D run with two halvings: the half's final spectrum unfolds to the full one
        monkeypatch.setattr(evolution, "GROWTH_CAP", 1.1)
        g = GridSpec(1, 8.0, 256)
        params = ProblemParams(1, 2.0, 1j)
        u0 = even_part(g, lambda r: 4.0 * np.exp(-r * r) * (1.0 + 0.2j))
        rec = evolve(u0, g, params, 0.02, 0.2, 1.0)
        ref = full_lattice_run(u0, g, params, 0.02, 0.2, 1.0)
        assert np.array_equal(rec.times, ref.times)
        assert np.unique(np.diff(rec.times).round(12)).size >= 3  # 0.02, 0.01, 0.005
        assert rec.final_spectrum.shape == (g.N // 2 + 1,)
        scale = np.max(np.abs(ref.final))
        assert np.max(np.abs(rec.final - ref.final)) <= 1e-13 * scale

    def test_evolve_with_rejection_on_the_half_matches_the_full_lattice(self, monkeypatch):
        # TestStrangKernel's rejection scenario on radial 1D data: the half
        # takes the full lattice's steps and reads its numbers
        monkeypatch.setattr(evolution, "GROWTH_CAP", 1.1)
        g = GridSpec(1, 20.0, 512)
        u0 = even_part(g, lambda r: 6.0 * np.exp(-r * r) + 0j)
        params = ProblemParams(1, 2.0, 1j)
        kernel, sizes = evolution._step, []

        def spy(spec, factors, dt, params, transforms=None):
            sizes.append(dt)
            assert spec.shape == (g.N // 2 + 1,)
            return kernel(spec, factors, dt, params, transforms)

        monkeypatch.setattr(evolution, "_step", spy)
        rec = evolve(u0, g, params, 0.02, 0.037, 1.0)
        monkeypatch.setattr(evolution, "_step", kernel)
        ref = full_lattice_run(u0, g, params, 0.02, 0.037, 1.0)

        assert len(sizes) > len(rec.times) - 1        # a step was rejected
        assert len(set(sizes)) >= 3                   # 0.02, 0.01 and the last step
        assert not rec.blew_up and rec.times[-1] == pytest.approx(0.037)
        assert np.array_equal(rec.times, ref.times)
        assert rec.blew_up == ref.blew_up and rec.t_num == ref.t_num
        for name in ("m_r", "sup_norm", "l2_norm"):
            np.testing.assert_allclose(getattr(rec, name), getattr(ref, name), rtol=1e-12)

    def test_one_phase_built_per_step_size_change_on_the_half(self, monkeypatch):
        # the scenario above: each pair of factors is the half's, built once per step size
        monkeypatch.setattr(evolution, "GROWTH_CAP", 1.1)
        g = GridSpec(1, 20.0, 512)
        u0 = even_part(g, lambda r: 6.0 * np.exp(-r * r) + 0j)
        half = evolution._EvenPart(g)
        build, kernel, built, sizes = evolution._half_step_factors, evolution._step, [], []

        def build_spy(absxi, dt, size, scale=1.0):
            built.append(dt)
            return build(absxi, dt, size, scale)

        def step_spy(spec, factors, dt, params, transforms=None):
            sizes.append(dt)
            for got, want in zip(factors, build(half.abs_freq(), dt, g.N, half.scale),
                                 strict=True):
                np.testing.assert_array_equal(got, want)
            return kernel(spec, factors, dt, params, transforms)

        monkeypatch.setattr(evolution, "_half_step_factors", build_spy)
        monkeypatch.setattr(evolution, "_step", step_spy)
        evolve(u0, g, ProblemParams(1, 2.0, 1j), 0.02, 0.037, 1.0)
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
        u0 = even_part(g, profile)
        rec = evolve(u0, g, params, 0.01, 0.05, width)
        ref = full_lattice_run(u0, g, params, 0.01, 0.05, width)
        assert np.array_equal(rec.times, ref.times) and rec.t_num == ref.t_num
        for name in ("m_r", "sup_norm", "l2_norm"):
            np.testing.assert_allclose(getattr(rec, name), getattr(ref, name), rtol=1e-12)
        scale = np.max(np.abs(ref.final))
        assert np.max(np.abs(rec.final - ref.final)) <= 1e-13 * scale


class TestScalingCheck:
    def test_identity_scale_exact_zero(self):
        g = GridSpec(1, 20.0, 512)
        u0 = sample(g, lambda x: np.exp(-x * x))
        d = scaling_check(u0, g, ProblemParams(1, 2.0, 1.0), 0.01, 0.32, 1.0)
        assert d == 0.0

    def test_run_without_a_dilated_step_rejected(self):
        # t_max < dt * rho / 2 leaves no checkpoint to compare
        g = GridSpec(1, 20.0, 512)
        u0 = sample(g, lambda x: np.exp(-x * x))
        with pytest.raises(ValueError, match="no step of the dilated run"):
            scaling_check(u0, g, ProblemParams(1, 2.0, 1.0 + 0.5j), dt=0.01, t_max=0.004,
                          rho=2.0)

    def test_zero_data_rejected(self):
        # every discrepancy would be 0/0
        g = GridSpec(1, 20.0, 512)
        with pytest.raises(ValueError, match="initial sup norm"):
            scaling_check(zeros(g), g, ProblemParams(1, 2.0, 1.0 + 0.5j), 0.01, 0.32, 2.0)

    def test_overflow_raises(self):
        # focusing data overflows to NaN within the first checkpoint
        g = GridSpec(1, 40.0, 2048)
        u0 = sample(g, lambda x: 6.0 * np.exp(-x * x) + 0j)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="checkpoint 1"):
            scaling_check(u0, g, ProblemParams(1, 2.0, 1j), 0.01, 2.0, 2.0)

    def test_matches_sample_space_reference_at_two_ffts_a_step(self, monkeypatch):
        # criterion 7's setup, against strang_step runs compared by their samples
        g = GridSpec(1, 20.0, 2048)
        params = ProblemParams(1, 2.0, 1.0 + 0.5j)
        u0 = sample(g, lambda x: np.exp(-x * x))
        amp, rho, dt = 2.0, 2.0, 0.01  # amp = rho^(1/(p-1))
        g2 = GridSpec(1, 10.0, 2048)
        v1, v2, want = u0, amp * u0, 0.0
        for _ in range(8):  # 32 dilated steps in 8 checkpoints of 4
            for _ in range(4):
                v2 = strang_step(v2, g2, dt, params)
            for _ in range(8):
                v1 = strang_step(v1, g, dt, params)
            mapped = amp * v1
            want = max(want, np.linalg.norm(v2 - mapped) / np.linalg.norm(mapped))

        calls = count_ffts(monkeypatch)
        d = scaling_check(u0, g, params, dt, 0.64, rho)
        monkeypatch.undo()
        assert d == pytest.approx(want, rel=1e-9)
        assert len(calls) == 1 + 2 * 8 * (4 + 8)  # one DFT of u0, then 2 a step

    def test_dilation_symmetry_and_order(self):
        g = GridSpec(1, 20.0, 2048)
        params = ProblemParams(1, 2.0, 1.0 + 0.5j)
        u0 = sample(g, lambda x: np.exp(-x * x))
        d = scaling_check(u0, g, params, 0.01, 0.64, 2.0)
        d_half = scaling_check(u0, g, params, 0.005, 0.64, 2.0)
        assert d <= 1e-3
        assert d / d_half == pytest.approx(4.0, rel=0.3)


@pytest.mark.parametrize("name", ["dt", "t_max"])
@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_config_validation(name, bad):
    # a NaN dt would be halved forever inside evolve
    values = dict(dt=0.01, t_max=1.0)
    values[name] = bad
    g = GridSpec(1, 20.0, 256)
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        evolve(sample(g, gaussian_packet), g, ProblemParams(1, 2.0, 1j), weight_radius=1.0,
               **values)


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
