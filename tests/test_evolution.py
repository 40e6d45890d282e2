"""Split-step integrator: propagator, orders, blow-up detection, scaling."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fracblow import evolution
from fracblow.blowup import InitialDataSpec, make_initial_data
from fracblow.evolution import (ProblemParams, UnresolvedFieldError, evolve,
                                spectral_tail_fraction)
from fracblow.grid import GridSpec
from fracblow.profiles import bracket
from verification import (even_idft, even_part, half_step_factors, l2_norm,
                          lattice_functional, linear_propagator, nonlinear_step,
                          reference_evolve, sample, scaling_check, strang_step, sup_norm,
                          unfold, zeros)


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
    """``reference_step`` on the lattice ``grid``, called as ``evolution._step``
    on the spectrum of the state turned by conj(turn)."""
    def kernel(spec, factors, dt, params, transforms=None):
        turn = evolution._turn(params.lam)
        out, stage_sup = reference_step(np.fft.ifftn(turn * spec), grid, dt, params)
        return np.fft.fftn(out) * turn.conjugate(), stage_sup
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
        turn = evolution._turn(params.lam)  # the kernel steps the turned state
        spec = np.fft.fftn(u) * turn.conjugate()
        for _ in range(3):
            spec, stage_sup = evolution._step(spec, half_step_factors(g, 0.05), 0.05, params)
            want = sup_norm(nonlinear_step(linear_propagator(u, g, 0.025), 0.05, params))
            # the kernel carries the spectrum where the reference takes a new DFT
            assert stage_sup == pytest.approx(want, rel=1e-12)
            u = np.fft.ifftn(turn * spec)

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


def unfolded_step(part, spec, dt, params, source=nonlinear_step):
    """``_step`` on the even part with each constant its own pass:
    ``dft(source(even_idft(phase * spec))) * phase``, by the part's bit-exact transforms."""
    phase = np.exp(1j * (0.5 * dt) * part.abs_freq())
    stage = source(even_idft(part, phase * spec), dt, params)
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
        assert np.array_equal(even_idft(part, u), np.fft.ifftn((u / part.scale)[fold])[cut])

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


#: the split DCT-I against the padded one, over the largest |output|: over 20
#: random draws the complex and real transforms measured at most 5.9e-16
#: (2D h = 64) and 4.7e-16 in 1D (h = 8192, at the default threshold)
SPLIT_GAP = 1.5e-15
#: (n, h = N/2) on which the split runs once ``_SPLIT_MIN`` is lowered to 8
SPLIT_AXES = [(1, h) for h in (8, 12, 64, 100, 1024)] + [(2, h) for h in (8, 12, 64, 100)]


def padded_transforms(n, h, spec, into):
    """The padded transforms of a step, as full-lattice FFTs cut to the part:
    the inverse of ``spec * into`` and the real DCT-I of ``spec.real``, each
    without its 1/N^n."""
    fold = np.ix_(*(np.r_[0:h + 1, h - 1:0:-1],) * n)
    cut = (slice(0, h + 1),) * n
    # the passes of ``_real_dct``: the last axis first
    x = np.fft.irfft(spec.real, n=2 * h, axis=-1, norm="forward")[..., :h + 1]
    if n == 2:
        x = np.fft.irfft(x, n=2 * h, axis=0, norm="forward")[:h + 1]
    # spec * into, as the part multiplies: numpy's complex products need not
    # commute to the bit
    return np.fft.ifftn((spec * into)[fold], norm="forward")[cut], x


class TestSplitDct:
    """The split DCT-I of a long axis (``_EvenPart._split``), run on short axes
    by lowering ``_SPLIT_MIN``; every other axis keeps the padded transform."""

    @staticmethod
    def draw(n, h, seed):
        rng = np.random.default_rng(seed)
        shape = (h + 1,) * n
        spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return spec, np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, shape))

    @pytest.mark.parametrize("n, h", SPLIT_AXES)
    def test_split_matches_the_padded_transforms(self, monkeypatch, n, h):
        monkeypatch.setattr(evolution, "_SPLIT_MIN", 8)
        part = evolution._EvenPart(GridSpec(n, 4.0, 2 * h))
        assert part._twiddle is not None
        for seed in range(5):
            spec, into = self.draw(n, h, seed)
            want_complex, want_real = padded_transforms(n, h, spec, into)
            got_complex, got_real = part.unscaled_idft(spec, into), part._real_dct(spec.real)
            assert got_complex.dtype == np.complex128 and got_real.dtype == np.float64
            for got, want in ((got_complex, want_complex), (got_real, want_real)):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= SPLIT_GAP * np.max(np.abs(want))

    @pytest.mark.parametrize("n, h", SPLIT_AXES)
    def test_split_steps_equal_the_unfolded_ones(self, monkeypatch, n, h):
        # 20 kernel steps through the split, each against the unfolded step,
        # whose transforms stay padded, from the same spectrum
        monkeypatch.setattr(evolution, "_SPLIT_MIN", 8)
        g = GridSpec(n, h / 8.0, 2 * h)
        part = evolution._EvenPart(g)
        params = ProblemParams(n, 2.0, 1j)
        spec = part.dft(even_part(g, lambda r: 2.0 * np.exp(-r * r) * (1.0 + 0.5j)))
        factors = evolution._half_step_factors(part.abs_freq(), 0.01, g.N ** n, part.scale)
        for _ in range(20):
            got, got_sup = evolution._step(spec, factors, 0.01, params,
                                           (part.unscaled_dft, part.unscaled_idft))
            want, want_sup = unfolded_step(part, spec, 0.01, params)
            assert got.flags.c_contiguous
            assert np.max(np.abs(got - want)) <= STEP_GAP * np.max(np.abs(want))
            assert got_sup == pytest.approx(want_sup, rel=STEP_GAP)
            spec = want

    @pytest.mark.parametrize("n, h, split_min", [
        pytest.param(1, 6, 4, id="1d-h6"), pytest.param(1, 50, 4, id="1d-h50"),
        pytest.param(2, 10, 4, id="2d-h10"),
        pytest.param(1, 2048, None, id="1d-below-threshold"),
        pytest.param(2, 192, None, id="2d-quarter-384")])
    def test_other_axes_keep_the_padded_bits(self, monkeypatch, n, h, split_min):
        # h % 4 != 0, or h below the threshold: the padded transforms, bit for bit
        if split_min is not None:
            monkeypatch.setattr(evolution, "_SPLIT_MIN", split_min)
        part = evolution._EvenPart(GridSpec(n, 4.0, 2 * h))
        assert part._twiddle is None
        spec, into = self.draw(n, h, h)
        want_complex, want_real = padded_transforms(n, h, spec, into)
        assert np.array_equal(part.unscaled_idft(spec, into), want_complex)
        assert np.array_equal(part._real_dct(spec.real), want_real)


def complex_source(u, dt, params):
    """Explicit midpoint for i u_t = lam |u|^p on the unturned state, in complex arithmetic."""
    def rate(v):
        return -1j * params.lam * np.abs(v) ** params.p
    return u + dt * rate(u + 0.5 * dt * rate(u))


#: coefficients whose turn -i lam/|lam| is 1, -1, i, and off the axes; STEP_GAP
#: bounds a turned step against the unturned one from the same state: over
#: 20 steps at amplitude 2 the gaps measured at most 7.6e-16 on the spectra
#: (2D N = 48) and 4.4e-16 on the stage sups
LAMBDAS = [1j, -2j, 1.0 + 0.5j, -1.0, 0.3 - 0.7j]


class TestTurnedFrame:
    """The stepper's frame: the state turned by conj(turn), with turn = -i lam/|lam|."""

    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("n, L, N", [(1, 20.0, 512), (2, 4.0, 48)])
    def test_turned_kernel_matches_the_unturned_step(self, n, L, N, lam):
        g = GridSpec(n, L, N)
        part = evolution._EvenPart(g)
        params = ProblemParams(n, 2.0, lam)
        turn = evolution._turn(lam)
        u0 = even_part(g, lambda r: 2.0 * np.exp(-r * r) * np.exp(0.5j * r))
        turned = part.dft(u0) * turn.conjugate()
        factors = evolution._half_step_factors(part.abs_freq(), 0.01, N ** n, part.scale)
        for _ in range(20):
            want, want_sup = unfolded_step(part, turn * turned, 0.01, params, complex_source)
            turned, got_sup = evolution._step(turned, factors, 0.01, params,
                                              (part.unscaled_dft, part.unscaled_idft))
            assert np.max(np.abs(turn * turned - want)) <= STEP_GAP * np.max(np.abs(want))
            assert got_sup == pytest.approx(want_sup, rel=STEP_GAP)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_turned_full_lattice_kernel_matches_the_unturned_step(self, lam):
        g = GridSpec(1, 20.0, 512)
        params = ProblemParams(1, 2.0, lam)
        turn = evolution._turn(lam)
        phase = np.exp(1j * 0.005 * g.abs_freq())
        spec = np.fft.fftn(sample(g, lambda x: 2.0 * np.exp(-x * x) * np.exp(0.5j * x)))
        for _ in range(20):
            stage = complex_source(np.fft.ifftn(phase * spec), 0.01, params)
            want = np.fft.fftn(stage) * phase
            got, got_sup = evolution._step(spec * turn.conjugate(), half_step_factors(g, 0.01),
                                           0.01, params)
            assert np.max(np.abs(turn * got - want)) <= STEP_GAP * np.max(np.abs(want))
            assert got_sup == pytest.approx(sup_norm(stage), rel=STEP_GAP)
            spec = want

    @pytest.mark.parametrize("lam", LAMBDAS + [0.0])
    def test_source_leaves_the_imaginary_part_alone(self, lam):
        rng = np.random.default_rng(7)
        u = (rng.standard_normal(100) + 1j * rng.standard_normal(100)) \
            * evolution._turn(lam).conjugate()
        im = u.imag.copy()
        stage_sup = evolution._midpoint_source(u, 0.05, ProblemParams(1, 2.0, lam))
        assert np.array_equal(u.imag, im)
        assert stage_sup == pytest.approx(sup_norm(u), rel=1e-15)

    @pytest.mark.parametrize("lam", [-2j, 0.3 - 0.7j])
    def test_evolve_reads_the_unturned_state(self, lam):
        # a sample-space loop with the complex midpoint: the same readings,
        # and final_spectrum is the unturned state's
        g = GridSpec(1, 20.0, 512)
        params = ProblemParams(1, 2.0, lam)
        u0 = even_part(g, lambda r: 2.0 * np.exp(-r * r) * np.exp(0.5j * r))
        dt = 2.0 ** -7  # ten steps end at t_max exactly
        rec = evolve(u0, g, params, dt, 10 * dt, 1.5)
        u = unfold(u0)
        m_r, sups, l2s = [lattice_functional(u, g, params.alpha, 1.5)], [sup_norm(u)], \
            [l2_norm(g, u)]
        for _ in range(10):
            stage = complex_source(linear_propagator(u, g, 0.5 * dt), dt, params)
            u = linear_propagator(stage, g, 0.5 * dt)
            m_r.append(lattice_functional(u, g, params.alpha, 1.5))
            sups.append(sup_norm(stage))
            l2s.append(l2_norm(g, u))
        assert len(rec.times) == 11 and not rec.blew_up
        np.testing.assert_allclose(rec.m_r, m_r, rtol=1e-12)
        np.testing.assert_allclose(rec.sup_norm, sups, rtol=1e-12)
        np.testing.assert_allclose(rec.l2_norm, l2s, rtol=1e-12)
        assert np.max(np.abs(rec.final - u)) <= 1e-13 * np.max(np.abs(u))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow notes on the way
    @pytest.mark.parametrize("amplitude", [1e154, 2e152])
    def test_overflowing_squares_refused(self, amplitude):
        # the source squares |u|: (25 sup)^2 overflows at 1e154, and at 2e152
        # so does (4 * 25 sup)^2, the most a stage that a step accepts reaches
        g = GridSpec(1, 20.0, 512)
        u0 = even_part(g, lambda r: amplitude * np.exp(-r * r) + 0j)
        with pytest.raises(OverflowError, match="initial sup norm .* too large"):
            evolve(u0, g, ProblemParams(1, 1.25, 1j), 0.01, 0.1, 1.0)


def powered_source(u, dt, params):
    """``_midpoint_source`` with both of its powers taken, p/2 = 1 included."""
    x, half_p, c = u.real, 0.5 * params.p, dt * abs(params.lam)
    y2 = np.square(u.imag)
    s = np.square(x)
    s += y2
    s **= half_p
    s *= 0.5 * c
    s += x
    np.square(s, out=s)
    s += y2
    s **= half_p
    s *= c
    x += s
    np.square(x, out=s)
    s += y2
    return math.sqrt(float(s.max()))


def same_run_without_radius(u0, grid, params, dt, t_max, radius):
    """``evolve`` with the weight radius, after checking that the run
    without it steps to the same bits and reads nothing."""
    rec = evolve(u0, grid, params, dt, t_max, radius)
    bare = evolve(u0, grid, params, dt, t_max)
    assert bare.m_r is None and bare.l2_norm is None
    assert rec.m_r is not None and rec.l2_norm is not None
    for name in ("times", "sup_norm", "final_spectrum"):
        assert np.array_equal(getattr(bare, name), getattr(rec, name))
    assert bare.t_num == rec.t_num
    return rec


class TestEvolveWithoutRadius:
    """A run given no weight radius builds no weight and takes no reading."""

    @pytest.mark.parametrize("lam", [1j, 0.6 + 0.8j])
    @pytest.mark.parametrize("grid, data", [
        (GridSpec(1, 20.0, 512), lambda g: even_part(g, lambda r: 3.0 * np.exp(-r * r) + 0j)),
        (GridSpec(2, 4.0, 48),
         lambda g: even_part(g, lambda r: 2.0 * np.exp(-r * r) * (1.0 + 0.5j))),
        (GridSpec(1, 20.0, 256), lambda g: sample(g, gaussian_packet)),
        (GridSpec(2, 6.0, 32),
         lambda g: sample(g, lambda x, y: 1.5 * np.exp(-(x**2 + y**2)) * np.exp(0.5j * x))),
    ])
    def test_same_steps_and_no_readings(self, grid, data, lam):
        params = ProblemParams(grid.n, 2.0, lam)
        dt = 2.0 ** -7  # ten steps end at t_max exactly
        rec = same_run_without_radius(data(grid), grid, params, dt, 10 * dt, 1.5)
        assert len(rec.times) == 11

    @pytest.mark.parametrize("lam", [1j, 0.6 + 0.8j])
    def test_same_steps_through_halvings_to_blow_up(self, lam):
        # the output gate's 1D halving run: an inner singularity blows up
        # after its step has halved
        g = GridSpec(1, 8.0, 1024)
        params = ProblemParams(1, 2.0, lam)
        u0 = make_initial_data(InitialDataSpec(kind="inner-singular", mu=20.0, k=0.25), g,
                               params.alpha)
        rec = same_run_without_radius(u0, g, params, 8e-3, 0.2, 0.5)
        assert rec.blew_up and np.min(np.diff(rec.times)) <= 4e-3

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
    def test_bad_radius_refused_before_any_work(self, radius):
        # zero data, refused later, shows that the radius is checked first
        g = GridSpec(1, 20.0, 256)
        with pytest.raises(ValueError, match="weight radius must be positive"):
            evolve(zeros(g), g, ProblemParams(1, 2.0, 1j), 0.01, 1.0, radius)

    @pytest.mark.parametrize("lam", LAMBDAS + [0.0])
    def test_square_source_skips_its_powers_to_the_bit(self, lam):
        # at p = 2 the source skips its two s **= 1.0 passes, which move no bit
        rng = np.random.default_rng(11)
        params = ProblemParams(1, 2.0, lam)
        u = 3.0 * (rng.standard_normal(500) + 1j * rng.standard_normal(500))
        want = u.copy()
        want_sup = powered_source(want, 0.05, params)
        assert evolution._midpoint_source(u, 0.05, params) == want_sup
        assert np.array_equal(u, want)


#: ``evolve`` against ``reference_evolve``: the largest gap of the sup and
#: L2 series (relative, point by point), of M_R (over its largest value) and
#: of the final state (over its largest value).  Over the 1000 draws of
#: seeds 0-999 from the property's distribution (numpy generators) it
#: measured 2.5e-13 on runs that do not blow up, 3.4e-13 on blow-ups without
#: a halving and 1.14e-11 on blow-ups after halvings (a 2D run whose last
#: step took the sup from 23 to 48 times sup|u0|)
REFERENCE_GAP = 1e-10
#: a growth or threshold test this close to its edge may tip either way
DECISION_MARGIN = 1e-9
#: phases, drawn
ANGLES = st.floats(-math.pi, math.pi)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.sampled_from([1, 2]),
       # h = N/2 a multiple of 4 takes the split DCT-I once _SPLIT_MIN is 8
       N=st.sampled_from([24, 32, 36, 48, 64, 72, 100]),
       p=st.one_of(st.just(2.0), st.floats(1.0, 3.0, exclude_min=True)),
       lam=st.one_of(st.just(0.0),
                     st.builds(lambda r, axis: r * axis, st.floats(0.5, 2.0),
                               st.sampled_from([1.0, 1j, -1.0, -1j])),
                     st.builds(cmath.rect, st.floats(0.5, 2.0), ANGLES)),
       alpha=st.one_of(st.none(), st.builds(cmath.rect, st.just(1.0), ANGLES)),
       bumps=st.lists(st.tuples(st.builds(cmath.rect, st.floats(0.1, 3.0), ANGLES),
                                st.floats(1.0, 2.5)), min_size=1, max_size=3),
       dt=st.floats(0.005, 0.05), steps=st.integers(5, 30), radius=st.floats(0.5, 3.0))
def test_evolve_matches_an_independent_reference(n, N, p, lam, alpha, bumps, dt, steps,
                                                 radius):
    # radial data, stepped on the even part, against the full lattice
    # stepped unturned by code that shares nothing with evolve
    g = GridSpec(n, 6.0, N)
    params = ProblemParams(n, p, lam, alpha)
    u0 = even_part(g, lambda r: sum(c * np.exp(-(r / w) ** 2) for c, w in bumps))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolution, "_SPLIT_MIN", 8)
        rec = evolve(u0, g, params, dt, steps * dt, radius)
    ref = reference_evolve(unfold(u0), g, params, dt, steps * dt, radius)
    assume(ref["margin"] > DECISION_MARGIN)
    assert np.array_equal(rec.times, ref["times"]) and rec.t_num == ref["t_num"]
    for name in ("sup_norm", "l2_norm"):
        np.testing.assert_allclose(getattr(rec, name), ref[name], rtol=REFERENCE_GAP)
    for got, want in ((rec.m_r, ref["m_r"]), (rec.final, ref["final"])):
        assert np.max(np.abs(got - want)) <= REFERENCE_GAP * np.max(np.abs(want))


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
