"""Constants, data families, thresholds, bounds, and the envelope."""
import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from fracblow import lemma, pv
from fracblow.blowup import (A_MARGIN, InitialDataSpec, adapted_radius, compute_constants,
                             family_i_const, lifespan_bound, make_initial_data,
                             ode_lower_envelope, weight_mass, weighted_functional)
from fracblow.evolution import ProblemParams
from fracblow.grid import Field, GridSpec
from fracblow.sweep import in_regime_amplitude


@pytest.fixture(scope="module")
def params():
    return ProblemParams(n=1, p=2.0, lam=1j)


@pytest.fixture(scope="module")
def constants(params):
    return compute_constants(params)


def _verdict(spec, constants, params, grid):
    """Threshold verdict at the adapted radius, for the family member built on grid."""
    r_star = adapted_radius(spec, constants).r_star
    u0 = make_initial_data(spec, grid, params.alpha)
    return lifespan_bound(weighted_functional(u0, params.alpha, r_star), constants, r_star)


class TestConstants:
    def test_weight_mass_analytic(self):
        # int <x>^(-2) dx = pi over the line, 2 pi over the plane
        assert weight_mass(1).value == pytest.approx(math.pi, rel=1e-12)
        assert weight_mass(2).value == pytest.approx(2 * math.pi, rel=1e-12)

    def test_sphere_measure(self, constants):
        assert constants.sphere == 2.0

    def test_reference_point(self, params, constants):
        # p = 2, lam = i, alpha = -i, A = 1.2: C = A pi and D = 1/(2 pi),
        # by direct substitution into the displayed formulas
        assert constants.c_threshold == pytest.approx(1.2 * math.pi, rel=1e-12)
        assert constants.d_rate == pytest.approx(1.0 / (2 * math.pi), rel=1e-12)

    def test_pairing_gate(self):
        bad = ProblemParams(n=1, p=2.0, lam=1j, alpha=1.0)  # Re(alpha lam) = 0
        with pytest.raises(ValueError):
            compute_constants(bad)

    @pytest.mark.parametrize("n", [1, 2])
    def test_weight_bound_is_closed_form(self, n, monkeypatch):
        # sup |op w / w| = n for w = <x>^(-n-1): the chain samples no PV point
        def no_quadrature(*args, **kwargs):
            raise AssertionError("the constants chain sampled the operator")

        for module in (pv, lemma):
            monkeypatch.setattr(module, "frac_laplacian_pv", no_quadrature)
        cst = compute_constants(ProblemParams(n=n, p=2.0, lam=1j))
        assert cst.a_bound == A_MARGIN * n

    def test_dim2_chain(self):
        # direct recomputation of the displayed formulas with W = 2 pi
        params = ProblemParams(n=2, p=1.5, lam=1j)
        cst = compute_constants(params)
        p, pc, w = 1.5, 3.0, 2.0 * math.pi
        c_pow_p = 2.0 ** (1 + pc / p) * p ** (-pc / p) / pc * 2.4**pc * w**p
        assert cst.c_threshold == pytest.approx(c_pow_p ** (1 / p), rel=1e-12)
        assert cst.d_rate == pytest.approx(0.5 * w ** (1 - p), rel=1e-12)
        assert cst.sphere == pytest.approx(2.0 * math.pi)


class TestWeightedFunctional:
    def test_zero_field(self):
        g = GridSpec(1, 10.0, 128)
        assert weighted_functional(Field.zeros(g), 1.0, 1.0) == 0.0

    def test_linearity_in_amplitude(self):
        g = GridSpec(1, 20.0, 512)
        f = Field.from_function(g, lambda x: (1 + 2j) * np.exp(-x * x))
        m1 = weighted_functional(f, 0.3 + 1j, 1.5)
        m3 = weighted_functional(Field(g, 3.0 * f.values), 0.3 + 1j, 1.5)
        assert m3 == pytest.approx(3.0 * m1, rel=1e-13)

    def test_mollified_indicator_oracle(self):
        # u0 = i * (mollified indicator of [-1, 1]), alpha = 1, R = 1:
        # the value is minus the weighted mass of the mollified bump,
        # near -pi/2 = -2 arctan(1) for a sharp mollification
        g = GridSpec(1, 40.0, 8192)
        x = g.axis()
        w = 0.05
        bump = 0.5 * (1.0 + np.tanh((1.0 - np.abs(x)) / w))
        u = Field(g, 1j * bump)
        oracle = -scipy_quad(
            lambda t: 0.5 * (1 + math.tanh((1 - abs(t)) / w)) / (1 + t * t),
            -40.0, 40.0, limit=400)[0]
        m = weighted_functional(u, 1.0, 1.0)
        assert m == pytest.approx(oracle, abs=1e-9)
        assert m == pytest.approx(-math.pi / 2, abs=5e-3)
        assert weighted_functional(u, -1.0, 1.0) \
            == pytest.approx(math.pi / 2, abs=5e-3)

    def test_nonpositive_radius_rejected(self):
        g = GridSpec(1, 10.0, 128)
        with pytest.raises(ValueError, match="weight radius must be positive"):
            weighted_functional(Field.zeros(g), 1.0, -1.0)

    def test_dim2_radial_oracle(self):
        # -Im(i * int e^(-|x|^2) <x/R>^(-3) dx) against a radial quadrature
        g = GridSpec(2, 12.0, 256)
        u = Field.from_function(g, lambda x, y: 1j * np.exp(-(x**2 + y**2)))
        R = 1.5
        m = weighted_functional(u, 1.0, R)
        oracle = -2.0 * math.pi * scipy_quad(
            lambda r: r * math.exp(-r * r) * (1 + (r / R) ** 2) ** -1.5,
            0.0, 12.0, limit=200)[0]
        assert m == pytest.approx(oracle, rel=1e-8)


class TestLifespanBound:
    def test_direct_substitution(self, params, constants):
        # gap = 1 with D = 1, R = 1, p = 2 gives T = 1
        unit = dataclasses.replace(constants, c_threshold=1.0, d_rate=1.0)
        rep = lifespan_bound(2.0, unit, 1.0)
        assert rep.condition_holds and rep.t_bound == pytest.approx(1.0)

    def test_gap_doubling_halves_bound(self, params, constants):
        unit = dataclasses.replace(constants, c_threshold=1.0, d_rate=1.0)
        t1 = lifespan_bound(2.0, unit, 1.0).t_bound
        t2 = lifespan_bound(3.0, unit, 1.0).t_bound
        assert t2 == pytest.approx(0.5 * t1)

    def test_below_threshold_inconclusive(self, params, constants):
        rep = lifespan_bound(0.1, constants, 1.0)
        assert not rep.condition_holds and rep.t_bound == math.inf

    @pytest.mark.parametrize("m0, R", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan)])
    def test_non_finite_input_rejected(self, constants, m0, R):
        # a NaN would otherwise pass as an inconclusive report
        with pytest.raises(ValueError):
            lifespan_bound(m0, constants, R)


class TestEnvelope:
    def test_initial_value_and_monotonicity(self, params, constants):
        unit = dataclasses.replace(constants, c_threshold=1.0, d_rate=1.0)
        t = np.linspace(0.0, 0.99, 50)
        env = ode_lower_envelope(2.0, unit, 1.0, t)
        assert env[0] == pytest.approx(1.0)  # gap at t = 0
        assert np.all(np.diff(env) > 0)

    def test_divergence_at_bound(self, params, constants):
        unit = dataclasses.replace(constants, c_threshold=1.0, d_rate=1.0)
        env = ode_lower_envelope(2.0, unit, 1.0, [0.999999, 1.0, 1.5])
        assert env[0] > 1e5 and math.isinf(env[1]) and math.isinf(env[2])

    def test_needs_threshold_condition(self, params, constants):
        with pytest.raises(ValueError):
            ode_lower_envelope(0.0, constants, 1.0, [0.0])


class TestInitialData:
    def test_phase_identity(self, params):
        # -Im(alpha f) reproduces the profile exactly and Re(alpha f) = 0
        g = GridSpec(1, 40.0, 4096)
        spec = InitialDataSpec(kind="inner-singular", mu=7.0, k=0.25)
        f = make_initial_data(spec, g, params.alpha)
        paired = params.alpha * f.values
        assert np.max(np.abs(paired.real)) == 0.0
        profile = -paired.imag
        assert profile.min() >= 0.0
        r = g.radii()
        inside = r <= 1.0
        want = 7.0 * np.maximum(r[inside], 0.5 * g.dx) ** -0.25
        assert np.max(np.abs(profile[inside] - want)) == 0.0

    def test_conjugate_pairing_special_case(self):
        # alpha = conj(lam) reproduces data with Re(conj(lam) u0) = 0
        lam = 0.6 + 0.8j
        g = GridSpec(1, 40.0, 1024)
        spec = InitialDataSpec(kind="integrable", mu=2.0)
        f = make_initial_data(spec, g, np.conj(lam))
        assert np.max(np.abs((np.conj(lam) * f.values).real)) < 1e-15
        assert np.all(-(np.conj(lam) * f.values).imag >= 0.0)

    def test_outer_tail_integrable_norms_stable(self):
        # k > n: the tail is absolutely integrable, so both lattice norms
        # settle under refinement
        spec = InitialDataSpec(kind="outer-decay", mu=1.0, k=1.5)
        norms = []
        for N in (2048, 4096, 8192):
            g = GridSpec(1, 60.0, N)
            f = make_initial_data(spec, g, -1j)
            norms.append((float(np.sum(np.abs(f.values)) * g.cell_volume), f.l2_norm()))
        for a, b in zip(norms[:-1], norms[1:]):
            assert a[0] == pytest.approx(b[0], rel=1e-3)
            assert a[1] == pytest.approx(b[1], rel=1e-3)

    def test_inner_core_square_integrable(self):
        # k < n/2: the l2 norm of the grid-capped singularity converges
        # under refinement (the cap contributes O(dx^(1/2 - k)) to it)
        spec = InitialDataSpec(kind="inner-singular", mu=1.0, k=0.25)
        norms = []
        for N in (2048, 4096, 8192, 16384):
            g = GridSpec(1, 40.0, N)
            f = make_initial_data(spec, g, -1j)
            norms.append(f.l2_norm())
        diffs = [abs(a - b) for a, b in zip(norms[:-1], norms[1:])]
        assert diffs[2] < diffs[1] < diffs[0]
        assert diffs[2] < 0.01 * norms[-1]

    def test_invariant_violations_named(self):
        g = GridSpec(1, 40.0, 1024)
        with pytest.raises(ValueError, match="k < n/2"):
            make_initial_data(InitialDataSpec(kind="inner-singular", mu=1.0, k=0.6),
                              g, -1j)
        with pytest.raises(ValueError, match="k > n/2"):
            make_initial_data(InitialDataSpec(kind="outer-decay", mu=1.0, k=0.4),
                              g, -1j)
        with pytest.raises(ValueError):
            InitialDataSpec(kind="mystery", mu=1.0)
        with pytest.raises(ValueError):
            InitialDataSpec(kind="integrable", mu=-1.0)
        with pytest.raises(ValueError):
            InitialDataSpec(kind="inner-singular", mu=1.0, k=0.25, cap_radius=-0.1)


class TestAdaptedRadius:
    @pytest.mark.parametrize("n, p, kind, k, r_target", [
        (1, 2.0, "inner-singular", 0.25, 0.3),
        (2, 2.0, "inner-singular", 0.5, 0.3),
        (1, 1.25, "outer-decay", 1.5, 25.0),   # k > n: k' = n
        (2, 1.5, "outer-decay", 1.5, 25.0),
    ])
    def test_closed_form_round_trip(self, n, p, kind, k, r_target):
        params = ProblemParams(n=n, p=p, lam=1j)
        constants = compute_constants(params)
        mu = in_regime_amplitude(kind, k, constants, r_target)
        spec = InitialDataSpec(kind=kind, mu=mu, k=k)
        closed = adapted_radius(spec, constants)
        assert closed.r_star == pytest.approx(r_target, rel=1e-12)
        # the verdict is taken at the closed-form radius
        assert _verdict(spec, constants, params, GridSpec(n, 64.0, 128)).R == closed.r_star

    def test_inner_overlap_constant(self, params, constants):
        # n = 1, k = 1/4: I = (n-k)^(-1) 2^(-n-1) omega_n = 2/3
        g = GridSpec(1, 40.0, 8192)
        spec = InitialDataSpec(kind="inner-singular", mu=30.0, k=0.25)
        assert family_i_const(spec, 1) == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert _verdict(spec, constants, params, g).condition_holds
        assert adapted_radius(spec, constants).regime_ok

    def test_amplitude_scaling_exact(self, params, constants):
        k = 0.25
        t1 = adapted_radius(InitialDataSpec(kind="inner-singular", mu=30.0, k=k),
                            constants).t_bound_formula
        t2 = adapted_radius(InitialDataSpec(kind="inner-singular", mu=60.0, k=k),
                            constants).t_bound_formula
        predicted = t1 * 2.0 ** (-1.0 / (1.0 / (params.p - 1.0) - k))
        assert t2 == pytest.approx(predicted, rel=1e-13)

    def test_outer_exponent_uses_min(self):
        # k > n selects the dimension in the lifespan exponent
        params = ProblemParams(n=1, p=1.25, lam=1j)
        constants = compute_constants(params)
        k = 1.5
        t1 = adapted_radius(InitialDataSpec(kind="outer-decay", mu=1e-4, k=k),
                            constants).t_bound_formula
        t2 = adapted_radius(InitialDataSpec(kind="outer-decay", mu=2e-4, k=k),
                            constants).t_bound_formula
        expo = -1.0 / (1.0 / (params.p - 1.0) - min(params.n, k))
        assert t2 / t1 == pytest.approx(2.0 ** expo, rel=1e-12)

    def test_out_of_regime_reports_boundary(self, constants):
        rr = adapted_radius(InitialDataSpec(kind="inner-singular", mu=1.0, k=0.25), constants)
        assert not rr.regime_ok
        assert "R*" in rr.boundary

    def test_chain_consistency(self, params, constants):
        # whenever the adapted radius is in its regime and the threshold
        # holds there, the lattice bound sits below the formula bound
        g = GridSpec(1, 40.0, 8192)
        for mu in (25.0, 50.0, 100.0):
            spec = InitialDataSpec(kind="inner-singular", mu=mu, k=0.25)
            rr = adapted_radius(spec, constants)
            verdict = _verdict(spec, constants, params, g)
            if rr.regime_ok and verdict.condition_holds:
                assert math.isfinite(verdict.t_bound)
                assert verdict.t_bound <= rr.t_bound_formula * 1.001

    def test_p_constraint_named(self, constants):
        steep = ProblemParams(n=1, p=6.0, lam=1j)  # 1/(p-1) = 0.2 < k
        cst = compute_constants(steep)
        with pytest.raises(ValueError, match="1/\\(p-1\\)"):
            adapted_radius(InitialDataSpec(kind="inner-singular", mu=5.0, k=0.4), cst)


def test_integrable_family_large_radius_gate():
    # positive integrable data: for p < 1 + 1/n the threshold scale decays
    # as R grows, so some large radius certifies the condition
    params = ProblemParams(n=1, p=1.8, lam=1j)
    constants = compute_constants(params)
    g = GridSpec(1, 400.0, 16384)
    u0 = make_initial_data(InitialDataSpec(kind="integrable", mu=50.0), g, params.alpha)
    rep = lifespan_bound(
        weighted_functional(u0, params.alpha, 120.0),
        constants, 120.0)
    assert rep.condition_holds and math.isfinite(rep.t_bound)
