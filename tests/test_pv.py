"""Singular-quadrature evaluator against analytic and brute-force oracles."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.special import ellipe, j0

from fracblow import pv
from fracblow.lemma import sample_frac_weight
from fracblow.profiles import RadialProfile, bracket_profile, gaussian_profile
from fracblow.pv import QuadratureError, frac_laplacian_pv, normalization_constant


def lorentzian_half_laplacian(x):
    # op(1+x^2)^(-1) = (1-x^2)/(1+x^2)^2, checked symbolically via the
    # Fourier pair 1/(1+x^2) <-> pi e^(-|xi|)
    return (1.0 - x * x) / (1.0 + x * x) ** 2


class TestNormalizationConstant:
    def test_dim1_analytic_oracle(self):
        # oracle: int (1-cos t)/t^2 over R equals pi, so B = 1/pi
        res = normalization_constant(1)
        assert abs(res.value - 1.0 / math.pi) < 1e-6
        assert res.error <= 1e-8

    @pytest.mark.parametrize("n", [1, 2])
    def test_closed_form(self, n):
        # B_n = Gamma((n+1)/2) / pi^((n+1)/2), i.e. 1/pi and 1/(2 pi)
        res = normalization_constant(n)
        want = math.gamma((n + 1) / 2) / math.pi ** ((n + 1) / 2)
        assert abs(res.value - want) <= 2 * math.ulp(want)
        assert abs(res.value - 1.0 / (n * math.pi)) <= 2 * math.ulp(want)
        assert 0.0 < res.error <= 4 * np.finfo(float).eps * res.value

    def test_dim2_brute_force_oracle(self):
        # independent oracle: 2 pi int_0^inf (1 - J0(r))/r^2 dr by adaptive
        # panels of half a period, plus the coarse 1/Y tail bracket
        y = 3000.0
        total = 0.0
        edges = np.arange(0.0, y, 0.5 * math.pi)
        for a, b in zip(edges[:-1], edges[1:]):
            total += scipy_quad(lambda r: (1.0 - j0(r)) / r**2 if r > 0 else 0.25,
                                a, b, limit=200)[0]
        tail_lo, tail_hi = 1.0 / y - math.sqrt(2 / math.pi) * y**-1.5, 1.0 / y + math.sqrt(2 / math.pi) * y**-1.5
        oracle = 1.0 / (2.0 * math.pi * (total + 0.5 * (tail_lo + tail_hi)))
        res = normalization_constant(2)
        assert abs(res.value - oracle) < 1e-6
        assert res.error <= 1e-8

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            normalization_constant(3)


def pv_at(profile, n, r, **rule):
    """The value and error at one radius."""
    values, errors = frac_laplacian_pv(profile, n, [r], **rule)
    return values[0], errors[0]


@pytest.mark.parametrize("m", [pv.RADIAL_NODES, pv.RADIAL_NODES + 6])
def test_stored_rules_are_leggauss_to_the_bit(m):
    # the shells' two rules are stored, so that no sample imports numpy.polynomial
    nodes, weights = pv._gauss_rule(m)
    want_nodes, want_weights = np.polynomial.legendre.leggauss(m)
    assert nodes.tobytes() == want_nodes.tobytes()
    assert weights.tobytes() == want_weights.tobytes()


class TestPointwiseEvaluator:
    @pytest.mark.parametrize("x,expected", [(0.0, 1.0), (1.0, 0.0), (2.0, -3.0 / 25.0)])
    def test_lorentzian_closed_form(self, x, expected):
        value, error = pv_at(bracket_profile(2.0), 1, x)
        assert value == pytest.approx(expected, abs=1e-6)
        assert abs(value - expected) <= 2.0 * error + 1e-10

    def test_lorentzian_far_field(self):
        x = np.array([1e2, 1e3, 1e4])
        values, _ = frac_laplacian_pv(bracket_profile(2.0), 1, x, y_max=120.0 * (1 + x), tol=1.0)
        np.testing.assert_allclose(values, lorentzian_half_laplacian(x), rtol=1e-6)

    def test_dim2_bracket_identity(self):
        # op <x>^(-1) = <x>^(-3) in two dimensions (Poisson-kernel Hankel
        # pair: the weight transforms to 2 pi e^(-s)/s, the multiplier
        # strips the 1/s, and s e^(-s) transforms back to <x>^(-3))
        r = np.array([0.0, 0.5, 2.0, 10.0, 100.0])
        values, errors = frac_laplacian_pv(bracket_profile(1.0), 2, r,
                                           y_max=np.maximum(256.0, 120.0 * (1 + r)), tol=1.0)
        want = (1 + r * r) ** -1.5
        assert np.all(np.abs(values - want) <= errors + 1e-12)
        np.testing.assert_allclose(values, want, rtol=1e-4)

    def test_gaussian_cross_method(self):
        # against the spectral route on a wide fine grid
        from fracblow.grid import GridSpec
        from fracblow.spectral import frac_laplacian_spectral

        g = GridSpec(1, 80.0, 8192)
        x = g.axis()
        spectral = frac_laplacian_spectral(g, np.exp(-x * x) + 0j).real
        pts = np.linspace(-3.0, 3.0, 13)
        idx = np.argmin(np.abs(x[None, :] - pts[:, None]), axis=1)
        vals, _ = frac_laplacian_pv(gaussian_profile(), 1, np.abs(x[idx]))
        assert np.max(np.abs(vals - spectral[idx])) < 1e-4

    def test_gaussian_at_origin(self):
        # 2/sqrt(pi), from integrating |xi| against the Gaussian transform
        value, _ = pv_at(gaussian_profile(), 1, 0.0)
        assert value == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-8)

    def test_linearity(self):
        f, g = bracket_profile(2.0), gaussian_profile()
        combo = RadialProfile(fn=lambda s: 0.7 * f.fn(s) - 0.4 * g.fn(s),
                              tail=lambda r: 0.7 * f.tail(r) + 0.4 * g.tail(r))
        r = [0.0, 0.9, 3.0]
        lhs, _ = frac_laplacian_pv(combo, 1, r, tol=1.0)
        rhs = 0.7 * frac_laplacian_pv(f, 1, r)[0] - 0.4 * frac_laplacian_pv(g, 1, r)[0]
        np.testing.assert_allclose(lhs, rhs, rtol=0.0, atol=1e-10)

    def test_refinement_stability(self, monkeypatch):
        # halving EPS0 and doubling the radial nodes moves the value by less
        # than the reported certificate
        profiles = (bracket_profile(2.0), gaussian_profile(), bracket_profile(3.0))
        r = [0.0, 0.3, 1.5, 4.0, 9.0]
        default = [frac_laplacian_pv(prof, 1, r) for prof in profiles]
        monkeypatch.setattr(pv, "EPS0", pv.EPS0 / 2)
        monkeypatch.setattr(pv, "RADIAL_NODES", 2 * pv.RADIAL_NODES)
        for prof, (values, errors) in zip(profiles, default):
            refined, _ = frac_laplacian_pv(prof, 1, r)
            assert np.all(np.abs(values - refined) <= errors)

    def test_nonconvergence_raises_with_residual(self):
        with pytest.raises(QuadratureError) as err:
            frac_laplacian_pv(bracket_profile(0.5), 1, [0.0], y_max=8.0, tol=1e-12)
        assert err.value.residual > 1e-12
        assert math.isfinite(err.value.value)

    def test_batch_raises_at_its_first_failing_radius(self):
        # radius 1 misses its tolerance first; radius 2 would miss it too
        rule = dict(y_max=8.0, tol=1e-12)
        with pytest.raises(QuadratureError) as single:
            frac_laplacian_pv(bracket_profile(0.5), 1, [1.0], **rule)
        with pytest.raises(QuadratureError) as batch:
            frac_laplacian_pv(bracket_profile(0.5), 1, [0.0, 1.0, 2.0],
                              y_max=8.0, tol=[1.0, 1e-12, 1e-12])
        assert str(batch.value) == str(single.value)
        assert "radius 1" in str(batch.value)
        assert batch.value.value == single.value.value
        assert batch.value.residual == single.value.residual

    def test_nan_values_raise(self):
        # a NaN error estimate must fail the certificate gate, not pass it
        nan_profile = RadialProfile(fn=lambda s: np.full_like(s, np.nan), tail=lambda r: 1.0)
        for n, r in ((1, 0.0), (1, 1.5), (2, 0.5)):
            with pytest.raises(QuadratureError):
                frac_laplacian_pv(nan_profile, n, [r])

    def test_batch_matches_pointwise(self):
        r = [0.0, 0.5, 2.5]
        for n in (1, 2):
            vals, errs = frac_laplacian_pv(bracket_profile(2.0), n, r)
            for ri, v, e in zip(r, vals, errs):
                assert pv_at(bracket_profile(2.0), n, ri) == (v, e)

    @pytest.mark.parametrize("n", [1, 2])
    def test_subnormal_radii_sample_the_origin(self, n):
        # a quarter of the least subnormal underflows to 0: the core
        # refinement around t = r must not then loop forever at zero width
        values, errors = frac_laplacian_pv(bracket_profile(2.0), n, [0.0, 5e-324, 1e-310, 1e-160])
        assert np.all(np.abs(values - values[0]) <= errors[0])

    def test_radii_past_the_default_cutoff_certify_in_1d(self):
        # the shells run past t = |x| in 1D too, so the far field starts past
        # the origin's core instead of bracketing it from 0
        r = np.array([200.0, 300.0, 1000.0, 1e5])
        values, errors = frac_laplacian_pv(bracket_profile(2.0), 1, r)
        assert np.all(np.abs(values - lorentzian_half_laplacian(r)) <= errors)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [1, 2])
    def test_overflowing_radius_refused(self, n):
        # (2r + y)^2 overflows past r ~ 3.35e153 with y >= 2r; a cutoff past
        # the radius lets it through MAX_RADIUS to that check.  Both refusals
        # come before the radius's far field, which would overflow on the way
        with pytest.raises(OverflowError, match=r"radius 1e\+300 too large: \(2r \+ y\)\^2"):
            frac_laplacian_pv(bracket_profile(2.0), n, [1.0, 1e300], y_max=[256.0, 1e301])
        with pytest.raises(OverflowError, match=r"radius 1e\+300 too large: past 4\.1943e\+06"):
            frac_laplacian_pv(bracket_profile(2.0), n, [1.0, 1e300])

    @pytest.mark.parametrize("radii", [[0.5, -1.0], [0.5, -1e-300], [0.5, math.inf],
                                       [0.5, math.nan], [[0.5, 0.0]]])
    def test_bad_radii_rejected(self, radii):
        # a point is not a radius: a 2D point is refused too
        with pytest.raises(ValueError, match="radii"):
            frac_laplacian_pv(bracket_profile(2.0), 2, radii)


#: the origin, a subnormal radius, the profile core and far out: enough
#: radii for several passes of the default block size
GROUPING_RADII = np.concatenate(([0.0, 5e-324, 1e-160, 0.3, 1.0], np.geomspace(1.7, 3e3, 16)))


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


@pytest.fixture
def passes(monkeypatch):
    """The radii of each array pass, in call order."""
    seen = []
    shell_sums = pv._shell_sums

    def spy(profile, n, ax, *rest):
        seen.append(ax.tolist())
        return shell_sums(profile, n, ax, *rest)

    monkeypatch.setattr(pv, "_shell_sums", spy)
    return seen


class TestGroupingInvariance:
    """A radius's value and certificate do not depend on which other radii
    share its call, nor on the block size."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("profile", [bracket_profile(3.0), gaussian_profile(0.7)],
                             ids=["bracket", "gaussian"])
    @pytest.mark.parametrize("per_radius_cutoff", [False, True])
    def test_one_call_equals_one_radius_calls(self, n, profile, per_radius_cutoff, passes,
                                              monkeypatch):
        r = GROUPING_RADII
        y_max = 120.0 * (1.0 + r) if per_radius_cutoff else pv.Y_MAX
        rule = dict(y_max=y_max, tol=1.0)
        values, errors = frac_laplacian_pv(profile, n, r, **rule)
        assert 2 < len(passes) // 2 < r.size  # several blocks of several radii
        one = [frac_laplacian_pv(profile, n, [ri], y_max=np.broadcast_to(y_max, r.shape)[i],
                                 tol=1.0) for i, ri in enumerate(r)]
        assert np.array_equal(bits(values), bits([v[0] for v, _ in one]))
        assert np.array_equal(bits(errors), bits([e[0] for _, e in one]))
        for budget in (1, 10**9):  # every radius alone; the whole call in one pass
            monkeypatch.setattr(pv, "_BLOCK_NODES", budget)
            again = frac_laplacian_pv(profile, n, r, **rule)
            assert np.array_equal(bits(again), bits((values, errors)))

    @pytest.mark.parametrize("n", [1, 2])
    def test_error_at_a_later_block_is_the_one_radius_error(self, n, passes):
        # every radius from k on misses its tolerance; k sits in a later pass
        k = GROUPING_RADII.size - 4
        profile = bracket_profile(2.0)
        with pytest.raises(QuadratureError) as single:
            frac_laplacian_pv(profile, n, GROUPING_RADII[k:k + 1], tol=1e-17)
        passes.clear()
        tol = np.where(np.arange(GROUPING_RADII.size) < k, 1.0, 1e-17)
        with pytest.raises(QuadratureError) as batch:
            frac_laplacian_pv(profile, n, GROUPING_RADII, tol=tol)
        assert GROUPING_RADII[k] not in passes[0]
        assert str(batch.value) == str(single.value)
        assert bits(batch.value.value) == bits(single.value.value)
        assert bits(batch.value.residual) == bits(single.value.residual)

    def test_blocks_are_consecutive_and_bounded(self, monkeypatch):
        monkeypatch.setattr(pv, "_BLOCK_NODES", 18 * 10)
        # fine-rule nodes are 18 a shell: 4 + 6 shells fit, 12 is alone
        assert list(pv._blocks([4, 6, 1, 12, 3, 3])) == [(0, 2), (2, 3), (3, 4), (4, 6)]
        assert list(pv._blocks([])) == []


class TestFarCutoffGrowth:
    """A cutoff whose far field takes more than a third of the tolerance is
    doubled inside the sampler, so a call from it is a call from the
    cutoff it grows to."""

    @pytest.mark.parametrize("n, q", [(1, 0.5), (1, 1.0), (2, 0.5), (2, 1.0)])
    def test_start_and_grown_cutoff_give_the_same_bits(self, n, q, monkeypatch):
        tried = {}
        far_field = pv._far_field

        def spy(profile, ax, dim, y):
            tried.setdefault(ax, []).append(y)
            return far_field(profile, ax, dim, y)

        monkeypatch.setattr(pv, "_far_field", spy)
        profile, r = bracket_profile(q), [0.0, 1.0, 30.0]
        values, errors = frac_laplacian_pv(profile, n, r, y_max=pv.Y_MAX, tol=1e-6)
        grown = [tried[x][-1] for x in r]
        for x, y in zip(r, grown):  # y_max * 2^k for some k >= 1
            assert tried[x] == [pv.Y_MAX * 2.0 ** k for k in range(len(tried[x]))]
            assert y > pv.Y_MAX
        tried.clear()
        again = frac_laplacian_pv(profile, n, r, y_max=grown, tol=1e-6)
        assert np.array_equal(bits(again), bits((values, errors)))
        assert tried == {x: [y] for x, y in zip(r, grown)}  # each far field met tol / 3 at once


#: radii from the origin through the profile core to far out
CLOSED_FORM_RADII = (0.0, 0.5, 1.0, 3.0, 30.0, 1e3, 1e4)
#: (n, q, exact) with exact(r) = (-Delta)^(1/2) <x>^(-q) at |x| = r, from the
#: Poisson extension
POISSON_CLOSED_FORMS = [
    # <x>^(-2) in 1D, which is also <x>^(-n-1) for n = 1
    (1, 2.0, lambda r: (1.0 - r * r) * (1.0 + r * r) ** -2),
    (2, 1.0, lambda r: (1.0 + r * r) ** -1.5),
    # <x>^(-n-1) -> (n - r^2) <x>^(-n-3) for n = 2
    (2, 3.0, lambda r: (2.0 - r * r) * (1.0 + r * r) ** -2.5),
]


class TestClosedFormCertificates:
    """Certified values against exact Poisson-extension identities.

    The lemma's sampler sets the tolerance to the expected magnitude at
    each radius, so a certificate must hold from the core to r = 1e4.
    """

    @pytest.mark.parametrize("n, q, exact", POISSON_CLOSED_FORMS)
    def test_value_within_certificate(self, n, q, exact):
        values, errors = sample_frac_weight(n, q, CLOSED_FORM_RADII)
        for r, value, error in zip(CLOSED_FORM_RADII, values, errors):
            assert abs(value - exact(r)) <= error, (r, value, error)

    @pytest.mark.parametrize("n, q, exact", POISSON_CLOSED_FORMS)
    def test_large_radii_certify_or_are_refused(self, n, q, exact):
        # at the default cutoff, rounding the nodes near the core to doubles
        # outweighs the certificate from r ~ 4e7 on: r past MAX_RADIUS is refused
        for r in np.geomspace(1e5, 1e20, 46):
            if r > pv.MAX_RADIUS:
                with pytest.raises(OverflowError, match="rounding its nodes"):
                    frac_laplacian_pv(bracket_profile(q), n, [r])
                continue
            (value,), (error,) = frac_laplacian_pv(bracket_profile(q), n, [r])
            assert abs(value - exact(r)) <= error, (r, value, error)

    def test_core_refined_when_the_cutoff_is_inside_the_point(self):
        # y_max = 1 < |x|: the 2D shells must still reach past t = |x|, where
        # the profile core at the origin is seen
        value, error = pv_at(bracket_profile(3.0), 2, 5733.0, y_max=1.0, tol=1.0)
        exact = POISSON_CLOSED_FORMS[2][2]
        assert abs(value - exact(5733.0)) <= error


class TestRadialKernel2D:
    """The closed forms the 2D radial route rests on."""

    def test_agm_ellipe_against_scipy(self):
        kp = np.geomspace(1e-15, 1.0, 46)
        k2 = 1.0 - kp * kp
        assert np.allclose(pv._ellipe(k2, kp), ellipe(k2), rtol=1e-13, atol=0.0)

    def test_agm_batches_of_contiguous_ranges_match_their_parts(self):
        # the array stops together; elements converged earlier are fixed points
        kp = np.geomspace(1e-15, 1.0, 4001)
        k2 = 1.0 - kp * kp
        whole = pv._ellipe(k2, kp)
        decades = np.floor(np.log10(kp))
        for part in [decades == d for d in np.unique(decades)] + np.array_split(np.arange(kp.size), 7):
            assert np.array_equal(bits(pv._ellipe(k2[part], kp[part])), bits(whole[part]))

    def test_agm_lone_elements_move_at_most_one_ulp(self):
        # an element that only just converged when its own call stopped can
        # move by one ulp in a batch that runs on (seen near k' = 6e-14)
        kp = np.geomspace(1e-15, 1.0, 4001)
        k2 = 1.0 - kp * kp
        whole = pv._ellipe(k2, kp)
        alone = np.array([pv._ellipe(k2[i:i + 1], kp[i:i + 1])[0] for i in range(kp.size)])
        assert np.all(np.abs(alone - whole) <= np.spacing(whole))

    def test_kernel_at_the_origin_is_the_sphere_measure(self):
        rho = np.array([1e-3, 0.7, 1.0, 50.0, 1e4])
        assert np.allclose(pv._kappa_2(0.0, rho, rho), 2.0 * math.pi, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("ax, y", [(0.0, 1.0), (1.0, 2.0), (3.0, 0.5), (40.0, 256.0)])
    def test_exterior_mass_against_quadrature(self, ax, y):
        # int_{|z| > ax + y} |x - z|^-3 dz, angle inside, radius outside
        def ring(rho):
            inner = scipy_quad(lambda th: (ax * ax + rho * rho - 2.0 * ax * rho * math.cos(th))
                               ** -1.5, 0.0, math.pi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
            return 2.0 * rho * inner
        direct = scipy_quad(ring, ax + y, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        _, num, den = pv._far_field(bracket_profile(3.0), ax, 2, y)
        assert num / den == pytest.approx(direct, rel=1e-10)


_y_max = st.floats(1.0, 4096.0)
_tols = st.floats(-10.0, -2.0).map(lambda e: 10.0 ** e)
_radii = st.one_of(st.floats(0.0, 10.0), st.floats(0.0, 1e4))


class TestCertificateProperty:
    """Over random far cutoffs, tolerances and radii, a returned value lies
    within its certificate of the exact one; refusing is allowed.

    The Gaussian is left out: its certificates are known to miss.
    """

    @pytest.mark.parametrize("n, q, exact", POISSON_CLOSED_FORMS)
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(y_max=_y_max, tol=_tols, r=_radii)
    def test_value_within_certificate(self, n, q, exact, y_max, tol, r):
        try:
            value, error = pv_at(bracket_profile(q), n, r, y_max=y_max, tol=tol)
        except QuadratureError:
            return
        assert abs(value - exact(r)) <= error


class TestSquaredRadiusProfiles:
    @pytest.mark.parametrize("profile", [bracket_profile(2.0), bracket_profile(3.0, R=2.5),
                                         gaussian_profile(), gaussian_profile(0.7)])
    def test_call_takes_the_radius(self, profile):
        r = np.array([0.0, 0.3, 1.0, 7.5, 1e3])
        assert np.array_equal(profile(r), profile.fn(r * r))

    @pytest.mark.parametrize("profile, radial", [
        (bracket_profile(2.0), lambda r: (1.0 + r * r) ** -1.0),
        (bracket_profile(3.0, R=2.5), lambda r: (1.0 + (r / 2.5) ** 2) ** -1.5),
        (gaussian_profile(0.7), lambda r: math.exp(-(r / 0.7) ** 2)),
    ])
    def test_tail_is_a_function_of_the_radius(self, profile, radial):
        for r in (0.0, 0.5, 2.0, 40.0, 1e4):
            assert profile.tail(r) == pytest.approx(radial(r), rel=1e-14)
            assert profile.tail(r) == float(profile(r))
        assert profile.tail(-3.0) == profile.tail(0.0) == 1.0

    @pytest.mark.parametrize("profile, far", [
        (bracket_profile(3.0), lambda r: 0.0),
        (bracket_profile(0.5), lambda r: r ** -0.5),
        (bracket_profile(1.0, R=1e200), lambda r: (1.0 + (r / 1e200) ** 2) ** -0.5),
        (gaussian_profile(), lambda r: 0.0),
        (gaussian_profile(1e200), lambda r: math.exp(-(r / 1e200) ** 2)),
    ])
    def test_tail_past_the_square_overflow(self, profile, far):
        # r^2 overflows past r ~ 1.34e154: the bound is the profile's own
        # value there, 0 where it has underflowed, and no OverflowError
        for r in (1.4e154, 1e200, 1e300, 1.7e308):
            assert profile.tail(r) == pytest.approx(far(r), rel=1e-14, abs=0.0)
        # below that point the tail is still f at the rounded square
        r = 1.3e154
        assert profile.tail(r) == float(profile.fn(r ** 2))


@pytest.mark.parametrize("key", ["tol", "y_max"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_config_rejects_non_finite(key, bad):
    # the rule's two arguments: a NaN or infinite tol would switch off the
    # certificate gate err > tol
    with pytest.raises(ValueError, match="finite"):
        frac_laplacian_pv(bracket_profile(2.0), 1, [1.0], **{key: bad})
    # one value per radius: a single bad one is refused
    with pytest.raises(ValueError, match="finite"):
        frac_laplacian_pv(bracket_profile(2.0), 1, [0.5, 1.0], **{key: [1.0, bad]})


def test_config_validation():
    with pytest.raises(ValueError):
        frac_laplacian_pv(bracket_profile(2.0), 1, [1.0], tol=0.0)
    with pytest.raises(ValueError):
        frac_laplacian_pv(bracket_profile(2.0), 1, [1.0], y_max=0.5)
    with pytest.raises(ValueError, match="dimension"):
        frac_laplacian_pv(bracket_profile(2.0), 3, [1.0])
