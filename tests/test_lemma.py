"""Decay-regime sampling, fitting, and verdicts."""
import math

import numpy as np
import pytest

from fracblow.lemma import (FIT_WINDOW, DegenerateFitError, _a_hat, _negativity, default_radii,
                            fit_decay, sample_frac_weight, verify_gaussian_remark, verify_lemma)
from fracblow.profiles import bracket
from fracblow.pv import normalization_constant


class TestSampling:
    def test_closed_form_values(self):
        g, _ = sample_frac_weight(1, 2.0, [0.0, 1.0, 3.0])
        # op <x>^(-2) = (1-x^2)/(1+x^2)^2: values 1, 0, -8/100
        np.testing.assert_allclose(g, [1.0, 0.0, -0.08], rtol=0.0, atol=1e-6)

    def test_magnitude_decreases_beyond_inflection(self):
        g, _ = sample_frac_weight(1, 3.0, np.geomspace(4.0, 400.0, 8))
        assert np.all(np.isfinite(g))
        assert np.all(np.diff(np.abs(g)) < 0)

    @pytest.mark.parametrize("lo", [0.1, 0.25])
    def test_window_must_start_above_the_midrange(self, lo):
        with pytest.raises(ValueError, match="MIDRANGE_START = 0.25"):
            default_radii((lo, 100.0 * lo))

    def test_bad_radii_rejected(self):
        with pytest.raises(ValueError):
            sample_frac_weight(1, 2.0, [1.0, 0.5])
        with pytest.raises(ValueError):
            sample_frac_weight(1, -1.0, [0.5, 1.0])


class TestFitDecay:
    def test_exact_power_law(self):
        r = np.geomspace(1e2, 1e4, 12)
        exponent, log_coeff, residual = fit_decay(r, bracket(r) ** -3.0, "plain")
        assert exponent == pytest.approx(-3.0, abs=1e-9)
        assert log_coeff is None  # the plain model has no log term
        assert residual < 1e-12

    def test_logarithmic_model_recovers_coefficients(self):
        r = np.geomspace(1e2, 1e4, 12)
        g = bracket(r) ** -2.0 * (0.3 + 0.64 * np.log1p(r))
        _, log_coeff, _ = fit_decay(r, g, "logarithmic", n=1)
        assert log_coeff == pytest.approx(0.64, rel=1e-6)

    def test_too_few_samples_refused(self):
        r = np.geomspace(1e2, 1e4, 5)
        with pytest.raises(ValueError):
            fit_decay(r, 1.0 / r, "plain")

    @pytest.mark.parametrize("last", [5e2, 2e3])  # 6 samples; 11 over 1.3 decades
    def test_too_few_nonzero_samples_is_a_degenerate_fit(self, last):
        # samples that underflowed to 0 are dropped; what is left cannot be fitted
        r = np.geomspace(1e2, 1e4, 17)
        with pytest.raises(DegenerateFitError, match="need >= 8 nonzero samples over two decades"):
            fit_decay(r, np.where(r > last, 0.0, 1.0 / r), "plain")

    def test_narrow_window_refused(self):
        r = np.geomspace(1e2, 5e2, 10)
        with pytest.raises(ValueError):
            fit_decay(r, 1.0 / r, "plain", window=(1e2, 5e2))

    def test_degenerate_samples_refused(self):
        r = np.geomspace(1e2, 1e4, 10)
        with pytest.raises(ValueError):
            fit_decay(r, np.full_like(r, 1e-300), "plain")


class TestVerdicts:
    def test_shallow_weight_dim1(self):
        v = verify_lemma(1, 0.5)
        assert v.regime == "q<n" and v.matched
        assert v.fitted_exponent == pytest.approx(-1.5, abs=0.05)
        # asymptotically op |x|^(-1/2) = -|x|^(-3/2)/2, so the windowed
        # samples sit near that amplitude
        tail = v.g[v.r >= 1e3]
        assert np.all(tail < 0)
        assert abs(tail[-1]) * v.r[-1] ** 1.5 == pytest.approx(0.5, rel=0.02)

    def test_log_regime_dim1(self):
        v = verify_lemma(1, 1.0)
        assert v.regime == "q=n" and v.matched
        assert v.log_coeff > 0
        assert v.residual_ratio > 3.0
        assert v.negativity_ok and v.r_neg is not None

    def test_steep_weight_dim1(self):
        v = verify_lemma(1, 2.0)
        assert v.regime == "q>n" and v.matched
        assert v.fitted_exponent == pytest.approx(-2.0, abs=0.05)
        # closed form is negative exactly beyond r = 1
        assert v.r_neg == pytest.approx(1.0, abs=0.6)

    @pytest.mark.parametrize("n", [1, 2])
    def test_weight_bound_constant_is_n(self, n):
        # sup |op w / w| = n for w = <x>^(-n-1), reached at r = 0: the
        # closed form the constants chain uses, checked by the decay suite
        v = verify_lemma(n, n + 1.0)
        assert v.a_hat == pytest.approx(n, abs=1e-4)

    def test_degenerate_shallow_weight_dim2(self):
        # q = n - 1 sits at the vanishing point of the leading coefficient:
        # the operator output is exactly <x>^(-3) (see the 2D bracket
        # identity in test_pv.py), one power steeper than the regime bound,
        # so the sharp exponent predicted is -(n+1) = -3 and the fit meets it
        v = verify_lemma(2, 1.0)
        assert v.regime == "q<n"
        assert v.fitted_exponent == pytest.approx(-3.0, abs=0.02)
        assert v.predicted_exponent == -3.0
        assert v.matched

    def test_steep_weight_dim2(self):
        v = verify_lemma(2, 3.0)
        assert v.regime == "q>n" and v.matched
        assert v.fitted_exponent == pytest.approx(-3.0, abs=0.1)

    @pytest.mark.parametrize("n,q,amplitude", [
        # far-field amplitude of the q > n regime is B_n * L1-mass of the
        # weight: n=1, q=3: (1/pi) * 2 = 2/pi; n=2, q=3: (1/2pi) * 2pi = 1;
        # n=2, q=4: (1/2pi) * pi = 1/2
        (1, 3.0, 2.0 / math.pi),
        (2, 3.0, 1.0),
        (2, 4.0, 0.5),
    ])
    def test_far_field_amplitude_oracle(self, n, q, amplitude):
        v = verify_lemma(n, q)
        assert v.g[-1] * bracket(v.r[-1]) ** (n + 1) == pytest.approx(-amplitude, rel=2e-3)

    @pytest.mark.parametrize("n", [1, 2])
    def test_log_coefficient_oracle(self, n):
        # at q = n the log-model coefficient approaches B_n * omega_n
        # (2/pi on the line, exactly 1 on the plane)
        b = normalization_constant(n).value
        v = verify_lemma(n, float(n))
        expected = b * (2.0 if n == 1 else 2.0 * math.pi)
        assert v.log_coeff == pytest.approx(expected, rel=0.02)

    def test_regime_trichotomy_exclusive(self):
        # the fitted exponent matches only the case selected by q vs n
        for q, regime in ((0.5, "q<n"), (1.0, "q=n"), (2.0, "q>n")):
            v = verify_lemma(1, q)
            assert v.regime == regime and v.matched
            if regime == "q<n":
                assert abs(v.fitted_exponent - (-2.0)) > 3 * 0.05
            elif regime == "q>n":
                assert abs(v.fitted_exponent - (-(q + 1.0))) > 3 * 0.05

    def test_a_hat_stable_under_denser_sampling(self):
        v = verify_lemma(1, 2.0)
        # the default midrange, then 16 radii a decade in the fit window
        dense = np.concatenate((default_radii()[:11], np.geomspace(*FIT_WINDOW, 33)))
        a_hat = _a_hat(dense, *sample_frac_weight(1, 2.0, dense), -2.0)
        assert abs(a_hat - v.a_hat) < 0.05 * v.a_hat


class TestScaleCovariance:
    def test_dilated_weight(self):
        # op applied to <x/R>^(-q) at R*x equals R^(-1) op(<.>^(-q))(x)
        from fracblow.profiles import bracket_profile
        from fracblow.pv import frac_laplacian_pv

        R, x0 = 2.0, np.array([0.6, 3.0])
        scaled, _ = frac_laplacian_pv(bracket_profile(2.0, R=R), 1, R * x0)
        ref, _ = frac_laplacian_pv(bracket_profile(2.0), 1, x0)
        np.testing.assert_allclose(scaled, ref / R, rtol=0.0, atol=1e-7)


class TestGaussianRemark:
    def test_dim1(self):
        v = verify_gaussian_remark(1)
        assert v.matched and v.negativity_ok
        assert v.fitted_exponent == pytest.approx(-2.0, abs=0.1)
        # extracted constant approaches B_1 * sqrt(pi) = 1/sqrt(pi)
        assert v.a_hat == pytest.approx(1.0 / math.sqrt(math.pi), rel=0.05)

    def test_origin_positive(self):
        v = verify_gaussian_remark(1)
        assert v.r[0] == 0.0 and v.g[0] > 0

    def test_dim2(self):
        v = verify_gaussian_remark(2)
        assert v.matched and v.negativity_ok
        assert v.fitted_exponent == pytest.approx(-3.0, abs=0.1)
        # extracted constant approaches B_2 * pi = 1/2
        assert v.a_hat == pytest.approx(0.5, rel=0.05)


class TestNegativity:
    """``_negativity`` against its definition: the smallest positive sampled
    radius beyond which every sample is strictly negative."""

    @staticmethod
    def by_definition(r, g):
        for i in np.flatnonzero(r > 0.0):
            if all(gj < 0.0 for rj, gj in zip(r[i:], g[i:]) if rj > 0.0):
                return float(r[i])
        return None

    @pytest.mark.parametrize("g, want", [
        pytest.param([-1.0, -2.0, -3.0, -4.0], 0.5, id="all-negative"),
        pytest.param([1.0, -2.0, -3.0, 4.0], None, id="last-non-negative"),
        pytest.param([1.0, -2.0, 0.0, -4.0], 3.0, id="zero-sample"),
        pytest.param([1.0, -2.0, -3.0, -4.0], 0.5, id="positive-at-origin-ignored"),
        pytest.param([1.0, math.nan, -3.0, -4.0], 2.0, id="nan-sample"),
    ])
    def test_against_the_definition(self, g, want):
        r, g = np.array([0.0, 0.5, 2.0, 3.0]), np.array(g)
        assert _negativity(r, g) == self.by_definition(r, g) == want

    def test_no_positive_radius(self):
        assert _negativity(np.array([0.0]), np.array([-1.0])) is None
