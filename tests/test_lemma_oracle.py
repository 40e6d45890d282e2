"""Every certified sample of the default decay suite against its exact value.

The half-Laplacian of <x>^(-q) in n dimensions is

    2 G((q+1)/2) G((n+1)/2) / (G(q/2) G(n/2)) 2F1((q+1)/2, (n+1)/2; n/2; -|x|^2)

(G the Gamma function; Dyda, Fract. Calc. Appl. Anal. 15 (2012)), and that
of exp(-|x|^2) is 2 G((n+1)/2) / G(n/2) 1F1((n+1)/2; n/2; -|x|^2).  Both are
evaluated with mpmath at 40 digits.  A sample farther from its exact value
than its certified error is a miss.  The weights that miss are marked with
where and by how much: their certificates are too narrow far out, where
the value is many orders below the profile's scale and the roundoff of the
cancellation in S outgrows its allowance.  That one cause is shared by both
dimensions, since 2D takes the same radial route as 1D.
"""
import numpy as np
import pytest

from fracblow.lemma import (EXPONENT_TOL, FIT_WINDOW, default_radii, fit_decay,
                            sample_frac_weight, verify_gaussian_remark, verify_lemma)

mpmath = pytest.importorskip("mpmath")


def _bracket_exact(n, q):
    a, b, c = (mpmath.mpf(q) + 1) / 2, mpmath.mpf(n + 1) / 2, mpmath.mpf(n) / 2
    coeff = 2 * mpmath.gamma(a) * mpmath.gamma(b) / (mpmath.gamma(mpmath.mpf(q) / 2)
                                                     * mpmath.gamma(c))
    return lambda r: coeff * mpmath.hyp2f1(a, b, c, -r * r)


def _gaussian_exact(n):
    b, c = mpmath.mpf(n + 1) / 2, mpmath.mpf(n) / 2
    coeff = 2 * mpmath.gamma(b) / mpmath.gamma(c)
    return lambda r: coeff * mpmath.hyp1f1(b, c, -r * r)


def _misses(r, g, certified_error, exact):
    """(r, distance / certificate) of every sample outside its certificate."""
    out = []
    with mpmath.workdps(40):
        for ri, gi, ei in zip(r.tolist(), g.tolist(), certified_error.tolist()):
            ratio = abs(mpmath.mpf(gi) - exact(mpmath.mpf(ri))) / ei
            if ratio > 1:
                out.append((ri, float(ratio)))
    return out


def _known_miss(where):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"certificates miss the exact value: {where}")


@pytest.mark.parametrize("n, q", [
    (1, 0.5), (1, 1.0), (1, 2.0),
    pytest.param(1, 3.0, marks=_known_miss("6 of 28 radii, r = 2371-1e4, by up to 3.8x")),
    # <x>^(-3) in 2D is the blow-up test weight itself
    (2, 1.0), (2, 2.0), (2, 3.0),
    pytest.param(2, 4.0, marks=_known_miss("3 of 28 radii, r = 5623-1e4, by up to 4.8x")),
])
def test_bracket_weight_within_certificate(n, q):
    r = default_radii()
    assert len(r) == 28
    assert _misses(r, *sample_frac_weight(n, q, r), _bracket_exact(n, q)) == []


@pytest.mark.parametrize("n", [
    pytest.param(1, marks=_known_miss("4 of 21 samples, r = 172-800, by up to 3.16x")),
    pytest.param(2, marks=_known_miss("4 of 21 samples, r = 172-433, by up to 3.14x")),
])
def test_gaussian_within_certificate(n):
    v = verify_gaussian_remark(n)
    assert len(v.r) == 21
    assert _misses(v.r, v.g, v.certified_error, _gaussian_exact(n)) == []


def _two_term_far_field(n, q):
    """The leading two terms K (c1 r^-(q+1) + c2 r^-(n+1)) of the bracket
    weight's half-Laplacian at large r, from the connection formula of 2F1
    at -infinity; c1 vanishes at q = n - 1."""
    a, b, c = (mpmath.mpf(q) + 1) / 2, mpmath.mpf(n + 1) / 2, mpmath.mpf(n) / 2
    k = 2 * mpmath.gamma(a) * mpmath.gamma(b) / (mpmath.gamma(mpmath.mpf(q) / 2)
                                                 * mpmath.gamma(c))
    c1 = mpmath.gamma(c) * mpmath.gamma(b - a) / (mpmath.gamma(b) * mpmath.gamma(c - a))
    c2 = mpmath.gamma(c) * mpmath.gamma(a - b) / (mpmath.gamma(a) * mpmath.gamma(c - b))
    return lambda r: k * (c1 * r ** (-2 * a) + c2 * r ** (-2 * b))


@pytest.mark.parametrize("q, exponent", [
    (0.9, -1.911), (0.99, -2.116), (0.999, -2.498), (1.001, -2.504), (1.01, -1.616),
    (1.1, -2.071),
])
def test_two_term_far_field_explains_near_degenerate_fits(q, exponent):
    # near q = n - 1 the r^-(n+1) term competes with r^-(q+1) inside the fit
    # window, and the two-term form alone reproduces the fitted exponent
    with mpmath.workdps(40):
        far = _two_term_far_field(2, q)
        r = default_radii(FIT_WINDOW)[1:]
        g = np.array([float(far(mpmath.mpf(ri))) for ri in r.tolist()])
    fitted = fit_decay(r, g, "plain")[0]
    assert fitted == pytest.approx(exponent, abs=5e-4)
    assert abs(fitted - verify_lemma(2, q).fitted_exponent) <= EXPONENT_TOL[2]
