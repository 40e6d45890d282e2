"""Every certified sample of the default decay suite against its exact value.

The half-Laplacian of <x>^(-q) in n dimensions is

    2 G((q+1)/2) G((n+1)/2) / (G(q/2) G(n/2)) 2F1((q+1)/2, (n+1)/2; n/2; -|x|^2)

(G the Gamma function; Dyda, Fract. Calc. Appl. Anal. 15 (2012)), and that
of exp(-|x|^2) is 2 G((n+1)/2) / G(n/2) 1F1((n+1)/2; n/2; -|x|^2).  Both are
evaluated with mpmath at 40 digits.  A sample farther from its exact value
than its certified error is a miss.  The weights that miss are marked with
where and by how much: their certificates are too narrow far out, where
the value is many orders below the profile's scale.
"""
import pytest

from fracblow.lemma import default_radii, sample_frac_weight, verify_gaussian_remark

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


def _misses(samples, exact):
    """(r, distance / certificate) of every sample outside its certificate."""
    out = []
    with mpmath.workdps(40):
        for s in samples:
            ratio = abs(mpmath.mpf(s.value) - exact(mpmath.mpf(s.r))) / s.error
            if ratio > 1:
                out.append((s.r, float(ratio)))
    return out


def _known_miss(where):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"certificates miss the exact value: {where}")


@pytest.mark.parametrize("n, q", [
    (1, 0.5), (1, 1.0), (1, 2.0),
    pytest.param(1, 3.0, marks=_known_miss("6 of 28 radii, r = 2371-1e4, by up to 3.8x")),
    (2, 1.0), (2, 2.0),
    # <x>^(-3) in 2D is the blow-up test weight itself
    pytest.param(2, 3.0, marks=_known_miss("4 of 28 radii, r = 3162-7499, by up to 2.65x")),
    pytest.param(2, 4.0, marks=_known_miss("7 of 28 radii, r = 316-7499, by up to 4.9x")),
])
def test_bracket_weight_within_certificate(n, q):
    samples = sample_frac_weight(n, q, default_radii())
    assert len(samples) == 28
    assert _misses(samples, _bracket_exact(n, q)) == []


@pytest.mark.parametrize("n", [
    pytest.param(1, marks=_known_miss("4 of 21 samples, r = 172-800, by up to 3.16x")),
    pytest.param(2, marks=_known_miss("6 of 21 samples, r = 20-433, by up to 29.1x")),
])
def test_gaussian_within_certificate(n):
    samples = verify_gaussian_remark(n).samples
    assert len(samples) == 21
    assert _misses(samples, _gaussian_exact(n)) == []
