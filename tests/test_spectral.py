"""Fourier-multiplier evaluator and the pointwise product inequality."""
import numpy as np
import pytest

from fracblow.grid import GridSpec
from fracblow.spectral import frac_laplacian_spectral
from verification import cordoba_violation, sample, sup_norm, zeros


def test_constant_field_maps_to_zero():
    g = GridSpec(1, 10.0, 64)
    out = frac_laplacian_spectral(g, np.full(g.shape, 2.3 + 0.1j))
    assert np.max(np.abs(out)) < 1e-13


@pytest.mark.parametrize("n", [1, 2])
def test_single_mode_eigenfunction(n):
    g = GridSpec(n, 10.0, 64)
    k = 2.0 * np.pi * 3 / (2 * g.L)
    if n == 1:
        f = sample(g, lambda x: np.exp(1j * k * x))
        expected = abs(k)
    else:
        f = sample(g, lambda x, y: np.exp(1j * (k * x + 2 * k * y)))
        expected = np.hypot(k, 2 * k)
    out = frac_laplacian_spectral(g, f)
    assert np.max(np.abs(out - expected * f)) < 1e-12


def test_lorentzian_against_closed_form():
    # wide grid keeps the periodic images (floor pi^2/12L^2) inside budget
    g = GridSpec(1, 160.0, 8192)
    x = g.axis()
    out = frac_laplacian_spectral(g, 1.0 / (1.0 + x * x) + 0j).real
    want = (1.0 - x * x) / (1.0 + x * x) ** 2
    interior = np.abs(x) <= 10.0
    assert np.max(np.abs(out[interior] - want[interior])) < 1e-4


def test_quadratic_form_nonnegative():
    rng = np.random.default_rng(11)
    g = GridSpec(1, 10.0, 256)
    for _ in range(20):
        v = rng.standard_normal(g.shape)
        f = v + 0j
        form = np.real(np.vdot(f, frac_laplacian_spectral(g, f)))
        assert form >= -1e-10 * np.vdot(v, v).real


def test_linearity():
    rng = np.random.default_rng(3)
    g = GridSpec(1, 10.0, 128)
    f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    h = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    combo = 0.3 * f - 1.7j * h
    lhs = frac_laplacian_spectral(g, combo)
    rhs = 0.3 * frac_laplacian_spectral(g, f) - 1.7j * frac_laplacian_spectral(g, h)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestProductInequality:
    def test_zero_field(self):
        g = GridSpec(1, 20.0, 256)
        assert cordoba_violation(g, zeros(g)) == 0.0

    def test_gaussian(self):
        g = GridSpec(1, 20.0, 2048)
        phi = sample(g, lambda x: np.exp(-x * x) + 0j)
        assert cordoba_violation(g, phi) <= 1e-6 * sup_norm(phi) ** 2

    def test_random_gaussian_mixtures(self):
        rng = np.random.default_rng(5)
        g = GridSpec(1, 20.0, 2048)
        x = g.axis()
        for _ in range(5):
            c = rng.uniform(-5, 5, 5)
            s = rng.uniform(0.5, 2.0, 5)
            a = rng.uniform(0.2, 1.5, 5)
            v = sum(ai * np.exp(-(((x - ci) / si) ** 2) / 2) for ai, ci, si in zip(a, c, s))
            phi = v + 0j
            assert cordoba_violation(g, phi) <= 1e-6 * sup_norm(phi) ** 2

    def test_rejects_complex_field(self):
        g = GridSpec(1, 20.0, 256)
        with pytest.raises(ValueError):
            cordoba_violation(g, sample(g, lambda x: np.exp(-x * x) * 1j))

    def test_rejects_undecayed_boundary(self):
        g = GridSpec(1, 2.0, 256)
        with pytest.raises(ValueError):
            cordoba_violation(g, sample(g, lambda x: np.exp(-x * x) + 0j))
