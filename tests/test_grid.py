import numpy as np
import pytest

from fracblow.evolution import ProblemParams, evolve
from fracblow.grid import GridSpec
from verification import boundary_max, even_part, l2_norm, sample


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(3, 10.0, 64)
    with pytest.raises(ValueError):
        GridSpec(1, -1.0, 64)
    with pytest.raises(ValueError):
        GridSpec(1, 10.0, 63)  # odd
    with pytest.raises(ValueError):
        GridSpec(1, 10.0, 4)   # below 8


def test_lattice_geometry():
    g = GridSpec(1, 10.0, 100)
    x = g.axis()
    assert x[0] == -10.0 and np.isclose(x[1] - x[0], g.dx) and g.dx == 0.2
    assert g.radii().min() == 0.0
    # frequency spacing is pi/L
    xi = np.sort(g.freq_axis())
    assert np.isclose(xi[1] - xi[0], np.pi / g.L)


@pytest.mark.parametrize("L, N, dx_exact", [(4.0, 384, False), (3.7, 200, False),
                                            (10.0, 64, True), (4.0, 128, True)])
def test_lattice_symmetric_to_the_bit(L, N, dx_exact):
    # x_(N/2+j) = -x_(N/2-j) exactly, also where dx is not exact in binary,
    # so that radial data is even about index N/2 to the bit
    g, h = GridSpec(2, L, N), N // 2
    x = g.axis()
    assert x[0] == -L and x[h] == 0.0
    assert np.array_equal(x[h + 1:], -x[h - 1:0:-1])
    r = g.radii()
    assert np.array_equal(r[1:h], r[:h:-1]) and np.array_equal(r[:, 1:h], r[:, :h:-1])
    assert np.array_equal(r, r.T)
    if dx_exact:  # then the sites are those of -L + i * dx, bit for bit
        assert np.array_equal(x, -L + g.dx * np.arange(N))


def test_field_shape_and_norms():
    # evolve takes the lattice or its even part, told apart by shape, and nothing else
    g = GridSpec(2, 5.0, 16)
    params = ProblemParams(2, 2.0, 1j)
    for shape in ((16,), (16, 9), (8, 8)):
        with pytest.raises(ValueError, match="neither the lattice's"):
            evolve(np.ones(shape, complex), g, params, 0.01, 0.01, 1.0)
    f = sample(g, lambda x, y: np.exp(-(x**2 + y**2)))
    assert f.shape == (16, 16) and even_part(g, np.exp).shape == (9, 9)
    # lattice l2 approximates the continuum integral sqrt(pi/2)
    assert np.isclose(l2_norm(g, f), np.sqrt(np.pi / 2), rtol=1e-4)


def test_boundary_max():
    g = GridSpec(1, 8.0, 64)
    f = sample(g, lambda x: np.exp(-x * x))
    assert boundary_max(f) == pytest.approx(np.exp(-64.0), rel=1e-10)
