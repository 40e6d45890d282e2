import numpy as np
import pytest

from fracblow.grid import Field, GridSpec


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


def test_field_shape_and_norms():
    g = GridSpec(2, 5.0, 16)
    with pytest.raises(ValueError):
        Field(g, np.zeros((16,)))
    f = Field.from_function(g, lambda x, y: np.exp(-(x**2 + y**2)))
    assert f.values.shape == (16, 16)
    # lattice l2 approximates the continuum integral sqrt(pi/2)
    assert np.isclose(f.l2_norm(), np.sqrt(np.pi / 2), rtol=1e-4)


def test_boundary_max():
    g = GridSpec(1, 8.0, 64)
    f = Field.from_function(g, lambda x: np.exp(-x * x))
    assert f.boundary_max() == pytest.approx(np.exp(-64.0), rel=1e-10)
