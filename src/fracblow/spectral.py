"""Fourier-multiplier route to the half-Laplacian on periodic grids."""
from __future__ import annotations

import numpy as np

from .grid import Field

__all__ = ["frac_laplacian_spectral", "cordoba_violation"]


def apply_multiplier(f: Field, symbol: np.ndarray) -> Field:
    """inverse-DFT(symbol * DFT(f)); symbol must have the lattice shape."""
    return Field(f.grid, np.fft.ifftn(symbol * np.fft.fftn(f.values)))


def frac_laplacian_spectral(f: Field) -> Field:
    """Half-Laplacian as the |xi| multiplier on the grid's DFT lattice.

    Exact (to roundoff) on band-limited fields; for sampled decaying
    profiles the result is the periodization of the whole-line operator,
    so tests must budget for image terms of size O(1/(2L - |x|)^2).
    """
    return apply_multiplier(f, f.grid.abs_freq())


def cordoba_violation(phi: Field) -> float:
    """Worst-case pointwise excess of Op(phi^2) over 2*phi*Op(phi).

    The pointwise product inequality predicts a nonpositive result up to
    discretization error.  ``phi`` must be real-valued and decay below
    1e-8 of its sup at the boundary ring, else the periodic evaluation is
    meaningless and a ValueError is raised.
    """
    if np.max(np.abs(phi.values.imag)) > 1e-12 * max(phi.sup_norm(), 1e-300):
        raise ValueError("field must be real-valued")
    sup = phi.sup_norm()
    if sup > 0 and phi.boundary_max() > 1e-8 * sup:
        raise ValueError("field does not decay to 1e-8 of its sup at the boundary")
    v = phi.values.real
    sq = Field(phi.grid, v * v)
    lhs = frac_laplacian_spectral(sq).values.real
    rhs = 2.0 * v * frac_laplacian_spectral(Field(phi.grid, v + 0j)).values.real
    return float(np.max(lhs - rhs))
