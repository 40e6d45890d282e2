"""Fourier-multiplier route to the half-Laplacian on periodic grids."""
from __future__ import annotations

import numpy as np

from .grid import Field

__all__ = ["frac_laplacian_spectral"]


def frac_laplacian_spectral(f: Field) -> Field:
    """Half-Laplacian as the |xi| multiplier on the grid's DFT lattice.

    Exact (to roundoff) on band-limited fields; for sampled decaying
    profiles the result is the periodization of the whole-line operator,
    so tests must budget for image terms of size O(1/(2L - |x|)^2).
    """
    return Field(f.grid, np.fft.ifftn(f.grid.abs_freq() * np.fft.fftn(f.values)))
