"""Fourier-multiplier route to the half-Laplacian on periodic grids."""
from __future__ import annotations

import numpy as np

from .grid import GridSpec

__all__ = ["frac_laplacian_spectral"]


def frac_laplacian_spectral(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Half-Laplacian of samples on the lattice, as the |xi| multiplier on its DFT lattice.

    Exact (to roundoff) on band-limited fields; for sampled decaying
    profiles the result is the periodization of the whole-line operator,
    so tests must budget for image terms of size O(1/(2L - |x|)^2).
    """
    return np.fft.ifftn(grid.abs_freq() * np.fft.fftn(values))
