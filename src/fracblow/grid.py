"""Periodic sampling lattices."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _norm(v: np.ndarray, n: int) -> np.ndarray:
    """|(v_i, v_j, ...)| over n axes that each take the values v."""
    v = np.abs(v)
    return v if n == 1 else np.hypot.outer(v, v)


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic lattice on [-L, L)^n with N samples per axis.

    The lattice points are x_i = (i - N/2) * dx with dx = 2L/N, and x_0 = -L
    (its own mirror), so x_(N/2+j) = -x_(N/2-j) to the bit.  The conjugate
    frequency lattice is xi_m = 2*pi*m/(2L) in DFT ordering.
    """

    n: int
    L: float
    N: int

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.n}")
        if not 0.0 < self.L < np.inf:
            raise ValueError(f"half-width L must be finite and positive, got {self.L}")
        if self.N < 8 or self.N % 2 != 0:
            raise ValueError(f"N must be even and >= 8, got {self.N}")

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def cell_volume(self) -> float:
        return self.dx**self.n

    def axis(self) -> np.ndarray:
        """Sample coordinates along one axis, odd about index N/2."""
        ax = self.dx * (np.arange(self.N) - self.N // 2)
        ax[0] = -self.L
        return ax

    def radii(self) -> np.ndarray:
        """|x| at every lattice site."""
        return _norm(self.axis(), self.n)

    def freq_axis(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.dx)

    def abs_freq(self) -> np.ndarray:
        """|xi| on the DFT frequency lattice (lattice shape)."""
        return _norm(self.freq_axis(), self.n)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n
