"""Periodic sampling lattices and complex-valued sampled fields."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic lattice on [-L, L)^n with N samples per axis.

    The lattice points are x_i = -L + i * dx with dx = 2L/N, and the
    conjugate frequency lattice is xi_m = 2*pi*m/(2L) in DFT ordering.
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
        """Sample coordinates along one axis."""
        return -self.L + self.dx * np.arange(self.N)

    def coords(self) -> tuple[np.ndarray, ...]:
        """Meshgrid coordinate arrays, one per axis, each of lattice shape."""
        ax = self.axis()
        if self.n == 1:
            return (ax,)
        return tuple(np.meshgrid(ax, ax, indexing="ij"))

    def radii(self) -> np.ndarray:
        """|x| at every lattice site."""
        if self.n == 1:
            return np.abs(self.axis())
        xx, yy = self.coords()
        return np.hypot(xx, yy)

    def freq_axis(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.dx)

    def abs_freq(self) -> np.ndarray:
        """|xi| on the DFT frequency lattice (lattice shape)."""
        xi = self.freq_axis()
        if self.n == 1:
            return np.abs(xi)
        kx, ky = np.meshgrid(xi, xi, indexing="ij")
        return np.hypot(kx, ky)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n


class Field:
    """Complex scalar samples on a GridSpec lattice."""

    def __init__(self, grid: GridSpec, values: np.ndarray):
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != grid.shape:
            raise ValueError(f"field shape {values.shape} != grid shape {grid.shape}")
        self.grid = grid
        self.values = values

    def __repr__(self) -> str:
        return f"Field(grid={self.grid!r})"

    @classmethod
    def from_function(cls, grid: GridSpec, fn) -> "Field":
        """Sample fn(*coords) on the lattice."""
        return cls(grid, np.asarray(fn(*grid.coords()), dtype=np.complex128))

    @classmethod
    def from_radial(cls, grid: GridSpec, radial_fn) -> "Field":
        """Sample a function of |x| on the lattice."""
        return cls(grid, np.asarray(radial_fn(grid.radii()), dtype=np.complex128))

    @classmethod
    def zeros(cls, grid: GridSpec) -> "Field":
        return cls(grid, np.zeros(grid.shape, dtype=np.complex128))

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def l2_norm(self) -> float:
        """Lattice L2 norm, sqrt(sum |v|^2 dx^n)."""
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.cell_volume))

    def boundary_max(self) -> float:
        """Largest |value| on the outermost lattice ring."""
        v = np.abs(self.values)
        if self.grid.n == 1:
            return float(max(v[0], v[-1]))
        return float(max(v[0, :].max(), v[-1, :].max(), v[:, 0].max(), v[:, -1].max()))
