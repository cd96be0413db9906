"""Periodized 2D grid and the unitary discrete Fourier transform pair.

The plane is replaced by the torus [-L/2, L/2)^2 so that every Fourier
multiplier in this package is exact on the truncated momentum lattice.
Spatial samples sit at j*spacing - L/2, which puts the origin on a grid
node; radial potentials therefore attain their maximum on-grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Square periodic grid: n_points samples per axis on [-L/2, L/2)^2.

    Parameters
    ----------
    n_points : int
        Samples per axis, even and >= 8.
    box_side : float
        Physical side length L of the periodic box.
    """

    n_points: int
    box_side: float

    def __post_init__(self):
        if self.n_points % 2 != 0 or self.n_points < 8:
            raise ValueError(f"n_points must be even and >= 8, got {self.n_points}")
        if not self.box_side > 0:
            raise ValueError(f"box_side must be positive, got {self.box_side}")

    @property
    def spacing(self) -> float:
        return self.box_side / self.n_points

    @property
    def dimension(self) -> int:
        """Total complex dimension of the spinor space, 2 * n_points**2."""
        return 2 * self.n_points * self.n_points

    def momentum(self, k: int) -> float:
        """Momentum-lattice value 2*pi*k/L for integer k in [-n/2, n/2)."""
        half = self.n_points // 2
        if not -half <= k < half:
            raise ValueError(f"mode index {k} outside [-{half}, {half})")
        return 2.0 * np.pi * k / self.box_side

    @property
    def positions(self) -> np.ndarray:
        """Axis samples j*spacing - L/2 (origin is the node j = n/2)."""
        return np.arange(self.n_points) * self.spacing - 0.5 * self.box_side

    @property
    def momenta(self) -> np.ndarray:
        """Momentum lattice per axis in FFT order (0, +, ..., -n/2, ..., -)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.spacing)

    def position_mesh(self) -> tuple[np.ndarray, np.ndarray]:
        x = self.positions
        return np.meshgrid(x, x, indexing="ij")

    def momentum_mesh(self) -> tuple[np.ndarray, np.ndarray]:
        xi = self.momenta
        return np.meshgrid(xi, xi, indexing="ij")

    def radius_mesh(self) -> np.ndarray:
        x1, x2 = self.position_mesh()
        return np.hypot(x1, x2)


def build_grid(n_points: int, box_side: float) -> GridSpec:
    """Construct the periodized grid; rejects odd/small n_points and L <= 0."""
    return GridSpec(n_points=int(n_points), box_side=float(box_side))


def forward_array(values: np.ndarray) -> np.ndarray:
    """Batched unitary DFT on raw arrays of shape (..., n, n, 2)."""
    return np.fft.fft2(values, axes=(-3, -2), norm="ortho")


def inverse_array(values: np.ndarray) -> np.ndarray:
    """Adjoint (= inverse) of forward_array."""
    return np.fft.ifft2(values, axes=(-3, -2), norm="ortho")

