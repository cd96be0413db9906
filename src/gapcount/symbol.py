"""Pointwise 2x2 momentum-space algebra of the free operator.

The free operator acts in momentum space as the Hermitian matrix

    S(xi) = [[ m,              -(xi1 - i*xi2)^2 ],
             [ -(xi1 + i*xi2)^2,             -m ]]

with eigenvalues +-sqrt(m^2 + |xi|^4).  The off-diagonal sign follows from
d/dx_j -> i*xi_j; the opposite sign convention is unitarily conjugate by
diag(1, -1) and changes no eigenvalue count or norm, which the test suite
asserts explicitly.  The resolvent is obtained by direct 2x2 inversion
rather than copied from any tabulated form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ModelParams:
    """Mass m > 0 and a gap point lambda with |lambda| < m."""

    mass: float
    gap_point: float

    def __post_init__(self):
        if not self.mass > 0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if not abs(self.gap_point) < self.mass:
            raise ValueError(
                f"gap point must satisfy |lambda| < m, got lambda={self.gap_point}, m={self.mass}"
            )

    @property
    def gap_distance(self) -> float:
        """Distance from the gap point to the essential spectrum, m - |lambda|."""
        return self.mass - abs(self.gap_point)


def _split(xi) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(xi, dtype=float)
    if arr.shape[-1] != 2:
        raise ValueError(f"momentum must have a trailing axis of size 2, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("momentum contains non-finite entries")
    return arr[..., 0], arr[..., 1]


def dirac_symbol(xi, params: ModelParams) -> np.ndarray:
    """Hermitian symbol at momentum xi; broadcasts over leading axes.

    xi may be a pair or an array of shape (..., 2); the result has shape
    (..., 2, 2).  Its four entries are stored as contiguous planes (the
    result is a view of an array of shape (2, 2, ...)), the layout a grid
    multiplier takes (operators.LinearOperatorHandle).
    """
    x1, x2 = _split(xi)
    off = -((x1 - 1j * x2) ** 2)
    out = np.zeros((2, 2) + x1.shape, dtype=complex)
    out[0, 0] = params.mass
    out[1, 1] = -params.mass
    out[0, 1] = off
    out[1, 0] = np.conj(off)
    return np.moveaxis(out, (0, 1), (-2, -1))


def resolvent_symbol(xi, params: ModelParams) -> np.ndarray:
    """(S(xi) - lambda I)^{-1} in closed form; shape (..., 2, 2), stored as
    planes like dirac_symbol.

    The 2x2 determinant is lambda^2 - m^2 - |xi|^4, strictly negative for
    |lambda| < m, so the inverse never degenerates.
    """
    m, lam = params.mass, params.gap_point
    x1, x2 = _split(xi)
    det = lam ** 2 - m ** 2 - (x1 ** 2 + x2 ** 2) ** 2
    off = (x1 - 1j * x2) ** 2
    out = np.zeros((2, 2) + x1.shape, dtype=complex)
    out[0, 0] = (-m - lam) / det
    out[1, 1] = (m - lam) / det
    out[0, 1] = off / det
    out[1, 0] = np.conj(off) / det
    return np.moveaxis(out, (0, 1), (-2, -1))


def symbol_eigenvalues(xi, params: ModelParams) -> np.ndarray:
    """Ordered pair (-e, +e) with e = sqrt(m^2 + |xi|^4); shape (..., 2)."""
    x1, x2 = _split(xi)
    e = np.sqrt(params.mass ** 2 + (x1 ** 2 + x2 ** 2) ** 2)
    return np.stack([-e, e], axis=-1)

