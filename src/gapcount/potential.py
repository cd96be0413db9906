"""Nonnegative potential families and their pointwise evaluation.

Three families are provided: an isotropic Gaussian, a disk bump with an
optional cosine smoothing ramp, and a power-decay family with a
trigonometric angular profile,

    V(x) = Psi(theta) * (1 + |x|^2)^(-p/2),
    Psi(theta) = c0 + sum_k (a_k cos k*theta + b_k sin k*theta).

The (1+|x|^2) regularization keeps V bounded at the origin while matching
the prescribed Psi(theta) |x|^{-p} behavior along rays exactly to
O(|x|^{-p-2}).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PSI_SAMPLES = 4096  # angular nonnegativity check at construction


@dataclass(frozen=True)
class Gaussian:
    amplitude: float
    width: float
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("amplitude must be nonnegative")
        if not self.width > 0:
            raise ValueError("width must be positive")
        if not 0 < self.width * self.width < np.inf:
            raise ValueError(f"width {self.width!r} squared is not a finite positive "
                             f"number, so the potential is not finite")


@dataclass(frozen=True)
class DiskBump:
    amplitude: float
    radius: float
    margin: float = 0.0

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("amplitude must be nonnegative")
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if self.margin < 0:
            raise ValueError("margin must be nonnegative")


@dataclass(frozen=True)
class PowerDecay:
    exponent: float
    constant_term: float
    cos_coeffs: tuple[float, ...] = ()
    sin_coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        if not 0.0 < self.exponent < 2.0:
            raise ValueError(f"decay exponent must lie in (0, 2), got {self.exponent}")
        theta = np.linspace(0.0, 2.0 * np.pi, _PSI_SAMPLES, endpoint=False)
        if np.min(self._psi(theta)) < 0:
            raise ValueError("angular profile takes negative values")

    def _psi(self, theta: np.ndarray) -> np.ndarray:
        out = np.full_like(np.asarray(theta, dtype=float), self.constant_term)
        for k, a in enumerate(self.cos_coeffs, start=1):
            out = out + a * np.cos(k * theta)
        for k, b in enumerate(self.sin_coeffs, start=1):
            out = out + b * np.sin(k * theta)
        return out


PotentialSpec = Gaussian | DiskBump | PowerDecay


def eval_potential(spec: PotentialSpec, x) -> np.ndarray:
    """V(x) >= 0; x is a pair or an array of shape (..., 2)."""
    pts = np.asarray(x, dtype=float)
    if pts.shape[-1] != 2:
        raise ValueError(f"position must have a trailing axis of size 2, got {pts.shape}")
    x1, x2 = pts[..., 0], pts[..., 1]
    if isinstance(spec, Gaussian):
        d2 = (x1 - spec.center[0]) ** 2 + (x2 - spec.center[1]) ** 2
        return spec.amplitude * np.exp(-d2 / spec.width ** 2)
    if isinstance(spec, DiskBump):
        r = np.hypot(x1, x2)
        out = np.where(r <= spec.radius, spec.amplitude, 0.0)
        if spec.margin > 0:
            ramp = 0.5 * spec.amplitude * (
                1.0 + np.cos(np.pi * (r - spec.radius) / spec.margin)
            )
            out = np.where(
                (r > spec.radius) & (r < spec.radius + spec.margin), ramp, out
            )
        return out
    if isinstance(spec, PowerDecay):
        r2 = x1 ** 2 + x2 ** 2
        theta = np.arctan2(x2, x1)
        return spec._psi(theta) * (1.0 + r2) ** (-0.5 * spec.exponent)
    raise TypeError(f"unknown potential spec {type(spec).__name__}")


def sqrt_potential(spec: PotentialSpec, x) -> np.ndarray:
    """W(x) = sqrt(V(x))."""
    return np.sqrt(eval_potential(spec, x))


def psi_profile(spec: PowerDecay, theta) -> np.ndarray:
    """Angular profile Psi(theta) of a PowerDecay spec; 2*pi periodic."""
    if not isinstance(spec, PowerDecay):
        raise TypeError("psi_profile requires a PowerDecay spec")
    return spec._psi(np.asarray(theta, dtype=float))

