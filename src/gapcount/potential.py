"""Nonnegative potential families and their unit-cube lattice bracket norms.

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
from scipy import integrate

GAUSS_LEGENDRE_ORDER = 16  # per-axis nodes for unit-cube integrals
_PSI_SAMPLES = 4096  # angular nonnegativity check at construction
_TAIL_RELATIVE = 1e-6  # tail above this fraction flags the result truncated


class BracketDivergenceError(ValueError):
    """The lattice bracket sum diverges for the requested family/exponent."""


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

    @property
    def psi_max(self) -> float:
        return self.constant_term + sum(map(abs, self.cos_coeffs)) + sum(
            map(abs, self.sin_coeffs)
        )


PotentialSpec = Gaussian | DiskBump | PowerDecay


@dataclass(frozen=True)
class BracketNorm:
    """Value of the unit-cube lattice norm with its truncation bookkeeping."""

    p: float
    q: float
    value: float
    tail_bound: float = 0.0
    truncated: bool = False


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


def support_center(spec: PotentialSpec) -> tuple[float, float]:
    if isinstance(spec, Gaussian):
        return spec.center
    return (0.0, 0.0)


# ---------------------------------------------------------------------------
# lattice bracket norms over the cubes [0,1)^2 + n
# ---------------------------------------------------------------------------

def _cube_quadrature():
    u, w = np.polynomial.legendre.leggauss(GAUSS_LEGENDRE_ORDER)
    u = 0.5 * (u + 1.0)  # nodes on [0,1]
    w = 0.5 * w
    uu1, uu2 = np.meshgrid(u, u, indexing="ij")
    ww = np.outer(w, w)
    return np.stack([uu1.ravel(), uu2.ravel()], axis=-1), ww.ravel()


def _cube_corners(center: tuple[float, float], radius: float) -> np.ndarray:
    lo1 = int(np.floor(center[0] - radius)) - 1
    hi1 = int(np.ceil(center[0] + radius)) + 1
    lo2 = int(np.floor(center[1] - radius)) - 1
    hi2 = int(np.ceil(center[1] + radius)) + 1
    n1, n2 = np.meshgrid(np.arange(lo1, hi1 + 1), np.arange(lo2, hi2 + 1), indexing="ij")
    corners = np.stack([n1.ravel(), n2.ravel()], axis=-1).astype(float)
    # distance from the cube (as a set) to the center point
    c = np.asarray(center)
    nearest = np.clip(c, corners, corners + 1.0)
    dist = np.hypot(*(nearest - c).T)
    return corners[dist <= radius]


def bracket_norm_of_callable(
    fn,
    p: float,
    q: float,
    cubes: np.ndarray,
) -> float:
    """Lattice bracket of a pointwise-evaluable V over the given unit cubes.

    fn maps an array of shape (..., 2) to values; cubes is an (M, 2) array
    of lower-left corners.  Case p < 1 sums ||V||_{L1}^p per cube, p = 1
    sums (int V^q)^{1/q}, p > 1 returns (int V^p)^{1/p} over the union.
    """
    if not p > 0:
        raise ValueError(f"bracket exponent must be positive, got {p}")
    if p == 1.0 and not q > 1:
        raise ValueError(f"the p=1 bracket requires q > 1, got q={q}")
    if len(cubes) == 0:
        return 0.0
    nodes, weights = _cube_quadrature()
    pts = cubes[:, None, :] + nodes[None, :, :]
    vals = fn(pts)  # (M, nodes)
    if p < 1.0:
        cube_l1 = vals @ weights
        return float(np.sum(cube_l1 ** p))
    if p == 1.0:
        cube_lq = (vals ** q) @ weights
        return float(np.sum(cube_lq ** (1.0 / q)))
    total = float(np.sum((vals ** p) @ weights))
    return total ** (1.0 / p)


def _tail_radial_sum(g, radius: float, upper: float) -> float:
    """Upper bound for a sum of g(dist(Q_n)) over dropped cubes.

    Integral comparison: every dropped cube lies in {|x-c| >= radius} and
    has diameter sqrt(2), so the sum is at most
    2*pi*int_radius^upper g(max(r - sqrt(2), 0)) r dr.
    """
    if upper <= radius:
        return 0.0
    val, _ = integrate.quad(
        lambda r: g(max(r - np.sqrt(2.0), 0.0)) * r, radius, upper, limit=200
    )
    return 2.0 * np.pi * float(val)


def _bracket_tail(spec: PotentialSpec, p: float, radius: float) -> float:
    """Bound for the neglected cube terms beyond the truncation radius.

    For p > 1 the bound is on the dropped part of int V^p (before the final
    1/p root); otherwise it bounds the dropped sum itself.
    """
    if isinstance(spec, DiskBump):
        support = spec.radius + spec.margin
        if radius >= support:
            return 0.0
        if p > 1.0:
            return float(np.pi * (support ** 2 - radius ** 2) * spec.amplitude ** p)
        g = lambda r: spec.amplitude ** p if r <= support else 0.0
        if p == 1.0:
            g = lambda r: spec.amplitude if r <= support else 0.0
        return _tail_radial_sum(g, radius, support + np.sqrt(2.0) + 1.0)
    if isinstance(spec, Gaussian):
        v0, sig = spec.amplitude, spec.width
        if v0 == 0.0:
            return 0.0
        if p > 1.0:
            # direct integral of V^p over {|x - c| >= radius}
            return float(np.pi * sig ** 2 / p * v0 ** p * np.exp(-p * radius ** 2 / sig ** 2))
        if p == 1.0:
            g = lambda r: v0 * np.exp(-r ** 2 / sig ** 2)
        else:
            g = lambda r: (v0 * np.exp(-r ** 2 / sig ** 2)) ** p
        return _tail_radial_sum(g, radius, radius + 40.0 * sig)
    if isinstance(spec, PowerDecay):
        pv = spec.exponent
        if p * pv <= 2.0:
            raise BracketDivergenceError(
                f"bracket with p={p} diverges for decay exponent {pv} "
                f"(requires p > {2.0 / pv:.3f})"
            )
        a = spec.psi_max ** p
        return float(2.0 * np.pi * a * radius ** (2.0 - p * pv) / (p * pv - 2.0))
    raise TypeError(f"unknown potential spec {type(spec).__name__}")


def bracket_norm(
    spec: PotentialSpec,
    p: float,
    q: float = 2.0,
    truncation_radius: float = 40.0,
) -> BracketNorm:
    """Lattice bracket norm of the potential over the unit-cube partition.

    Raises BracketDivergenceError when the infinite lattice sum provably
    diverges (every PowerDecay family with p <= 2/decay_exponent, which
    includes all p <= 1 since the decay exponent is below 2).  Otherwise
    returns the truncated sum together with an analytic bound on the
    dropped tail; the result is flagged truncated when the tail exceeds
    1e-6 relative.
    """
    if not p > 0:
        raise ValueError(f"bracket exponent must be positive, got {p}")
    if p == 1.0 and not q > 1:
        raise ValueError(f"the p=1 bracket requires q > 1, got q={q}")
    if not truncation_radius > 0:
        raise ValueError("truncation radius must be positive")
    if isinstance(spec, PowerDecay) and spec.psi_max == 0.0:
        return BracketNorm(p=p, q=q, value=0.0)
    tail = _bracket_tail(spec, p, truncation_radius)
    cubes = _cube_corners(support_center(spec), truncation_radius)
    core = bracket_norm_of_callable(lambda x: eval_potential(spec, x), p, q, cubes)
    if p > 1.0:
        # core is already the 1/p root; translate the tail bound to the value
        tail_effect = (core ** p + tail) ** (1.0 / p) - core
    else:
        tail_effect = tail
    value = core
    truncated = tail_effect > _TAIL_RELATIVE * max(value, 1e-300)
    return BracketNorm(p=p, q=q, value=value, tail_bound=tail_effect, truncated=truncated)
