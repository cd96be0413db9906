"""Limiting-law oracles: Weyl coefficient, the angular-profile integral,
phase-space volumes, and the box-law coefficient.

These are pure quadratures and closed forms with no spectral computation;
the studies divide measured eigenvalue counts by these predictions.  The
Weyl coefficient is a closed form for both integrable families, checked
against the fixed-order phase-space volume.  QUADPACK (scipy.integrate,
which pulls in scipy.optimize, scipy.sparse, scipy.spatial and
scipy.constants) loads only for the theorem-2 integral J, on its first
radial quadrature rather than when this module is imported, so the weyl,
box, crossterm and flow-trace studies never load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .potential import DiskBump, Gaussian, PotentialSpec, PowerDecay, eval_potential, psi_profile
from .symbol import ModelParams

_ERROR_BUDGET = 1e-6  # admissible quadrature error relative to max(value, 1)
# relative rounding bound of a closed form: a dozen roundings, and its one
# subtraction, 2M^2/pi^2 from M^2/2, loses at most a factor 2.4
_CLOSED_FORM_ROUNDING = 32 * float(np.finfo(float).eps)
_THETA_PANELS = 512


class NonIntegrableError(ValueError):
    """The requested coefficient needs an integrable potential family."""


@dataclass(frozen=True)
class AsymptoticPrediction:
    value: float
    error: float

    def __post_init__(self):
        if self.value < 0 or self.error < 0:
            raise ValueError("prediction value and error must be nonnegative")
        if self.error > _ERROR_BUDGET * max(self.value, 1.0):
            raise ValueError(
                f"quadrature error {self.error:.3e} exceeds the "
                f"{_ERROR_BUDGET:.0e} relative budget for value {self.value:.6e}"
            )


def _radial_profile(spec: PotentialSpec):
    """Radial evaluator about the family's own center, plus support data."""
    if isinstance(spec, Gaussian):
        fn = lambda r: spec.amplitude * np.exp(-np.asarray(r) ** 2 / spec.width ** 2)
        # exp(-R^2/sigma^2) tail of int V: pi sigma^2 V0 exp(-R^2/sigma^2)
        rmax = 9.0 * spec.width
        tail = np.pi * spec.width ** 2 * spec.amplitude * np.exp(-(rmax / spec.width) ** 2)
        return fn, rmax, [spec.width], tail
    if isinstance(spec, DiskBump):
        def fn(r):
            return eval_potential(spec, np.stack([np.asarray(r, dtype=float),
                                                  np.zeros_like(np.asarray(r, dtype=float))],
                                                 axis=-1))
        rmax = spec.radius + spec.margin
        return fn, rmax, [spec.radius], 0.0
    raise NonIntegrableError(
        f"{type(spec).__name__} is not integrable on the plane"
    )


def weyl_coefficient(spec: PotentialSpec) -> AsymptoticPrediction:
    """(1/4pi) * integral of V, in closed form.

    A Gaussian integrates to pi A w^2, so the coefficient is A w^2 / 4.  A
    disk bump adds to the plateau pi A R^2 the cosine ramp over [R, R + M],
    pi A (R M + M^2/2 - 2 M^2/pi^2), so the coefficient is
    A (R^2 + R M + M^2/2 - 2 M^2/pi^2) / 4.  The error is a bound on the
    roundings.  Rejects the power-decay family: with decay exponent below 2
    the integral diverges.
    """
    if isinstance(spec, Gaussian):
        value = spec.amplitude * spec.width ** 2 / 4.0
    elif isinstance(spec, DiskBump):
        r, m = spec.radius, spec.margin
        value = spec.amplitude * (r * r + r * m + m * m / 2 - 2 * m * m / np.pi ** 2) / 4.0
    else:
        raise NonIntegrableError(f"{type(spec).__name__} is not integrable on the plane")
    return AsymptoticPrediction(value, _CLOSED_FORM_ROUNDING * value)


def _composite_gl_radial(fn, rmax: float, panels: int, order: int,
                         breakpoints=()) -> float:
    """Composite Gauss-Legendre quadrature of fn(r)*r on [0, rmax]."""
    edges = np.linspace(0.0, rmax, panels + 1)
    edges = np.unique(np.concatenate([edges, [b for b in breakpoints if 0 < b < rmax]]))
    u, w = np.polynomial.legendre.leggauss(order)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        r = 0.5 * (b - a) * u + 0.5 * (a + b)
        total += 0.5 * (b - a) * float(np.dot(w, fn(r) * r))
    return total


def phase_space_volume(spec: PotentialSpec) -> AsymptoticPrediction:
    """(2pi)^-2 volume of {(x, xi): V(x) > |xi|^2}.

    The inner momentum integral is the area pi*V(x) of a disk, so the
    volume reduces to (2pi)^-2 * pi * int V.  The remaining x-integral is
    done with a fixed-order composite rule, a deliberately different path
    from weyl_coefficient's closed form; the two must agree.
    """
    fn, rmax, points, tail = _radial_profile(spec)
    coarse = _composite_gl_radial(fn, rmax, 64, 24, points)
    fine = _composite_gl_radial(fn, rmax, 128, 24, points)
    total = 2.0 * np.pi * fine + tail
    err = 2.0 * np.pi * abs(fine - coarse) + tail
    value = np.pi * total / (2.0 * np.pi) ** 2
    return AsymptoticPrediction(value, np.pi * err / (2.0 * np.pi) ** 2)


# ---------------------------------------------------------------------------
# the angular-profile integral of the second counting law
# ---------------------------------------------------------------------------

def radial_support(params: ModelParams, spec: PowerDecay, theta: float) -> float:
    """Largest radius with a positive integrand along the given ray.

    The integrand is positive exactly where Psi(theta) r^{-p} > m - lambda,
    i.e. r < (Psi(theta) / (m - lambda))^{1/p}.
    """
    psi = float(psi_profile(spec, theta))
    if psi <= 0.0:
        return 0.0
    return (psi / (params.mass - params.gap_point)) ** (1.0 / spec.exponent)


def _radial_integral(params: ModelParams, spec: PowerDecay, theta: float):
    """int_0^{R(theta)} sqrt((lambda + Psi r^-p)^2 - m^2) r dr via adaptive GK."""
    from scipy import integrate

    rmax = radial_support(params, spec, theta)
    if rmax == 0.0:
        return 0.0, 0.0
    m, lam = params.mass, params.gap_point
    psi = float(psi_profile(spec, theta))
    p = spec.exponent

    def f(r):
        g = lam + psi * r ** (-p)
        return np.sqrt(max(g * g - m * m, 0.0)) * r

    val, err = integrate.quad(f, 0.0, rmax, limit=400, epsabs=1e-13, epsrel=1e-12)
    return val, err


def j_integral(params: ModelParams, spec: PowerDecay) -> AsymptoticPrediction:
    """(1/4pi) * polar integral of sqrt(((lambda + Psi(theta) r^-p)+^2 - m^2)+).

    Trapezoid over theta panels (spectrally accurate for the trigonometric
    profile), adaptive Gauss-Kronrod in r on [0, R(theta)] so the
    positive-part kink sits on the panel boundary.  A ray depends on theta
    only through Psi(theta), so each distinct value of Psi is integrated
    once: a constant profile needs one radial quadrature, not 512.
    """
    if not isinstance(spec, PowerDecay):
        raise TypeError("j_integral requires a PowerDecay spec")
    thetas = np.linspace(0.0, 2.0 * np.pi, _THETA_PANELS, endpoint=False)
    vals = np.empty(_THETA_PANELS)
    errs = np.empty(_THETA_PANELS)
    rays = {}  # Psi(theta) -> (value, error) of its radial integral
    for k, th in enumerate(thetas):
        psi = float(psi_profile(spec, th))
        if psi not in rays:
            rays[psi] = _radial_integral(params, spec, th)
        vals[k], errs[k] = rays[psi]
    dtheta = 2.0 * np.pi / _THETA_PANELS
    full = float(vals.sum()) * dtheta
    half = float(vals[::2].sum()) * 2.0 * dtheta  # nested coarse trapezoid
    radial_err = float(errs.sum()) * dtheta
    value = full / (4.0 * np.pi)
    error = (abs(full - half) + radial_err) / (4.0 * np.pi)
    return AsymptoticPrediction(value, error)


# ---------------------------------------------------------------------------
# box-law coefficient
# ---------------------------------------------------------------------------

def box_coefficient(tau: float, params: ModelParams, area: float) -> float:
    """(4pi)^-1 * (((1/tau + lambda)+)^2 - m^2)+^{1/2} * area, per unit beta^2."""
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if not area > 0:
        raise ValueError(f"area must be positive, got {area}")
    shifted = max(1.0 / tau + params.gap_point, 0.0)
    root = np.sqrt(max(shifted ** 2 - params.mass ** 2, 0.0))
    return float(root * area / (4.0 * np.pi))

