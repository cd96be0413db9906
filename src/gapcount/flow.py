"""Direct count of eigenvalues crossing the gap point under coupling flow.

Because V >= 0, every eigenvalue branch of the Hermitian family
D(t) = free - t*V is nonincreasing in t, so the number of crossings through
the gap point as t runs over [0, alpha] equals the difference of
below-lambda counts at the two endpoints.  No t-sweep enters the count; the
sweep exists only for trace plots.

Neither endpoint count computes an eigenvalue.  At t = 0 the operator is
the Fourier multiplier of the symbol, so its spectrum is the symbol's
eigenvalues on the momentum lattice.  At t = alpha the count below a point
s comes from Haynsworth's inertia additivity (Linear Algebra Appl. 1,
1968): In(A) = In(Q) + In(A/Q) for a nonsingular diagonal block Q.  In
component-block order D(alpha) - s = [[P, B], [B^H, Q]] with
P = diag(m - s - alpha*V) and Q = diag(-m - s - alpha*V) diagonal on the
nodes and B the Fourier multiplier of the symbol's off-diagonal entry.
Since V >= 0 and s > -m, Q is negative definite and holds n^2 negative
eigenvalues; the rest of the inertia is that of the n^2 x n^2 Schur
complement S = P - B Q^-1 B^H (operators.schur_complement), read from its
LDL^H factorization (spectra.inertia).  Each S is built for one shift and
factored in place, so a count holds one n^2 x n^2 complex matrix at a
time.  The certificate is no weaker than factoring D(alpha) - s itself:
S^-1 is the (1,1) block of (D(alpha) - s)^-1, so
min |eig S| >= dist(s, spec D(alpha)).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .lattice import GridSpec
from .operators import (DENSE_CAP, assemble_dense, free_operator, potential_on_grid,
                        schur_complement)
from .potential import PotentialSpec
from .spectra import (DEGENERACY_TOL, InertiaResult, hermitian_eigenvalues, inertia,
                      inertia_bracket)
from .symbol import ModelParams, symbol_eigenvalues


class DegenerateThresholdWarning(UserWarning):
    """An endpoint spectrum has an eigenvalue within 1e-10 of the gap point."""


@dataclass(frozen=True)
class CrossingResult:
    """Crossing count with degeneracy bookkeeping.

    When either endpoint spectrum carries an eigenvalue within 1e-10 of the
    gap point, the count is ill-posed at machine precision; bracket gives
    the (low, high) counts obtained by perturbing the threshold by the
    tolerance in both directions, and count reports the strict-inequality
    value.
    """

    count: int
    degenerate: bool
    bracket: tuple[int, int]
    residual: float  # largest LDL^H probe residual behind the count


@dataclass(frozen=True)
class FlowTrace:
    """Sorted gap eigenvalues of the perturbed operator along a coupling grid."""

    t_values: np.ndarray
    gap_eigenvalues: list[np.ndarray]
    crossing_count: int
    degenerate: bool  # the crossing count met a degenerate threshold


def _count_below(values: np.ndarray, threshold: float) -> int:
    return int(np.count_nonzero(values < threshold))


def _endpoint_spectrum(grid: GridSpec, params: ModelParams, spec: PotentialSpec,
                       t: float, cap: int) -> np.ndarray:
    """Spectrum of the dense D(t) = free - t*V, V a scalar on both components."""
    dense = assemble_dense(free_operator(grid, params), cap=cap)
    dense.flat[::dense.shape[0] + 1] -= t * np.repeat(potential_on_grid(grid, spec), 2)
    return hermitian_eigenvalues(dense)


def _free_spectrum(grid: GridSpec, params: ModelParams) -> np.ndarray:
    xi1, xi2 = grid.momentum_mesh()
    return symbol_eigenvalues(np.stack([xi1, xi2], axis=-1), params).ravel()


def _inertia_at(grid: GridSpec, params: ModelParams, diagonal: np.ndarray,
                shift: float, cap: int) -> InertiaResult:
    """Inertia of free + diag(diagonal) - shift from its Schur complement.

    The negative definite second-component block adds n^2 negatives
    (Haynsworth); zeros and positives are those of the complement onto the
    first component.
    """
    s = inertia(schur_complement(grid, params, diagonal, shift, cap), 0.0)
    return InertiaResult(grid.n_points ** 2 + s.negative, s.zero, s.positive,
                         s.residual)


def crossing_count_detailed(grid: GridSpec, params: ModelParams,
                            spec: PotentialSpec, alpha: float,
                            cap: int = DENSE_CAP) -> CrossingResult:
    """Crossings of the gap point on [0, alpha], with degeneracy brackets.

    The t = 0 counts come from the symbol eigenvalues on the momentum
    lattice.  The t = alpha counts below lambda -/+ 1e-10 are the inertia
    of D(alpha) - s by Haynsworth's additivity: n^2 negatives from the
    second-component block Q = diag(-m - s - alpha*V), negative definite
    because V >= 0 and s > -m, plus the inertia of the n^2 x n^2 Schur
    complement S(s), which is factored once per shift.  A factorization
    of S certifies as much as one of D(alpha) - s would:
    min |eig S| >= dist(s, spec D(alpha)), since S^-1 is a block of
    (D(alpha) - s)^-1.  The two shifts bracket lambda (spectra.inertia_bracket):
    when their counts differ an eigenvalue lies in the tolerance window, and
    S(lambda) gives the strict count.  The dense cap applies to
    grid.dimension and is checked before anything dense is allocated.
    """
    if alpha < 0:
        raise ValueError(f"coupling must be nonnegative, got {alpha}")
    lam = params.gap_point
    diagonal = -alpha * potential_on_grid(grid, spec)  # D(alpha) = free - alpha*V
    end = inertia_bracket(lambda shift: _inertia_at(grid, params, diagonal, shift, cap),
                          lam - DEGENERACY_TOL, lam + DEGENERACY_TOL, lam)
    ev_start = _free_spectrum(grid, params)
    degenerate = bool(
        end.degenerate or np.any(np.abs(ev_start - lam) <= DEGENERACY_TOL)
    )
    count = end.strict.negative - _count_below(ev_start, lam)
    lo = end.low.negative - _count_below(ev_start, lam + DEGENERACY_TOL)
    hi = end.high.negative - _count_below(ev_start, lam - DEGENERACY_TOL)
    if degenerate:
        warnings.warn(
            f"flow count at alpha = {alpha:.17g}: eigenvalue within "
            f"{DEGENERACY_TOL:.0e} of the gap point at an endpoint; crossing "
            f"count brackets to [{lo}, {hi}]",
            DegenerateThresholdWarning,
            stacklevel=2,
        )
    return CrossingResult(count=count, degenerate=degenerate, bracket=(lo, hi),
                          residual=end.residual)


def branch_trace(grid: GridSpec, params: ModelParams, spec: PotentialSpec,
                 t_grid, cap: int = DENSE_CAP) -> FlowTrace:
    """Gap-interval eigenvalues along an increasing coupling grid.

    Adjacent-t association is by sort order only, for plotting; the
    crossing count itself comes from the endpoints.
    """
    t_values = np.asarray(t_grid, dtype=float)
    if len(t_values) == 0 or t_values[0] != 0.0 or np.any(np.diff(t_values) <= 0):
        raise ValueError("t grid must be strictly increasing and start at 0")
    m = params.mass
    gap_lists = []
    for t in t_values:
        ev = _endpoint_spectrum(grid, params, spec, float(t), cap)
        # eigenvalues within the tolerance of a band edge are the edge itself
        # (at t = 0 the edges +-m are exact eigenvalues), whichever side of
        # it rounding puts them
        inside = ev[np.abs(ev) < m - DEGENERACY_TOL]
        gap_lists.append(np.sort(inside))
    crossing = crossing_count_detailed(grid, params, spec, float(t_values[-1]), cap)
    return FlowTrace(t_values=t_values, gap_eigenvalues=gap_lists,
                     crossing_count=crossing.count, degenerate=crossing.degenerate)
