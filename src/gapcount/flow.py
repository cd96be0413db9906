"""Direct count of eigenvalues crossing the gap point under coupling flow.

Because V >= 0, every eigenvalue branch of the Hermitian family
D(t) = free - t*V is nonincreasing in t, so the number N(lambda, alpha) of
crossings through the gap point lambda as t runs over [0, alpha] equals the
difference of below-lambda counts at the two endpoints.  No t-sweep enters
the count; the sweep exists only for trace plots.

No endpoint count computes an eigenvalue of D.  At t = 0 the operator is
the Fourier multiplier of the symbol, so its spectrum is the symbol's
eigenvalues +-sqrt(m^2 + |b|^2) on the momentum lattice, b the symbol's
off-diagonal entry; n^2 of them lie below lambda, as |lambda| < m.  At
t = alpha, in component-block order D(alpha) - lambda = [[P, B], [B^H, Q]]
with P = m - lambda - alpha*V and Q = -(m + lambda + alpha*V) diagonal on
the nodes and B = F^* b F.  Q is negative definite, so by Haynsworth's
inertia additivity (Linear Algebra Appl. 1, 1968) D(alpha) - lambda has
n^2 + neg(S) negative eigenvalues, S = P - B Q^-1 B^H, and
N(lambda, alpha) = neg(S).  With g = 1/(m + lambda) - 1/(m + lambda +
alpha*V) >= 0 on the nodes, S = C - (alpha*V + B g B^H), where C is the
multiplier (m - lambda) + |b|^2/(m + lambda) >= m - lambda > 0.  By
Sylvester's law of inertia neg(S) = neg(C^-1/2 S C^-1/2), the number of
eigenvalues above 1 of K = C^-1/2 (alpha*V + B g B^H) C^-1/2 = G^H G,
G = [sqrt(alpha*V); sqrt(g) B^H] C^-1/2.  G G^H has the nonzero spectrum
of K, and it is a handle W F^*[mult]F W with mult = [[1, b], [conj b,
|b|^2]] / C and one weight per component, W = (sqrt(alpha*V), sqrt(g))
(crossing_operator), and one Krylov count of it above 1 gives N(lambda,
alpha) (spectra.iterative_count_above), with no dense matrix built.

The Krylov certificate delta_K, the distance from 1 to the nearest
converged Ritz value, bounds the distance from lambda to the spectrum of
D(alpha).  S = C^1/2 (I - K) C^1/2, so ||C^1/2 S^-1 C^1/2|| =
1/delta_K.  The block inverse (D(alpha) - lambda)^-1 = X^H S^-1 X +
diag(0, Q^-1), X = [I, -B Q^-1], then has norm at most
||C^-1/2 X||^2 / delta_K + 1/(m + lambda), and as Q^-2 <= (m + lambda)^-2,
C^-1/2 X X^H C^-1/2 = C^-1/2 (I + B Q^-2 B^H) C^-1/2 is at most the
multiplier gamma = (1 + |b|^2/(m + lambda)^2) / C.  So

    dist(lambda, spec D(alpha)) >= 1 / (max gamma / delta_K + 1/(m + lambda)),

where max gamma <= 1/(m - |lambda|) on any lattice.  Ostrowski's
quantitative Sylvester law (PNAS 45, 1959) gives a weaker bound, with
||X||^2 <= 1 + max|b|^2/(m + lambda)^2 in place of max gamma.

A Krylov count whose bound exceeds DEGENERACY_TOL, with no free eigenvalue
within DEGENERACY_TOL of lambda, is non-degenerate with bracket (count,
count).  Every other count, an inconclusive Krylov run included, comes
from the dense D(alpha) instead, by its inertia just below and just above
lambda (spectra.inertia_bracket), one fresh 2n^2 x 2n^2 gather per shift.
So degenerate and bracket keep their meaning: an endpoint eigenvalue within
DEGENERACY_TOL of lambda, and the counts at lambda -/+ DEGENERACY_TOL.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .lattice import GridSpec
from .operators import (DENSE_CAP, LinearOperatorHandle, assemble_dense, free_operator,
                        potential_on_grid)
from .potential import PotentialSpec
from .spectra import (DEGENERACY_TOL, hermitian_eigenvalues, inertia, inertia_bracket,
                      iterative_count_above)
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
    value.  certificate bounds dist(lambda, spec D(alpha)) from below: the
    Krylov bound of the module docstring, or for an "ldl-inertia" count
    DEGENERACY_TOL, 0 when degenerate.  residual is the largest LDL^H probe
    residual of that fallback, None for a Krylov count.
    """

    count: int
    degenerate: bool
    bracket: tuple[int, int]
    certificate: float
    method: str  # "krylov" | "ldl-inertia"
    columns: int  # Krylov basis vectors built
    residual: float | None = None


@dataclass(frozen=True)
class FlowTrace:
    """Sorted gap eigenvalues of the perturbed operator along a coupling grid."""

    t_values: np.ndarray
    gap_eigenvalues: list[np.ndarray]
    crossing_count: int
    degenerate: bool  # the crossing count met a degenerate threshold


def _count_below(values: np.ndarray, threshold: float) -> int:
    return int(np.count_nonzero(values < threshold))


def _perturbed_dense(free: LinearOperatorHandle, v: np.ndarray, t: float,
                     cap: int) -> np.ndarray:
    """The dense D(t) = free - t*V, v = V on the node-major diagonal (each
    node's value twice, once per spinor component)."""
    dense = assemble_dense(free, cap=cap)
    dense.flat[::dense.shape[0] + 1] -= t * v
    return dense


def _free_spectrum(grid: GridSpec, params: ModelParams) -> np.ndarray:
    xi1, xi2 = grid.momentum_mesh()
    return symbol_eigenvalues(np.stack([xi1, xi2], axis=-1), params).ravel()


def crossing_operator(grid: GridSpec, params: ModelParams, spec: PotentialSpec,
                      alpha: float) -> LinearOperatorHandle:
    """G G^H of the module docstring, whose count above 1 is N(lambda, alpha).

    g is computed as alpha*V / ((m + lambda)(m + lambda + alpha*V)), free
    of the cancellation in 1/(m + lambda) - 1/(m + lambda + alpha*V).
    """
    m, lam = params.mass, params.gap_point
    b = free_operator(grid, params).mult[0, 1]
    b2 = np.abs(b) ** 2
    c = (m - lam) + b2 / (m + lam)
    mult = np.stack([np.stack([np.ones_like(b), b]), np.stack([b.conj(), b2 + 0j])]) / c
    av = alpha * potential_on_grid(grid, spec)
    weight = np.sqrt(np.stack([av, av / ((m + lam) * (m + lam + av))]))
    return LinearOperatorHandle(grid, mult, weight)


def crossing_count_detailed(grid: GridSpec, params: ModelParams,
                            spec: PotentialSpec, alpha: float,
                            cap: int = DENSE_CAP) -> CrossingResult:
    """Crossings of the gap point on [0, alpha], with degeneracy brackets.

    A certified Krylov count of crossing_operator above 1, or else the
    dense fallback of the module docstring, which factors D(alpha) at
    lambda -/+ 1e-10, and at lambda when the two counts differ.  The dense
    cap applies to grid.dimension in that fallback only, and is checked
    before anything dense is allocated.
    """
    if alpha < 0:
        raise ValueError(f"coupling must be nonnegative, got {alpha}")
    m, lam = params.mass, params.gap_point
    ev_start = _free_spectrum(grid, params)
    op = crossing_operator(grid, params, spec, alpha)
    krylov = iterative_count_above(op, [1.0], dense_cap=0)
    start_clear = not np.any(np.abs(ev_start - lam) <= DEGENERACY_TOL)
    if krylov.conclusive and start_clear:
        # max gamma of the module docstring, gamma = 1/C + (|b|^2/C) / (m + lambda)^2
        gamma = float((op.mult[0, 0].real + op.mult[1, 1].real / (m + lam) ** 2).max())
        bound = 1.0 / (gamma / krylov.certificate + 1.0 / (m + lam))
        if bound > DEGENERACY_TOL:
            count = krylov.counts[0]
            return CrossingResult(count, False, (count, count), bound, "krylov",
                                  krylov.columns)
    free = free_operator(grid, params)
    v = np.repeat(potential_on_grid(grid, spec), 2)
    end = inertia_bracket(lambda shift: inertia(_perturbed_dense(free, v, alpha, cap), shift),
                          lam - DEGENERACY_TOL, lam + DEGENERACY_TOL, lam)
    degenerate = bool(end.degenerate or not start_clear)
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
    return CrossingResult(count, degenerate, (lo, hi),
                          0.0 if degenerate else DEGENERACY_TOL, "ldl-inertia",
                          krylov.columns, end.residual)


def branch_trace(grid: GridSpec, params: ModelParams, spec: PotentialSpec,
                 t_grid, cap: int = DENSE_CAP) -> FlowTrace:
    """Gap-interval eigenvalues along an increasing coupling grid.

    Adjacent-t association is by sort order only, for plotting; the
    crossing count itself comes from the endpoints.  One free handle and one
    evaluation of V serve every t, so the trace computes one kernel; each t
    gathers its dense matrix from it afresh.
    """
    t_values = np.asarray(t_grid, dtype=float)
    if len(t_values) == 0 or t_values[0] != 0.0 or np.any(np.diff(t_values) <= 0):
        raise ValueError("t grid must be strictly increasing and start at 0")
    m = params.mass
    free = free_operator(grid, params)
    v = np.repeat(potential_on_grid(grid, spec), 2)
    gap_lists = []
    for t in t_values:
        ev = hermitian_eigenvalues(_perturbed_dense(free, v, float(t), cap))
        # eigenvalues within the tolerance of a band edge are the edge itself
        # (at t = 0 the edges +-m are exact eigenvalues), whichever side of
        # it rounding puts them
        inside = ev[np.abs(ev) < m - DEGENERACY_TOL]
        gap_lists.append(np.sort(inside))
    crossing = crossing_count_detailed(grid, params, spec, float(t_values[-1]), cap)
    return FlowTrace(t_values=t_values, gap_eigenvalues=gap_lists,
                     crossing_count=crossing.count, degenerate=crossing.degenerate)
