"""Matrix-free discretized operators and their dense assembly.

Every operator here is a composition of Fourier multipliers (exact on the
momentum lattice) and pointwise position-space multipliers, the standard
pseudospectral discretization.  Handles apply to raw arrays of shape
(..., n, n, 2) so dense assembly and probing batch over leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import GridSpec, SpinorField, forward_array, inverse_array
from .potential import PotentialSpec, eval_potential, sqrt_potential
from .symbol import ModelParams, dirac_symbol, resolvent_symbol

DENSE_CAP = 10_000  # largest dimension assemble_dense will materialize
HERMITICITY_TOL = 1e-9
_CHECK_STRIP_BYTES = 1 << 20


class DenseCapExceededError(RuntimeError):
    """Requested dense assembly beyond the configured dimension cap."""


@dataclass(frozen=True)
class LinearOperatorHandle:
    """Deterministic linear map on spinor fields with a hermiticity promise."""

    grid: GridSpec
    apply_array: Callable[[np.ndarray], np.ndarray]
    hermitian: bool
    label: str = ""

    @property
    def dimension(self) -> int:
        return self.grid.dimension

    def apply(self, f: SpinorField) -> SpinorField:
        if f.grid != self.grid:
            raise ValueError("field grid does not match operator grid")
        return SpinorField(self.apply_array(f.values), self.grid)


@dataclass(frozen=True)
class LocalizationSpec:
    """Radial three-zone decomposition with zone radii eps_i * alpha^(1/p)."""

    eps1: float
    eps2: float
    coupling: float
    decay_exponent: float

    def __post_init__(self):
        if not 0 < self.eps1 < self.eps2:
            raise ValueError(
                f"need 0 < eps1 < eps2, got eps1={self.eps1}, eps2={self.eps2}"
            )
        if not self.coupling > 0:
            raise ValueError(f"coupling must be positive, got {self.coupling}")
        if not self.decay_exponent > 0:
            raise ValueError("decay exponent must be positive")

    @property
    def r1(self) -> float:
        return self.eps1 * self.coupling ** (1.0 / self.decay_exponent)

    @property
    def r2(self) -> float:
        return self.eps2 * self.coupling ** (1.0 / self.decay_exponent)


@dataclass(frozen=True)
class BoxSpec:
    """Square Q (corner + side) together with the dilation scale beta."""

    corner: tuple[float, float]
    side: float
    scale: float

    def __post_init__(self):
        if not self.side > 0:
            raise ValueError(f"side must be positive, got {self.side}")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    @property
    def area(self) -> float:
        return self.side * self.side


def _multiplier_on_grid(grid: GridSpec, symbol_fn, params: ModelParams) -> np.ndarray:
    xi1, xi2 = grid.momentum_mesh()
    xi = np.stack([xi1, xi2], axis=-1)
    return symbol_fn(xi, params)


def fourier_multiplier(grid: GridSpec, mult: np.ndarray, hermitian: bool,
                       label: str = "") -> LinearOperatorHandle:
    """Operator F^* [mult] F for a per-mode 2x2 matrix field mult."""

    def apply_array(values: np.ndarray) -> np.ndarray:
        vhat = forward_array(values)
        ghat = np.einsum("xyab,...xyb->...xya", mult, vhat)
        return inverse_array(ghat)

    return LinearOperatorHandle(grid, apply_array, hermitian, label)


def free_operator(grid: GridSpec, params: ModelParams) -> LinearOperatorHandle:
    """The unperturbed operator, diagonal on the momentum lattice."""
    mult = _multiplier_on_grid(grid, dirac_symbol, params)
    return fourier_multiplier(grid, mult, hermitian=True, label="free")


def resolvent(grid: GridSpec, params: ModelParams) -> LinearOperatorHandle:
    """(free - lambda)^{-1}; requires |lambda| < m (enforced by ModelParams)."""
    mult = _multiplier_on_grid(grid, resolvent_symbol, params)
    return fourier_multiplier(grid, mult, hermitian=True, label="resolvent")


def potential_on_grid(grid: GridSpec, spec: PotentialSpec) -> np.ndarray:
    x1, x2 = grid.position_mesh()
    return eval_potential(spec, np.stack([x1, x2], axis=-1))


def sqrt_potential_on_grid(grid: GridSpec, spec: PotentialSpec) -> np.ndarray:
    x1, x2 = grid.position_mesh()
    return sqrt_potential(spec, np.stack([x1, x2], axis=-1))


def _sandwich(grid: GridSpec, left: np.ndarray, middle: LinearOperatorHandle,
              right: np.ndarray, hermitian: bool, label: str) -> LinearOperatorHandle:
    inner = middle.apply_array

    def apply_array(values: np.ndarray) -> np.ndarray:
        g = values * right[..., None]
        g = inner(g)
        return g * left[..., None]

    return LinearOperatorHandle(grid, apply_array, hermitian, label)


def birman_schwinger(grid: GridSpec, params: ModelParams,
                     spec: PotentialSpec) -> LinearOperatorHandle:
    """W (free - lambda)^{-1} W with W = sqrt(V), pointwise W on the grid."""
    w = sqrt_potential_on_grid(grid, spec)
    return _sandwich(grid, w, resolvent(grid, params), w, True, "birman_schwinger")


def perturbed_operator(grid: GridSpec, params: ModelParams, spec: PotentialSpec,
                       t: float) -> LinearOperatorHandle:
    """free - t*V with V acting as a scalar on both spinor components."""
    if t < 0:
        raise ValueError(f"coupling must be nonnegative, got {t}")
    v = potential_on_grid(grid, spec)
    free = free_operator(grid, params).apply_array

    def apply_array(values: np.ndarray) -> np.ndarray:
        return free(values) - t * values * v[..., None]

    return LinearOperatorHandle(grid, apply_array, True, f"perturbed(t={t})")


def zone_masks(grid: GridSpec, loc: LocalizationSpec) -> tuple[np.ndarray, ...]:
    """Sharp 0/1 indicators of the three radial zones; they partition the grid."""
    r = grid.radius_mesh()
    inner = r < loc.r1
    outer = r > loc.r2
    middle = ~inner & ~outer
    return inner, middle, outer


def localized_piece(grid: GridSpec, params: ModelParams, spec: PotentialSpec,
                    loc: LocalizationSpec, i: int, j: int) -> LinearOperatorHandle:
    """W_i (free - lambda)^{-1} W_j with W_i = (zone-i indicator) * sqrt(V).

    The nine pieces sum to the full sandwich because the sharp indicators
    partition the grid exactly.
    """
    if i not in (1, 2, 3) or j not in (1, 2, 3):
        raise ValueError(f"zone indices must lie in {{1,2,3}}, got ({i}, {j})")
    if loc.r2 >= 0.5 * grid.box_side:
        raise ValueError(
            f"outer zone radius {loc.r2:.3g} does not fit inside the box "
            f"(needs r2 < {0.5 * grid.box_side:.3g})"
        )
    masks = zone_masks(grid, loc)
    w = sqrt_potential_on_grid(grid, spec)
    wi = np.where(masks[i - 1], w, 0.0)
    wj = np.where(masks[j - 1], w, 0.0)
    return _sandwich(grid, wi, resolvent(grid, params), wj,
                     hermitian=(i == j), label=f"piece({i},{j})")


def box_mask(grid: GridSpec, box: BoxSpec) -> np.ndarray:
    """Indicator of the dilated square beta*Q on the grid nodes (half-open)."""
    x = grid.positions
    lo1 = box.scale * box.corner[0]
    lo2 = box.scale * box.corner[1]
    hi1 = box.scale * (box.corner[0] + box.side)
    hi2 = box.scale * (box.corner[1] + box.side)
    in1 = (x >= lo1) & (x < hi1)
    in2 = (x >= lo2) & (x < hi2)
    return in1[:, None] & in2[None, :]


def box_localized_resolvent(grid: GridSpec, params: ModelParams,
                            box: BoxSpec) -> LinearOperatorHandle:
    """phi (free - lambda)^{-1} phi with phi the indicator of beta*Q."""
    margin = 2.0 * grid.spacing
    half = 0.5 * grid.box_side
    lo = box.scale * min(box.corner)
    hi = box.scale * (max(box.corner) + box.side)
    if lo < -half + margin or hi > half - margin:
        raise ValueError(
            f"dilated box [{lo:.3g}, {hi:.3g}] leaves the grid box "
            f"[-{half:.3g}, {half:.3g}) (margin 2 spacings required)"
        )
    phi = box_mask(grid, box).astype(float)
    return _sandwich(grid, phi, resolvent(grid, params), phi, True,
                     f"box(beta={box.scale})")


# ---------------------------------------------------------------------------
# dense assembly
# ---------------------------------------------------------------------------

def check_hermitian(matrix: np.ndarray) -> float:
    """Largest entry of |A - A^H|; raises ValueError above 1e-9 relative.

    The defect is taken relative to max(max|A_ij|, 1).  Rows are compared
    with the matching columns in strips of about 1 MiB, so the check needs
    no dense temporary.  Small strips also stay below the allocator's mmap
    threshold, so freeing them leaves no large block cached on the heap.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    strip = max(1, _CHECK_STRIP_BYTES // (16 * max(a.shape[0], 1)))
    defect = 0.0
    scale = 1.0
    for r0 in range(0, a.shape[0], strip):
        rows = a[r0:r0 + strip]
        scale = max(scale, float(np.abs(rows).max()))
        defect = max(defect, float(np.abs(rows - a[:, r0:r0 + strip].conj().T).max()))
    if defect > HERMITICITY_TOL * scale:
        raise ValueError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds "
            f"{HERMITICITY_TOL:.0e} relative"
        )
    return defect


def assemble_dense(op: LinearOperatorHandle, cap: int = DENSE_CAP,
                   chunk: int = 256) -> np.ndarray:
    """Dense matrix of the handle in the node/component basis.

    Column k is the operator applied to the k-th basis field (C-order
    flattening of the (n, n, 2) array).  For hermitian handles the
    symmetrization defect must stay below 1e-9; the returned matrix is the
    exact Hermitian symmetrization.
    """
    dim = op.dimension
    if dim > cap:
        raise DenseCapExceededError(
            f"dimension {dim} exceeds the dense-assembly cap {cap}"
        )
    n = op.grid.n_points
    out = np.empty((dim, dim), dtype=complex)
    for k0 in range(0, dim, chunk):
        k1 = min(k0 + chunk, dim)
        basis = np.zeros((k1 - k0, dim), dtype=complex)
        basis[np.arange(k1 - k0), np.arange(k0, k1)] = 1.0
        cols = op.apply_array(basis.reshape(k1 - k0, n, n, 2))
        out[:, k0:k1] = cols.reshape(k1 - k0, dim).T
    if op.hermitian:
        check_hermitian(out)
        out = 0.5 * (out + out.conj().T)
    return out


def restricted_block(op: LinearOperatorHandle, row_mask: np.ndarray,
                     col_mask: np.ndarray) -> np.ndarray:
    """Dense block of the operator between two node sets.

    For operators of the form P_row A P_col (sharp indicator projections on
    both sides) the nonzero singular values -- and for row_mask == col_mask
    the nonzero eigenvalues -- of the full operator coincide with those of
    this block, so spectra of localized pieces can be computed without
    materializing the 2n^2-dimensional matrix.
    """
    n = op.grid.n_points
    rows = np.argwhere(row_mask)
    cols = np.argwhere(col_mask)
    block = np.empty((2 * len(rows), 2 * len(cols)), dtype=complex)
    chunk = 128
    for c0 in range(0, len(cols), chunk):
        c1 = min(c0 + chunk, len(cols))
        basis = np.zeros(((c1 - c0) * 2, n, n, 2), dtype=complex)
        for k, (i, j) in enumerate(cols[c0:c1]):
            basis[2 * k, i, j, 0] = 1.0
            basis[2 * k + 1, i, j, 1] = 1.0
        out = op.apply_array(basis)
        picked = out[:, rows[:, 0], rows[:, 1], :]  # (batch, nrows, 2)
        block[:, 2 * c0:2 * c1] = picked.reshape((c1 - c0) * 2, -1).T
    return block
