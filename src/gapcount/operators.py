"""Matrix-free discretized operators and their dense blocks.

Every operator here has the form left * F^*[mult]F * right + diagonal: a
Fourier multiplier (exact on the momentum lattice) between pointwise
position-space weights, plus a pointwise diagonal, the standard
pseudospectral discretization.  Handles apply to raw arrays of shape
(..., n, n, 2) by FFT, so Krylov methods and probes batch over leading axes.

Dense blocks need no FFT per column.  On the torus the multiplier is a
circulant convolution, so entry [(x, a), (y, b)] of F^*[mult]F is
k_ab(x - y), where k is one inverse FFT of mult (Davis, Circulant
Matrices, 1979).  A dense block between two node sets is a gather from k,
scaled by left[x] * right[y], plus the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import GridSpec, SpinorField, forward_array, inverse_array
from .potential import PotentialSpec, eval_potential, sqrt_potential
from .symbol import ModelParams, dirac_symbol, resolvent_symbol

DENSE_CAP = 10_000  # largest dimension assemble_dense will materialize
HERMITICITY_TOL = 1e-9
_STRIP_BYTES = 1 << 20  # temporaries of the dense-block gather and the check


class DenseCapExceededError(RuntimeError):
    """Requested dense assembly beyond the configured dimension cap."""


@dataclass(frozen=True, eq=False)
class LinearOperatorHandle:
    """The operator left * F^*[mult]F * right + diagonal on spinor fields.

    mult is the per-mode 2x2 multiplier, shape (n, n, 2, 2) in FFT order.
    left, right and diagonal are optional real node fields of shape (n, n)
    acting on both spinor components; None stands for the identity (for
    left and right) and for zero (for diagonal).  hermitian is a promise
    that dense assembly checks on the convolution kernel (_kernel).
    """

    grid: GridSpec
    mult: np.ndarray
    hermitian: bool
    label: str = ""
    left: np.ndarray | None = None
    right: np.ndarray | None = None
    diagonal: np.ndarray | None = None

    @property
    def dimension(self) -> int:
        return self.grid.dimension

    def apply_array(self, values: np.ndarray) -> np.ndarray:
        """The operator on an array of shape (..., n, n, 2), by FFT."""
        g = values if self.right is None else values * self.right[..., None]
        ghat = np.einsum("xyab,...xyb->...xya", self.mult, forward_array(g))
        out = inverse_array(ghat)
        if self.left is not None:
            out = out * self.left[..., None]
        if self.diagonal is not None:
            out = out + values * self.diagonal[..., None]
        return out

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
    return LinearOperatorHandle(grid, mult, hermitian, label)


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
    """left * middle * right; middle must be a plain Fourier multiplier."""
    return LinearOperatorHandle(grid, middle.mult, hermitian, label,
                                left=left, right=right)


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
    mult = _multiplier_on_grid(grid, dirac_symbol, params)
    return LinearOperatorHandle(grid, mult, True, f"perturbed(t={t})",
                                diagonal=-t * v)


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
    strip = max(1, _STRIP_BYTES // (16 * max(a.shape[0], 1)))
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


def _kernel(op: LinearOperatorHandle) -> np.ndarray:
    """Convolution kernel k[d, a, b] of F^*[mult]F, d the flat node offset.

    Entry [(x, a), (y, b)] of the multiplier is k_ab(x - y) (offsets taken
    mod n per axis), computed by one batched inverse FFT over b.  A
    hermitian handle keeps its promise on the kernel, which holds every
    distinct entry of the circulant part: k_ab(d) must equal
    conj(k_ba(-d)) to 1e-9 relative (ValueError otherwise) and the node
    weights left and right must be equal.  k is then replaced by
    (k_ab(d) + conj(k_ba(-d))) / 2, so every block gathered from it between
    equal node sets is exactly Hermitian and needs no O(dim^2) check.
    """
    n = op.grid.n_points
    k = np.moveaxis(inverse_array(np.moveaxis(op.mult, -1, 0)), 0, -1) / n
    if op.hermitian:
        neg = -np.arange(n) % n
        mirror = k[neg][:, neg].conj().swapaxes(-1, -2)
        defect = float(np.abs(k - mirror).max())
        if defect > HERMITICITY_TOL * max(float(np.abs(k).max()), 1.0):
            raise ValueError(
                f"hermitian handle {op.label!r} has a non-Hermitian multiplier: "
                f"kernel defect {defect:.3e} exceeds {HERMITICITY_TOL:.0e} relative"
            )
        if not _same_weights(op.left, op.right):
            raise ValueError(f"hermitian handle {op.label!r} has unequal node weights")
        k = 0.5 * (k + mirror)
    return k.reshape(n * n, 2, 2)


def _same_weights(left: np.ndarray | None, right: np.ndarray | None) -> bool:
    if left is None or right is None:
        return left is None and right is None
    return left is right or np.array_equal(left, right)


def _dense_block(op: LinearOperatorHandle, rows: np.ndarray,
                 cols: np.ndarray) -> np.ndarray:
    """Dense block of the handle between two increasing lists of flat nodes.

    Row 2*r + a and column 2*c + b hold entry [(rows[r], a), (cols[c], b)],
    the C-order flattening of (n, n, 2) restricted to the nodes.  The block
    is gathered from the kernel straight into the output, in row strips of
    about 1 MiB so the index temporaries stay small, and scaled by
    left[x] * right[y]; the diagonal is added where a row node is a column
    node.
    """
    n = op.grid.n_points
    kernel = _kernel(op)
    ri, rj = np.divmod(rows, n)
    ci, cj = np.divmod(cols, n)
    weighted = op.left is not None or op.right is not None
    if weighted:
        ones = np.ones(n * n)
        wl = (ones if op.left is None else op.left.ravel())[rows]
        wr = (ones if op.right is None else op.right.ravel())[cols]
    out = np.empty((2 * len(rows), 2 * len(cols)), dtype=complex)
    out4 = out.reshape(len(rows), 2, len(cols), 2)
    strip = max(1, _STRIP_BYTES // (64 * max(len(cols), 1)))
    for r0 in range(0, len(rows), strip):
        r1 = min(r0 + strip, len(rows))
        offset = (ri[r0:r1, None] - ci) % n * n + (rj[r0:r1, None] - cj) % n
        part = out4[r0:r1]
        # mode="wrap" lets take fill the strided view without a buffer;
        # the offsets are in range anyway
        np.take(kernel, offset, axis=0, out=part.swapaxes(1, 2), mode="wrap")
        if weighted:
            # the product is symmetric in (x, y), which keeps Hermiticity exact
            part *= (wl[r0:r1, None] * wr)[:, None, :, None]
    if op.diagonal is not None:
        nodes, r, c = np.intersect1d(rows, cols, assume_unique=True,
                                     return_indices=True)
        d = op.diagonal.ravel()[nodes]
        out4[r, 0, c, 0] += d
        out4[r, 1, c, 1] += d
    return out


def assemble_dense(op: LinearOperatorHandle, cap: int = DENSE_CAP) -> np.ndarray:
    """Dense matrix of the handle in the node/component basis.

    Entry [(x, a), (y, b)] sits at row 2*(n*x1 + x2) + a and column
    2*(n*y1 + y2) + b (C-order flattening of the (n, n, 2) array).  It is
    gathered from the convolution kernel (_dense_block), so a hermitian
    handle, whose promise _kernel checks, gives an exactly Hermitian
    matrix.  The dimension cap is checked before anything is allocated.
    """
    dim = op.dimension
    if dim > cap:
        raise DenseCapExceededError(
            f"dimension {dim} exceeds the dense-assembly cap {cap}"
        )
    nodes = np.arange(op.grid.n_points ** 2)
    return _dense_block(op, nodes, nodes)


def restricted_block(op: LinearOperatorHandle, row_mask: np.ndarray,
                     col_mask: np.ndarray) -> np.ndarray:
    """Dense block of the operator between two node sets.

    The block is the np.ix_ sub-matrix of assemble_dense(op) on the masked
    nodes (both components of each), gathered from the convolution kernel
    without building the full matrix.  For operators of the form
    P_row A P_col (sharp indicator projections on both sides) the nonzero
    singular values -- and for row_mask == col_mask the nonzero
    eigenvalues -- of the full operator coincide with those of this block.
    """
    shape = (op.grid.n_points,) * 2
    if np.shape(row_mask) != shape or np.shape(col_mask) != shape:
        raise ValueError(f"node masks must have shape {shape}")
    return _dense_block(op, np.flatnonzero(row_mask), np.flatnonzero(col_mask))
