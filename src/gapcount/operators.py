"""Matrix-free discretized operators and their dense blocks.

Every operator here is a Hermitian sandwich W F^*[mult]F W: a Fourier
multiplier (exact on the momentum lattice) between two copies of one real
pointwise position-space weight (sqrt(V) for Birman-Schwinger), the
standard pseudospectral discretization.  The weight is one node field for
both spinor components, or one per component (the flow's crossing
operator).  Handles apply by FFT to component-major spinor fields of shape
(..., 2, n, n), or to their C-order flattenings, so Krylov methods and
probes batch over leading axes.

A handle may carry a node set (nodes): it is then the compression P A P
of the sandwich to those nodes, on both spinor components, of dimension
2 x the kept nodes.  It applies to component-major vectors (..., 2, K) on
the K kept nodes, or their flattenings, by scattering them into a zero
field, applying the sandwich by FFT and gathering the kept nodes back.  Its
support_bound is eps = max_xi ||mult(xi)|| max W_out (max W + max W_out),
W_out the weight on the dropped nodes: A - P A P is [[0, W_in K W_out],
[W_out K W_in, W_out K W_out]] in the split into kept and dropped nodes,
of norm at most eps with ||K|| <= max_xi ||mult(xi)||, so by Weyl's
inequality for Hermitian perturbations (Horn & Johnson, Matrix Analysis,
4.3) every eigenvalue of A lies within eps of one of P A P, whose spectrum
is that of the compression and 0 (spectra.on_support picks the nodes).

Dense blocks need no FFT per column.  On the torus the multiplier is a
circulant convolution, so entry [(x, a), (y, b)] of F^*[mult]F is
k_ab(x - y), where k is one inverse FFT of mult (Davis, Circulant
Matrices, 1979), which each handle computes once (kernel).  Every dense
block, between two node sets on both spinor components or on one against
another (restricted_block), is one gather W_a[x] k_ab(x - y) W_b[y] from k
(_dense_block).  Two-component blocks are node-major: the two components
of a node are adjacent rows and columns (assemble_dense).  The dense matrix
of a handle with a node set is the (nodes, nodes) block of the full one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import GridSpec, forward_array, inverse_array
from .potential import PotentialSpec, eval_potential, sqrt_potential
from .symbol import ModelParams, dirac_symbol, resolvent_symbol

DENSE_CAP = 10_000  # largest dimension assemble_dense will materialize
HERMITICITY_TOL = 1e-9
_STRIP_BYTES = 1 << 20  # temporaries of the dense-block gather
_TILE = 64  # rows and columns of a tile of the Hermiticity check


class DenseCapExceededError(RuntimeError):
    """Requested dense assembly beyond the configured dimension cap."""


@dataclass(frozen=True, eq=False)
class LinearOperatorHandle:
    """The Hermitian sandwich W F^*[mult]F W on spinor fields.

    mult is the per-mode 2x2 multiplier as four contiguous planes, shape
    (2, 2, n, n): mult[a, b] holds entry (a, b) at every mode, in FFT
    order.  It must be Hermitian mode by mode, which kernel checks.
    weight is the real node field W of shape (n, n), acting on both spinor
    components on both sides, one such field per component, shape
    (2, n, n), or None for the identity.  The same real weight on both
    sides makes the operator Hermitian whenever mult is.
    Fields are component-major, (..., 2, n, n) (see lattice), so the apply
    multiplies whole planes.  nodes is None for the whole grid, or a 1-D
    integer array of distinct flat node indices n*x1 + x2, in increasing
    order, for the compression to those nodes (module docstring), whose
    vectors are component-major on the kept nodes, (..., 2, len(nodes)).
    kernel and support_bound are cached at first use, so mult, weight and
    nodes must not change after it.
    """

    grid: GridSpec
    mult: np.ndarray
    weight: np.ndarray | None = None
    nodes: np.ndarray | None = None

    @property
    def dimension(self) -> int:
        return self.grid.dimension if self.nodes is None else 2 * len(self.nodes)

    @cached_property
    def _node_weight(self) -> np.ndarray | None:
        """The weight on the kept nodes, shape (1 or 2, len(nodes)), or None."""
        if self.weight is None:
            return None
        return np.reshape(self.weight, (-1, self.grid.n_points ** 2))[:, self.nodes]

    def apply_array(self, values: np.ndarray) -> np.ndarray:
        """The operator on component-major fields, by FFT.

        values holds whole fields, of shape (..., 2, n, n) or flattened to
        (..., dim) in C order, or with a node set vectors of shape
        (..., 2, len(nodes)) or flattened to (..., dim); the result has the
        shape of values.  A node set's vectors are weighted on the kept
        nodes and scattered into zero fields, and the kept nodes of the
        weighted result are gathered back, so each entry is the one the
        whole-grid apply gives on a field that vanishes off the nodes.
        """
        n = self.grid.n_points
        if self.nodes is None:
            fields = values.reshape(-1, 2, n, n)
            if self.weight is not None:
                fields = fields * self.weight
        else:
            kept = values.reshape(-1, 2, len(self.nodes))
            if self._node_weight is not None:
                kept = kept * self._node_weight
            fields = np.zeros((len(kept), 2, n * n), dtype=kept.dtype)
            fields[:, :, self.nodes] = kept
            fields = fields.reshape(-1, 2, n, n)
        ghat = forward_array(fields)
        m = self.mult
        prod = np.empty_like(ghat)
        for a in (0, 1):
            np.add(m[a, 0] * ghat[:, 0], m[a, 1] * ghat[:, 1], out=prod[:, a])
        out = inverse_array(prod)
        if self.nodes is not None:
            out = out.reshape(-1, 2, n * n)[:, :, self.nodes]
            weight = self._node_weight
        else:
            weight = self.weight
        if weight is not None:
            out *= weight
        return out.reshape(values.shape)

    @cached_property
    def support_bound(self) -> float:
        """eps = max_xi ||mult(xi)|| max W_out (max W + max W_out), a bound on
        the norm of the whole-grid sandwich minus this compression (module
        docstring); W_out is the largest weight off the nodes, over both
        components, and eps is 0 without a node set."""
        if self.nodes is None:
            return 0.0
        w = _node_weight_max(self)
        dropped = np.ones(w.size, dtype=bool)
        dropped[self.nodes] = False
        out = float(w[dropped].max()) if dropped.any() else 0.0
        return _multiplier_norm(self.mult) * out * (float(w.max()) + out)

    @cached_property
    def kernel(self) -> np.ndarray:
        """Convolution kernel k[d, a, b] of F^*[mult]F, d the flat node offset.

        Entry [(x, a), (y, b)] of the multiplier is k_ab(x - y) (offsets
        taken mod n per axis): one batched inverse FFT of the four planes,
        computed at the first dense block and cached.  k holds every
        distinct entry of the circulant part, so mult is Hermitian when
        k_ab(d) = conj(k_ba(-d)), checked to 1e-9 relative (ValueError,
        and nothing cached, otherwise).  k is then replaced by its
        Hermitian part, so every block of W k W gathered between equal
        node sets is exactly Hermitian and needs no O(dim^2) check.
        """
        n = self.grid.n_points
        k = np.moveaxis(inverse_array(self.mult), (0, 1), (2, 3)) / n
        hermitian = _hermitian_part(k)
        # k - hermitian is half of k_ab(d) - conj(k_ba(-d))
        defect = 2.0 * float(np.abs(k - hermitian).max())
        if defect > HERMITICITY_TOL * max(float(np.abs(k).max()), 1.0):
            raise ValueError(
                f"non-Hermitian multiplier: kernel defect {defect:.3e} exceeds "
                f"{HERMITICITY_TOL:.0e} relative"
            )
        return hermitian.reshape(n * n, 2, 2)


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


def _mode_spectra(mult: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half trace h and radius r of a Hermitian 2x2 multiplier per mode, its
    eigenvalues h -/+ r; its norm at a mode is |h| + r."""
    half_trace = 0.5 * (mult[0, 0].real + mult[1, 1].real)
    radius = np.hypot(0.5 * (mult[0, 0].real - mult[1, 1].real), np.abs(mult[0, 1]))
    return half_trace, radius


def _multiplier_norm(mult: np.ndarray) -> float:
    """max_xi ||mult(xi)||_2, the norm of F^*[mult]F."""
    half_trace, radius = _mode_spectra(mult)
    return float((np.abs(half_trace) + radius).max())


def _node_weight_max(op: LinearOperatorHandle) -> np.ndarray:
    """The largest |W| over the spinor components at each flat node of the
    grid, ones for a handle without weight."""
    if op.weight is None:
        return np.ones(op.grid.n_points ** 2)
    return np.abs(np.reshape(op.weight, (-1, op.grid.n_points ** 2))).max(axis=0)


def _multiplier_on_grid(grid: GridSpec, symbol_fn, params: ModelParams) -> np.ndarray:
    """The symbol on the momentum lattice as planes, shape (2, 2, n, n)."""
    xi1, xi2 = grid.momentum_mesh()
    xi = np.stack([xi1, xi2], axis=-1)
    return np.ascontiguousarray(np.moveaxis(symbol_fn(xi, params), (-2, -1), (0, 1)))


def free_operator(grid: GridSpec, params: ModelParams) -> LinearOperatorHandle:
    """The unperturbed operator, the symbol as a multiplier on the momentum lattice."""
    return LinearOperatorHandle(grid, _multiplier_on_grid(grid, dirac_symbol, params))


def resolvent(grid: GridSpec, params: ModelParams) -> LinearOperatorHandle:
    """(free - lambda)^{-1}; requires |lambda| < m (enforced by ModelParams)."""
    mult = _multiplier_on_grid(grid, resolvent_symbol, params)
    return LinearOperatorHandle(grid, mult)


def potential_on_grid(grid: GridSpec, spec: PotentialSpec) -> np.ndarray:
    x1, x2 = grid.position_mesh()
    return eval_potential(spec, np.stack([x1, x2], axis=-1))


def sqrt_potential_on_grid(grid: GridSpec, spec: PotentialSpec) -> np.ndarray:
    x1, x2 = grid.position_mesh()
    return sqrt_potential(spec, np.stack([x1, x2], axis=-1))


def birman_schwinger(grid: GridSpec, params: ModelParams,
                     spec: PotentialSpec) -> LinearOperatorHandle:
    """W (free - lambda)^{-1} W with W = sqrt(V), pointwise W on the grid."""
    w = sqrt_potential_on_grid(grid, spec)
    return LinearOperatorHandle(grid, resolvent(grid, params).mult, weight=w)


def zone_masks(grid: GridSpec, loc: LocalizationSpec) -> tuple[np.ndarray, ...]:
    """Sharp 0/1 indicators of the three radial zones; they partition the grid."""
    r = grid.radius_mesh()
    inner = r < loc.r1
    outer = r > loc.r2
    middle = ~inner & ~outer
    return inner, middle, outer


def check_zones_fit(grid: GridSpec, loc: LocalizationSpec) -> None:
    """Raise ValueError unless the outer zone radius r2 stays below L/2."""
    if loc.r2 >= 0.5 * grid.box_side:
        raise ValueError(
            f"outer zone radius {loc.r2:.3g} at coupling {loc.coupling:g} does not "
            f"fit inside the box (needs r2 < {0.5 * grid.box_side:.3g})"
        )


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


def check_box_fits(grid: GridSpec, box: BoxSpec) -> None:
    """Raise ValueError unless beta*Q stays 2 spacings inside the grid box.

    The margin keeps the dilated box away from its periodic images.
    """
    margin = 2.0 * grid.spacing
    half = 0.5 * grid.box_side
    lo = box.scale * min(box.corner)
    hi = box.scale * (max(box.corner) + box.side)
    if lo < -half + margin or hi > half - margin:
        raise ValueError(
            f"dilated box at beta={box.scale:g} spans [{lo:g}, {hi:g}] and "
            f"leaves the grid box [-{half:g}, {half:g}) (margin 2 spacings required)"
        )


# ---------------------------------------------------------------------------
# dense assembly
# ---------------------------------------------------------------------------

def check_hermitian(matrix: np.ndarray) -> float:
    """Largest entry of |A - A^H|; raises ValueError above 1e-9 relative.

    The defect is taken relative to max(max|A_ij|, 1).  Tiles of at most
    _TILE x _TILE entries are compared in pairs, tile (I, J) with tile
    (J, I) for J >= I.  The first is conjugated and transposed into one
    reused complex buffer, the second is subtracted from it in place, and
    the moduli go to one reused real buffer, which first holds |A| on both
    tiles; so the check allocates those two buffers, 64 KiB and 32 KiB,
    and no dense temporary (numpy's iterator adds a 64 KiB buffer for a
    strided tile while a ufunc runs).  A tile whose largest entry is nan or
    infinite raises ValueError, as a non-finite entry would compare as no
    defect.  Each buffer stays below the allocator's mmap threshold
    (128 KiB), so freeing it leaves no large block cached on the heap, and
    the check adds next to nothing to the peak of a caller that holds other
    dense arrays.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    dim = a.shape[0]
    # flat, so that every tile, the last and shorter ones too, gets a
    # contiguous view in either orientation
    difference = np.empty(min(_TILE, dim) ** 2, dtype=complex)
    modulus = np.empty(min(_TILE, dim) ** 2)
    defect = 0.0
    scale = 1.0
    for r0 in range(0, dim, _TILE):
        for c0 in range(r0, dim, _TILE):
            upper = a[r0:r0 + _TILE, c0:c0 + _TILE]
            lower = a[c0:c0 + _TILE, r0:r0 + _TILE]
            size = upper.size
            for tile in (upper,) if c0 == r0 else (upper, lower):
                top = float(np.abs(tile, out=modulus[:size].reshape(tile.shape)).max())
                if not np.isfinite(top):
                    raise ValueError("matrix contains non-finite entries")
                scale = max(scale, top)
            # |conj(A[r, c]) - A[c, r]| is the defect |A - A^H| at (r, c)
            d = np.conjugate(upper.T, out=difference[:size].reshape(lower.shape))
            np.subtract(d, lower, out=d)
            defect = max(defect, float(np.abs(d, out=modulus[:size].reshape(d.shape)).max()))
    if defect > HERMITICITY_TOL * scale:
        raise ValueError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds "
            f"{HERMITICITY_TOL:.0e} relative"
        )
    return defect


def _hermitian_part(k: np.ndarray) -> np.ndarray:
    """(k_ab(d) + conj(k_ba(-d))) / 2 of a kernel of shape (n, n, c, c), -d mod n."""
    neg = -np.arange(k.shape[0]) % k.shape[0]
    return 0.5 * (k + k[neg][:, neg].conj().swapaxes(-1, -2))


def _dense_block(n: int, rows: np.ndarray, cols: np.ndarray, kernel: np.ndarray,
                 left: np.ndarray | None, right: np.ndarray | None) -> np.ndarray:
    """Dense block left_a[x] k_ab(x - y) right_b[y].

    x runs over rows and y over cols, two lists of flat node indices into
    an n x n torus lattice, in any order; x - y is taken mod n per axis.
    kernel has shape (n*n, c, c), indexed by the flat offset.  left and
    right are the real weights on rows and on cols, of shape (len, c), or
    (len, 1) for one weight on every component, or both None for ones
    (_weights).  Row c*r + a and column c*s + b hold component [a, b] of
    the entry [rows[r], cols[s]].

    The kernel is first spread over the per-axis differences: entry
    (2n - 1)(d1 + n - 1) + d2 + n - 1 of the spread kernel is k at the
    offset (d1 mod n, d2 mod n), for -n < d1, d2 < n, so x - y needs no
    reduction mod n.  With the keys (2n - 1) x1 + x2 of x and of y, that
    index is key(x) - key(y) + 2n(n - 1).  The spread kernel holds (2n -
    1)^2 c^2 entries, about four times the kernel.  The block is gathered
    from it straight into the output, in row strips of about 1 MiB and of
    at most an eighth of the rows, through one reused buffer of integer
    indices, one per entry of a strip.  For c = 2 a strip of the output is
    a strided view, which take fills through a buffer of the strip's size,
    at most an eighth of the block.
    """
    c = kernel.shape[-1]
    wrap = np.arange(1 - n, n) % n  # d mod n for d = 1 - n, ..., n - 1
    spread = np.take(kernel, (n * wrap[:, None] + wrap).ravel(), axis=0)
    row_keys = (2 * n - 1) * (rows // n) + rows % n + 2 * n * (n - 1)
    col_keys = (2 * n - 1) * (cols // n) + cols % n
    out = np.empty((c * len(rows), c * len(cols)), dtype=complex)
    out4 = out.reshape(len(rows), c, len(cols), c)
    strip = max(1, min(_STRIP_BYTES // (16 * c * c * max(len(cols), 1)), len(rows) // 8))
    indices = np.empty((min(strip, len(rows)), len(cols)), dtype=np.intp)
    for r0 in range(0, len(rows), strip):
        r1 = min(r0 + strip, len(rows))
        index = np.subtract.outer(row_keys[r0:r1], col_keys, out=indices[:r1 - r0])
        part = out4[r0:r1].swapaxes(1, 2)
        # mode="wrap" lets take fill a contiguous view (c = 1) in place,
        # where "raise" would copy; the indices are in range anyway
        np.take(spread, index, axis=0, out=part, mode="wrap")
        if left is not None:
            part *= left[r0:r1, None, :, None] * right[None, :, None, :]
    return out


def _weights(op: LinearOperatorHandle, nodes: np.ndarray,
             component: int | None = None) -> np.ndarray | None:
    """The handle's weight on nodes as _dense_block takes it: a column per
    component it has, or only component's; None for no weight."""
    if op.weight is None:
        return None
    w = np.reshape(op.weight, (-1, op.grid.n_points ** 2))[:, nodes].T
    return w if component is None or w.shape[1] == 1 else w[:, component:component + 1]


def assemble_dense(op: LinearOperatorHandle, cap: int = DENSE_CAP) -> np.ndarray:
    """Dense matrix of the handle in the node-major basis.

    Entry [(x, a), (y, b)] sits at row 2*(n*x1 + x2) + a and column
    2*(n*y1 + y2) + b: the two components of a node are adjacent, as in
    every two-component block (_dense_block).  Fields are component-major
    instead (apply_array): the node-major vector of a field f of shape
    (2, n, n) is np.moveaxis(f, 0, -1).ravel(), and for the flattened field
    the matrix is A[p][:, p] with p = np.arange(dim).reshape(-1, 2).T.ravel().
    It is gathered from the handle's cached Hermitian kernel and scaled by
    W on both sides, so it is exactly Hermitian.  The dimension cap is
    checked before anything is allocated.  With a node set the matrix is
    the (nodes, nodes) block, the same gather on the kept nodes only.
    """
    if op.dimension > cap:
        raise DenseCapExceededError(
            f"dimension {op.dimension} exceeds the dense-assembly cap {cap}")
    nodes = np.arange(op.grid.n_points ** 2) if op.nodes is None else op.nodes
    weight = _weights(op, nodes)
    return _dense_block(op.grid.n_points, nodes, nodes, op.kernel, weight, weight)


def restricted_block(op: LinearOperatorHandle, rows: np.ndarray, cols: np.ndarray,
                     component: tuple[int, int] | None = None) -> np.ndarray:
    """Dense block of the operator between two node lists, a fresh C-ordered array.

    rows and cols are 1-D arrays of flat node indices n*x1 + x2 of the
    grid, in any order, such as np.flatnonzero of a node mask.  The block is
    the np.ix_ sub-matrix of the whole-grid assemble_dense(op), whatever
    op's node set, on those nodes, in that order (both components of
    each), or with component = (a, b) its slice [a::2, b::2],
    spinor component a against b.  It is gathered from the handle's cached
    kernel without building the full matrix.  Between equal node lists the
    (b, a) block is exactly the conjugate transpose of the (a, b) block.
    An operator P_row A P_col with different sharp indicator projections on
    the two sides (a crossterm zone piece) appears only in this form: its
    nonzero singular values coincide with those of this block, and for
    equal node sets the nonzero eigenvalues of P A P with those of the
    block.
    """
    nodes = op.grid.n_points ** 2
    rows, cols = np.asarray(rows), np.asarray(cols)
    for index in (rows, cols):
        if index.ndim != 1 or index.dtype.kind not in "iu" or (
                index.size and not (index.min() >= 0 and index.max() < nodes)):
            raise ValueError(f"node lists must be 1-D integer arrays of flat node "
                             f"indices in [0, {nodes}), got shape {index.shape} of "
                             f"{index.dtype}")
    kernel = op.kernel
    a, b = (None, None) if component is None else component
    if component is not None:
        kernel = np.ascontiguousarray(kernel[:, a:a + 1, b:b + 1])
    return _dense_block(op.grid.n_points, rows, cols, kernel, _weights(op, rows, a),
                        _weights(op, cols, b))
