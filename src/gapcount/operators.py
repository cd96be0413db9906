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
scaled by left[x] * right[y], plus the diagonal.  The same gather builds
the Schur complement of the perturbed operator onto one spinor component
(schur_complement): in the Fourier basis its node diagonals are circulant,
with kernels from one FFT of the node fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import GridSpec, forward_array, inverse_array
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


def free_operator(grid: GridSpec, params: ModelParams) -> LinearOperatorHandle:
    """The unperturbed operator, diagonal on the momentum lattice."""
    mult = _multiplier_on_grid(grid, dirac_symbol, params)
    return LinearOperatorHandle(grid, mult, True, "free")


def resolvent(grid: GridSpec, params: ModelParams) -> LinearOperatorHandle:
    """(free - lambda)^{-1}; requires |lambda| < m (enforced by ModelParams)."""
    mult = _multiplier_on_grid(grid, resolvent_symbol, params)
    return LinearOperatorHandle(grid, mult, True, "resolvent")


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
    return LinearOperatorHandle(grid, resolvent(grid, params).mult, True,
                                "birman_schwinger", left=w, right=w)


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
    return LinearOperatorHandle(grid, resolvent(grid, params).mult, i == j,
                                f"piece({i},{j})", left=wi, right=wj)


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


def box_localized_resolvent(grid: GridSpec, params: ModelParams,
                            box: BoxSpec) -> LinearOperatorHandle:
    """phi (free - lambda)^{-1} phi with phi the indicator of beta*Q."""
    check_box_fits(grid, box)
    phi = box_mask(grid, box).astype(float)
    return LinearOperatorHandle(grid, resolvent(grid, params).mult, True,
                                f"box(beta={box.scale})", left=phi, right=phi)


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
        mirror = _mirror(k)
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


def _mirror(k: np.ndarray) -> np.ndarray:
    """conj(k_ba(-d)) of a kernel of shape (n, n, c, c); -d is taken mod n."""
    neg = -np.arange(k.shape[0]) % k.shape[0]
    return k[neg][:, neg].conj().swapaxes(-1, -2)


def _same_weights(left: np.ndarray | None, right: np.ndarray | None) -> bool:
    if left is None or right is None:
        return left is None and right is None
    return left is right or np.array_equal(left, right)


def _dense_block(n: int, rows: np.ndarray, cols: np.ndarray, terms,
                 diagonal: np.ndarray | None = None) -> np.ndarray:
    """Dense block sum_t left_t[x] k_t(x - y) right_t[y] (+ diagonal).

    x runs over rows and y over cols, two increasing lists of flat indices
    into an n x n torus lattice (nodes, or modes in FFT order); x - y is
    taken mod n per axis.  Each term is (kernel, left, right): kernel has
    shape (n*n, c, c), indexed by the flat offset, and left and right are
    weights over the lattice, or None for ones.  Row c*r + a and column
    c*s + b hold component [a, b] of the entry [rows[r], cols[s]].  The
    block is gathered from the kernels straight into the output, in row
    strips of about 1 MiB so the index temporaries stay small; diagonal is
    added to every component where a row index is a column index.
    """
    c = terms[0][0].shape[-1]
    ri, rj = np.divmod(rows, n)
    ci, cj = np.divmod(cols, n)
    weights = []
    for _, left, right in terms:
        if left is None and right is None:
            weights.append(None)
            continue
        ones = np.ones(n * n)
        weights.append(((ones if left is None else np.ravel(left))[rows],
                        (ones if right is None else np.ravel(right))[cols]))
    out = np.empty((c * len(rows), c * len(cols)), dtype=complex)
    out4 = out.reshape(len(rows), c, len(cols), c)
    strip = max(1, _STRIP_BYTES // (16 * c * c * max(len(cols), 1)))
    for r0 in range(0, len(rows), strip):
        r1 = min(r0 + strip, len(rows))
        offset = (ri[r0:r1, None] - ci) % n * n + (rj[r0:r1, None] - cj) % n
        part = out4[r0:r1].swapaxes(1, 2)
        for t, ((kernel, _, _), w) in enumerate(zip(terms, weights)):
            # mode="wrap" lets take fill the strided view without a buffer;
            # the offsets are in range anyway
            gathered = np.take(kernel, offset, axis=0, out=part if t == 0 else None,
                               mode="wrap")
            if w is not None:
                gathered *= _outer(w[0][r0:r1], w[1])[:, :, None, None]
            if t > 0:
                part += gathered
    if diagonal is not None:
        nodes, r, s = np.intersect1d(rows, cols, assume_unique=True,
                                     return_indices=True)
        d = np.ravel(diagonal)[nodes]
        for a in range(c):
            out4[r, a, s, a] += d
    return out


def _outer(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left[x] * right[y], exactly conjugated by swapping x and y if right = conj(left).

    Real weights (or left == right real) give a symmetric product anyway.
    A complex product is formed from its real and imaginary parts by
    separate real operations: a fused multiply-add would round
    left[x] * right[y] and left[y] * right[x] differently, and the
    gathered block would miss exact Hermiticity by an ulp.
    """
    if not (np.iscomplexobj(left) or np.iscomplexobj(right)):
        return np.multiply.outer(left, right)
    out = np.empty((len(left), len(right)), dtype=complex)
    np.subtract(np.multiply.outer(left.real, right.real),
                np.multiply.outer(left.imag, right.imag), out=out.real)
    np.add(np.multiply.outer(left.real, right.imag),
           np.multiply.outer(left.imag, right.real), out=out.imag)
    return out


def _check_cap(dim: int, cap: int) -> None:
    if dim > cap:
        raise DenseCapExceededError(
            f"dimension {dim} exceeds the dense-assembly cap {cap}"
        )


def assemble_dense(op: LinearOperatorHandle, cap: int = DENSE_CAP) -> np.ndarray:
    """Dense matrix of the handle in the node/component basis.

    Entry [(x, a), (y, b)] sits at row 2*(n*x1 + x2) + a and column
    2*(n*y1 + y2) + b (C-order flattening of the (n, n, 2) array).  It is
    gathered from the convolution kernel (_dense_block), so a hermitian
    handle, whose promise _kernel checks, gives an exactly Hermitian
    matrix.  The dimension cap is checked before anything is allocated.
    """
    _check_cap(op.dimension, cap)
    nodes = np.arange(op.grid.n_points ** 2)
    return _dense_block(op.grid.n_points, nodes, nodes,
                        [(_kernel(op), op.left, op.right)], op.diagonal)


def schur_complement(op: LinearOperatorHandle, shift: float,
                     cap: int = DENSE_CAP) -> np.ndarray:
    """Schur complement of op - shift onto its first spinor component.

    op must be a hermitian handle F^*[[p, b], [conj b, q]]F + diagonal with
    constant p and q and no node weights, as perturbed_operator is
    (p = m, q = -m, diagonal = -t*V).  In component-block order op - shift
    is [[P, B], [B^H, Q]], with P = diag(p + diagonal - shift) and
    Q = diag(q + diagonal - shift) diagonal on the nodes and B = F^* b F.
    Q must be negative definite (ValueError otherwise); then
    S = P - B Q^-1 B^H is an n^2 x n^2 matrix, and by Haynsworth's inertia
    additivity op - shift has n^2 + negative(S) negative, zero(S) zero and
    positive(S) positive eigenvalues.

    S is returned in the unitary Fourier basis, rows and columns indexed by
    the flat FFT-order mode k = n*k1 + k2:
    S[k, k'] = d^(k - k') + b(k) w^(k - k') conj(b(k')), where d^ and w^ are
    fft2 / n^2 of the node fields d = p + diagonal - shift and
    w = -1 / (q + diagonal - shift), from one batched FFT.  Both kernels are
    made Hermitian on the kernel (_kernel does the same), so S is exactly
    Hermitian.  The cap applies to op.dimension, as in assemble_dense, and
    is checked before anything is allocated.
    """
    _check_cap(op.dimension, cap)
    mult = op.mult
    p, q, b = mult[..., 0, 0], mult[..., 1, 1], mult[..., 0, 1]
    if not (op.hermitian and op.left is None and op.right is None
            and np.all(p == p.flat[0]) and np.all(q == q.flat[0])
            and np.array_equal(mult[..., 1, 0], b.conj())):
        raise ValueError(f"handle {op.label!r} is not a hermitian multiplier with "
                         "constant diagonal symbol plus a node diagonal")
    n = op.grid.n_points
    v = np.zeros((n, n)) if op.diagonal is None else op.diagonal
    d = p.flat[0].real + v - shift
    q_nodes = q.flat[0].real + v - shift
    if not q_nodes.max() < 0:
        raise ValueError(
            f"second-component block of {op.label!r} minus {shift:g} is not "
            f"negative definite (largest entry {q_nodes.max():.3e})"
        )
    hats = forward_array(np.stack([d, -1.0 / q_nodes], axis=-1)) / n
    terms = []
    for i, left, right in ((0, None, None), (1, b, b.conj())):
        k = hats[..., i, None, None]
        terms.append(((0.5 * (k + _mirror(k))).reshape(n * n, 1, 1), left, right))
    modes = np.arange(n * n)
    return _dense_block(n, modes, modes, terms)


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
    return _dense_block(op.grid.n_points, np.flatnonzero(row_mask),
                        np.flatnonzero(col_mask), [(_kernel(op), op.left, op.right)],
                        op.diagonal)
