"""Matrix-free discretized operators and their dense blocks.

Every operator here is a Hermitian sandwich W F^*[mult]F W: a Fourier
multiplier (exact on the momentum lattice) between two copies of one real
pointwise position-space weight (sqrt(V) for Birman-Schwinger), the
standard pseudospectral discretization.  Handles apply to raw arrays of
shape (..., n, n, 2) by FFT, so Krylov methods and probes batch over
leading axes.

Dense blocks need no FFT per column.  On the torus the multiplier is a
circulant convolution, so entry [(x, a), (y, b)] of F^*[mult]F is
k_ab(x - y), where k is one inverse FFT of mult (Davis, Circulant
Matrices, 1979).  A dense block between two node sets is a gather from k,
scaled by W[x] * W[y].  The same gather builds the Schur complement of the
perturbed operator free - alpha*V onto one spinor component
(schur_complement): in the Fourier basis its node diagonals are circulant,
with kernels from one FFT of the node fields.  A block of one spinor
component against another between one node set gathers from a component
slice of k (component_gather).
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
    """The Hermitian sandwich W F^*[mult]F W on spinor fields.

    mult is the per-mode 2x2 multiplier, shape (n, n, 2, 2) in FFT order;
    it must be Hermitian mode by mode, which dense assembly checks on the
    convolution kernel (_kernel).  weight is the real node field W of shape
    (n, n), acting on both spinor components on both sides, or None for
    the identity.  The same real weight on both sides makes the operator
    Hermitian whenever mult is.
    """

    grid: GridSpec
    mult: np.ndarray
    weight: np.ndarray | None = None

    @property
    def dimension(self) -> int:
        return self.grid.dimension

    def apply_array(self, values: np.ndarray) -> np.ndarray:
        """The operator on an array of shape (..., n, n, 2), by FFT."""
        w = None if self.weight is None else self.weight[..., None]
        ghat = forward_array(values if w is None else values * w)
        m = self.mult
        prod = np.empty_like(ghat)
        prod[..., 0] = m[..., 0, 0] * ghat[..., 0] + m[..., 0, 1] * ghat[..., 1]
        prod[..., 1] = m[..., 1, 0] * ghat[..., 0] + m[..., 1, 1] * ghat[..., 1]
        out = inverse_array(prod)
        return out if w is None else out * w


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


def _multiplier_on_grid(grid: GridSpec, symbol_fn, params: ModelParams) -> np.ndarray:
    xi1, xi2 = grid.momentum_mesh()
    xi = np.stack([xi1, xi2], axis=-1)
    return symbol_fn(xi, params)


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

    The defect is taken relative to max(max|A_ij|, 1).  Rows are compared
    with the matching columns in strips of about 1 MiB.  Each strip is
    conjugated and transposed into one reused complex buffer, the columns
    are subtracted from it in place, and the moduli go to one reused real
    buffer, which first holds |rows|; so the check allocates those two
    buffers, 1.5 MiB at any dimension, and no dense temporary.  A strip
    whose largest entry is nan or infinite raises ValueError, as a
    non-finite entry would compare as no defect.  The small buffers also
    stay below the allocator's mmap threshold, so freeing them leaves no
    large block cached on the heap.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    dim = a.shape[0]
    strip = max(1, _STRIP_BYTES // (16 * max(dim, 1)))
    # flat, so that every strip, the last and shorter one too, gets a
    # contiguous view in either orientation
    difference = np.empty(min(strip, dim) * dim, dtype=complex)
    modulus = np.empty(min(strip, dim) * dim)
    defect = 0.0
    scale = 1.0
    for r0 in range(0, dim, strip):
        rows = a[r0:r0 + strip]
        size = rows.size
        top = float(np.abs(rows, out=modulus[:size].reshape(rows.shape)).max())
        if not np.isfinite(top):
            raise ValueError("matrix contains non-finite entries")
        scale = max(scale, top)
        # |conj(A[r, c]) - A[c, r]| is the defect |A - A^H| at (r, c)
        d = np.conjugate(rows.T, out=difference[:size].reshape(rows.T.shape))
        np.subtract(d, a[:, r0:r0 + strip], out=d)
        defect = max(defect, float(np.abs(d, out=modulus[:size].reshape(d.shape)).max()))
    if defect > HERMITICITY_TOL * scale:
        raise ValueError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds "
            f"{HERMITICITY_TOL:.0e} relative"
        )
    return defect


def _kernel(op: LinearOperatorHandle) -> np.ndarray:
    """Convolution kernel k[d, a, b] of F^*[mult]F, d the flat node offset.

    Entry [(x, a), (y, b)] of the multiplier is k_ab(x - y) (offsets taken
    mod n per axis), computed by one batched inverse FFT over b.  The
    multiplier must be Hermitian, which is checked on the kernel, as it
    holds every distinct entry of the circulant part: k_ab(d) must equal
    conj(k_ba(-d)) to 1e-9 relative (ValueError otherwise).  k is then
    replaced by (k_ab(d) + conj(k_ba(-d))) / 2, so every block of the
    sandwich W k W gathered between equal node sets is exactly Hermitian
    and needs no O(dim^2) check.
    """
    n = op.grid.n_points
    k = np.moveaxis(inverse_array(np.moveaxis(op.mult, -1, 0)), 0, -1) / n
    mirror = _mirror(k)
    defect = float(np.abs(k - mirror).max())
    if defect > HERMITICITY_TOL * max(float(np.abs(k).max()), 1.0):
        raise ValueError(
            f"non-Hermitian multiplier: kernel defect {defect:.3e} exceeds "
            f"{HERMITICITY_TOL:.0e} relative"
        )
    return (0.5 * (k + mirror)).reshape(n * n, 2, 2)


def _mirror(k: np.ndarray) -> np.ndarray:
    """conj(k_ba(-d)) of a kernel of shape (n, n, c, c); -d is taken mod n."""
    neg = -np.arange(k.shape[0]) % k.shape[0]
    return k[neg][:, neg].conj().swapaxes(-1, -2)


def _dense_block(n: int, rows: np.ndarray, cols: np.ndarray, terms) -> np.ndarray:
    """Dense block sum_t left_t[x] k_t(x - y) right_t[y].

    x runs over rows and y over cols, two increasing lists of flat indices
    into an n x n torus lattice (nodes, or modes in FFT order); x - y is
    taken mod n per axis.  Each term is (kernel, left, right): kernel has
    shape (n*n, c, c), indexed by the flat offset, and left and right are
    weights over the lattice, both None for ones.  A handle's term has
    left = right = W; the Schur complement's has the complex pair
    (b, conj b).  Row c*r + a and column c*s + b hold component [a, b] of
    the entry [rows[r], cols[s]].  The block is gathered from the kernels
    straight into the output, in row strips of about 1 MiB, through one
    reused buffer of integer offsets, one per entry of a strip.
    """
    c = terms[0][0].shape[-1]
    rj, cj = rows % n, cols % n
    weights = [None if left is None else (np.ravel(left)[rows], np.ravel(right)[cols])
               for _, left, right in terms]
    out = np.empty((c * len(rows), c * len(cols)), dtype=complex)
    out4 = out.reshape(len(rows), c, len(cols), c)
    strip = max(1, _STRIP_BYTES // (16 * c * c * max(len(cols), 1)))
    offsets = np.empty((min(strip, len(rows)), len(cols)), dtype=np.intp)
    for r0 in range(0, len(rows), strip):
        r1 = min(r0 + strip, len(rows))
        # the flat x - y, with n added back where the second axis borrowed
        # it from the first, is the offset mod n per axis once taken mod n^2
        offset = np.subtract.outer(rows[r0:r1], cols, out=offsets[:r1 - r0])
        np.add(offset, n, out=offset, where=rj[r0:r1, None] < cj)
        offset %= n * n
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
    return out


def _outer(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left[x] * right[y], exactly conjugated by swapping x and y if right = conj(left).

    Real weights give a symmetric product anyway.
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
    gathered from the Hermitian convolution kernel (_kernel, _dense_block)
    and scaled by W on both sides, so the matrix is exactly Hermitian.  The
    dimension cap is checked before anything is allocated.
    """
    _check_cap(op.dimension, cap)
    nodes = np.arange(op.grid.n_points ** 2)
    return _dense_block(op.grid.n_points, nodes, nodes,
                        [(_kernel(op), op.weight, op.weight)])


def schur_complement(grid: GridSpec, params: ModelParams, diagonal: np.ndarray,
                     shift: float, cap: int = DENSE_CAP) -> np.ndarray:
    """Schur complement of free + diag(diagonal) - shift onto the first component.

    free is the unperturbed operator F^*[[m, b], [conj b, -m]]F of params
    (free_operator) and diagonal a real node field acting on both spinor
    components; the flow passes -alpha*V, so that the operator is
    D(alpha) = free - alpha*V.  In component-block order the operator
    minus shift is [[P, B], [B^H, Q]], with P = diag(m + diagonal - shift) and
    Q = diag(-m + diagonal - shift) diagonal on the nodes and B = F^* b F.
    Q must be negative definite (ValueError otherwise); then
    S = P - B Q^-1 B^H is an n^2 x n^2 matrix, and by Haynsworth's inertia
    additivity the operator minus shift has n^2 + negative(S) negative,
    zero(S) zero and positive(S) positive eigenvalues.

    S is returned in the unitary Fourier basis, rows and columns indexed by
    the flat FFT-order mode k = n*k1 + k2:
    S[k, k'] = d^(k - k') + b(k) w^(k - k') conj(b(k')), where d^ and w^ are
    fft2 / n^2 of the node fields d = m + diagonal - shift and
    w = -1 / (-m + diagonal - shift), from one batched FFT.  Both kernels
    are made Hermitian on the kernel (_kernel does the same), and the
    second term's weights are the complex pair (b, conj b) (_dense_block),
    so S is exactly Hermitian.  The cap applies to grid.dimension, as in
    assemble_dense, and is checked before anything is allocated.
    """
    _check_cap(grid.dimension, cap)
    m = params.mass
    q_nodes = -m + diagonal - shift
    if not q_nodes.max() < 0:
        raise ValueError(
            f"second-component block minus {shift:g} is not negative definite "
            f"(largest entry {q_nodes.max():.3e})"
        )
    d = m + diagonal - shift
    b = _multiplier_on_grid(grid, dirac_symbol, params)[..., 0, 1]
    n = grid.n_points
    hats = forward_array(np.stack([d, -1.0 / q_nodes], axis=-1)) / n
    terms = []
    for i, left, right in ((0, None, None), (1, b, b.conj())):
        k = hats[..., i, None, None]
        terms.append(((0.5 * (k + _mirror(k))).reshape(n * n, 1, 1), left, right))
    modes = np.arange(n * n)
    return _dense_block(n, modes, modes, terms)


def component_gather(op: LinearOperatorHandle):
    """gather(nodes, a, b): the dense block of spinor component a against b.

    nodes is an increasing list of flat node indices.  The block has one
    row and one column per node, and entry [r, s] is component [a, b] of
    the entry [nodes[r], nodes[s]] of assemble_dense(op): W[x] k_ab(x - y)
    W[y].  It is gathered like every dense block (_dense_block), and each
    call returns a fresh complex C-ordered array.  The kernel is computed
    and checked once, here, so a study that gathers many node sets pays for
    it once.  Component blocks with a == b are exactly Hermitian, and the
    (b, a) block is exactly the conjugate transpose of the (a, b) block.
    """
    kernel = _kernel(op)
    n = op.grid.n_points

    def gather(nodes: np.ndarray, a: int, b: int) -> np.ndarray:
        k = np.ascontiguousarray(kernel[:, a:a + 1, b:b + 1])
        return _dense_block(n, nodes, nodes, [(k, op.weight, op.weight)])

    return gather


def restricted_block(op: LinearOperatorHandle, row_mask: np.ndarray,
                     col_mask: np.ndarray) -> np.ndarray:
    """Dense block of the operator between two node sets.

    The block is the np.ix_ sub-matrix of assemble_dense(op) on the masked
    nodes (both components of each), gathered from the convolution kernel
    without building the full matrix.  An operator P_row A P_col with
    different sharp indicator projections on the two sides (a crossterm
    zone piece) appears only in this form: its nonzero singular values
    coincide with those of this block, and for row_mask == col_mask the
    nonzero eigenvalues of P A P with those of the block.
    """
    shape = (op.grid.n_points,) * 2
    if np.shape(row_mask) != shape or np.shape(col_mask) != shape:
        raise ValueError(f"node masks must have shape {shape}")
    return _dense_block(op.grid.n_points, np.flatnonzero(row_mask),
                        np.flatnonzero(col_mask), [(_kernel(op), op.weight, op.weight)])
