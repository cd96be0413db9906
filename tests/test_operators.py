import dataclasses

import numpy as np
import pytest
import scipy.fft

from gapcount import (
    BoxSpec,
    DenseCapExceededError,
    Gaussian,
    LocalizationSpec,
    ModelParams,
    PowerDecay,
    assemble_dense,
    birman_schwinger,
    build_grid,
    free_operator,
    resolvent,
    restricted_block,
    zone_masks,
)
from gapcount.flow import crossing_operator
from gapcount.operators import (LinearOperatorHandle, box_mask, check_hermitian,
                                sqrt_potential_on_grid)
from gapcount.symbol import dirac_symbol, symbol_eigenvalues
from oracles import box_localized_resolvent, dense_by_columns

GRID = build_grid(12, 9.0)
PARAMS = ModelParams(1.0, 0.3)
GAUSS = Gaussian(4.0, 1.0)


def _rand(grid, seed):
    """Gaussian random spinor field of shape (2, n, n), a probe vector."""
    rng = np.random.default_rng(seed)
    shape = (2, grid.n_points, grid.n_points)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_free_operator_zero_mode():
    op = free_operator(GRID, ModelParams(1.0, 0.0))
    values = np.zeros((2, 12, 12), dtype=complex)
    values[0] = 1.0
    values[1] = 0.5
    out = op.apply_array(values)
    # xi = 0 symbol is diag(m, -m)
    assert np.abs(out[0] - 1.0).max() < 1e-12
    assert np.abs(out[1] + 0.5).max() < 1e-12


def test_free_operator_plane_wave_eigenfields():
    op = free_operator(GRID, PARAMS)
    x1, x2 = GRID.position_mesh()
    rng = np.random.default_rng(2)
    for _ in range(10):
        k1 = rng.integers(-6, 6)
        k2 = rng.integers(-6, 6)
        xi = (GRID.momenta[k1], GRID.momenta[k2])
        wave = np.exp(1j * (xi[0] * x1 + xi[1] * x2))
        evals, evecs = np.linalg.eigh(dirac_symbol(xi, PARAMS))
        for which in (0, 1):
            spinor = evecs[:, which]
            field = spinor[:, None, None] * wave
            out = op.apply_array(field)
            expected = evals[which] * field
            assert np.abs(out - expected).max() < 1e-10 * max(abs(evals[which]), 1.0)


def test_free_operator_hermiticity_probes():
    op = free_operator(GRID, PARAMS)
    for seed in range(20):
        f = _rand(GRID, seed)
        g = _rand(GRID, 100 + seed)
        lhs = np.vdot(f, op.apply_array(g))
        rhs = np.conj(np.vdot(g, op.apply_array(f)))
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)


def test_resolvent_inverts_shifted_operator():
    op = free_operator(GRID, PARAMS)
    res = resolvent(GRID, PARAMS)
    for seed in range(50):
        f = _rand(GRID, seed)
        shifted = op.apply_array(f) - PARAMS.gap_point * f
        back = res.apply_array(shifted)
        assert np.abs(back - f).max() < 1e-10 * np.abs(f).max()


def test_resolvent_zero_mode_components():
    res = resolvent(GRID, ModelParams(1.0, 0.0))
    values = np.zeros((2, 12, 12), dtype=complex)
    values[0] = 2.0
    values[1] = 3.0
    out = res.apply_array(values)
    assert np.abs(out[0] - 2.0).max() < 1e-12
    assert np.abs(out[1] + 3.0).max() < 1e-12


def test_resolvent_norm_is_inverse_gap_distance():
    norm = np.linalg.norm(assemble_dense(resolvent(GRID, PARAMS)), 2)
    # xi = 0 is on the momentum grid, so the sup of the symbol norm is attained
    assert norm == pytest.approx(1.0 / PARAMS.gap_distance, rel=1e-12)


def test_birman_schwinger_zero_potential():
    op = birman_schwinger(GRID, PARAMS, Gaussian(0.0, 1.0))
    f = _rand(GRID, 0)
    assert np.abs(op.apply_array(f)).max() == 0.0


def test_birman_schwinger_hermiticity_and_dense_oracle():
    op = birman_schwinger(GRID, PARAMS, GAUSS)
    for seed in range(10):
        f = _rand(GRID, seed)
        g = _rand(GRID, 50 + seed)
        lhs = np.vdot(f, op.apply_array(g))
        rhs = np.conj(np.vdot(g, op.apply_array(f)))
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)
    dense = assemble_dense(op)
    evals, evecs = np.linalg.eigh(dense)
    # Rayleigh quotients of the handle on dense eigenvectors reproduce eigenvalues
    for k in (0, len(evals) // 2, len(evals) - 1):
        # the dense matrix is node-major, the field component-major
        v = np.moveaxis(evecs[:, k].reshape(12, 12, 2), -1, 0)
        applied = op.apply_array(v)
        rq = np.vdot(v, applied).real
        assert abs(rq - evals[k]) < 1e-8 * max(abs(evals).max(), 1.0)


# ---------------------------------------------------------------------------
# localized pieces
# ---------------------------------------------------------------------------

def _loc(alpha=4.0):
    return LocalizationSpec(eps1=0.3, eps2=0.8, coupling=alpha, decay_exponent=1.0)


def test_zone_masks_partition():
    loc = _loc()
    masks = zone_masks(GRID, loc)
    total = sum(m.astype(int) for m in masks)
    assert np.all(total == 1)


def test_outer_piece_norm_bound():
    # the (3, 3) piece W_3 R W_3 is the sandwich with the zone-3 part of sqrt(V)
    spec = PowerDecay(1.0, 2.0)
    masks = zone_masks(GRID, _loc())
    w3 = np.where(masks[2], sqrt_potential_on_grid(GRID, spec), 0.0)
    piece = LinearOperatorHandle(GRID, resolvent(GRID, PARAMS).mult, weight=w3)
    x1, x2 = GRID.position_mesh()
    v = np.where(masks[2], 2.0 * (1.0 + x1 ** 2 + x2 ** 2) ** -0.5, 0.0)
    bound = v.max() / PARAMS.gap_distance
    norm = np.linalg.norm(assemble_dense(piece), 2)
    assert 0.0 < norm <= bound * (1.0 + 1e-12)


def test_zone_blocks_of_birman_schwinger_are_exact_adjoints():
    # the crossterm study counts the (i, j) block once for rows (i, j) and (j, i)
    op = birman_schwinger(GRID, PARAMS, PowerDecay(1.0, 2.0))
    masks = [np.flatnonzero(mask) for mask in zone_masks(GRID, _loc())]
    for i, j in ((1, 2), (1, 3), (2, 3)):
        block = restricted_block(op, masks[i - 1], masks[j - 1])
        assert block.size > 0
        assert np.array_equal(restricted_block(op, masks[j - 1], masks[i - 1]),
                              block.conj().T)


# ---------------------------------------------------------------------------
# box-localized resolvent
# ---------------------------------------------------------------------------

def test_box_covering_no_node_gives_zero_operator():
    grid = build_grid(12, 12.0)
    # tiny box strictly between two grid nodes (spacing 1, nodes at integers)
    box = BoxSpec(corner=(0.3, 0.3), side=0.4, scale=1.0)
    op = box_localized_resolvent(grid, ModelParams(1.0, 0.0), box)
    f = _rand(grid, 1)
    assert np.abs(op.apply_array(f)).max() == 0.0


def test_box_hermiticity_probe():
    grid = build_grid(12, 12.0)
    box = BoxSpec(corner=(0.0, 0.0), side=1.0, scale=3.0)
    op = box_localized_resolvent(grid, ModelParams(1.0, 0.0), box)
    for seed in range(5):
        f = _rand(grid, seed)
        g = _rand(grid, 30 + seed)
        lhs = np.vdot(f, op.apply_array(g))
        rhs = np.conj(np.vdot(g, op.apply_array(f)))
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)


def test_box_leaving_grid_rejected():
    grid = build_grid(12, 12.0)
    with pytest.raises(ValueError, match="leaves the grid"):
        box_localized_resolvent(grid, PARAMS, BoxSpec((0.0, 0.0), 1.0, 7.0))


def test_restricted_block_matches_dense_assembly():
    grid = build_grid(10, 10.0)
    params = ModelParams(1.0, 0.0)
    box = BoxSpec(corner=(0.0, 0.0), side=1.0, scale=3.0)
    op = box_localized_resolvent(grid, params, box)
    dense = assemble_dense(op)
    full_eigs = np.sort(np.linalg.eigvalsh(dense))
    mask = np.flatnonzero(box_mask(grid, box))
    block = restricted_block(resolvent(grid, params), mask, mask)
    block = 0.5 * (block + block.conj().T)
    block_eigs = np.sort(np.linalg.eigvalsh(block))
    # nonzero spectrum of the full operator equals the block spectrum
    nonzero = full_eigs[np.abs(full_eigs) > 1e-12]
    matched = block_eigs[np.abs(block_eigs) > 1e-12]
    assert len(nonzero) == len(matched)
    assert np.abs(nonzero - matched).max() < 1e-10


# ---------------------------------------------------------------------------
# dense assembly
# ---------------------------------------------------------------------------

def test_assemble_zero_operator():
    op = birman_schwinger(GRID, PARAMS, Gaussian(0.0, 1.0))
    assert np.abs(assemble_dense(op)).max() == 0.0


def test_assemble_free_operator_spectrum_matches_symbol():
    grid = build_grid(8, 5.0)
    params = ModelParams(0.8, 0.0)
    dense = assemble_dense(free_operator(grid, params))
    eigs = np.sort(np.linalg.eigvalsh(dense))
    xi1, xi2 = grid.momentum_mesh()
    law = symbol_eigenvalues(np.stack([xi1, xi2], axis=-1), params)
    expected = np.sort(law.reshape(-1))
    assert np.abs(eigs - expected).max() < 1e-10


def test_assemble_birman_schwinger_real_spectrum():
    dense = assemble_dense(birman_schwinger(GRID, PARAMS, GAUSS))
    eigs = np.linalg.eigvals(dense)
    assert np.abs(eigs.imag).max() < 1e-10


def test_dense_cap_enforced():
    grid = build_grid(24, 10.0)  # dimension 1152
    with pytest.raises(DenseCapExceededError):
        assemble_dense(free_operator(grid, PARAMS), cap=1000)


def test_spectral_gap_empty_at_zero_coupling():
    grid = build_grid(10, 7.0)
    for m in (0.5, 1.0):
        dense = assemble_dense(free_operator(grid, ModelParams(m, 0.0)))
        eigs = np.linalg.eigvalsh(dense)
        assert np.abs(eigs).min() >= m - 1e-12


def test_quadratic_form_invariant_under_symbol_sign_flip():
    # conjugation by diag(1, -1) commutes with pointwise multipliers, so
    # <f, X f> is unchanged when both off-diagonal symbol signs flip
    from gapcount.operators import _multiplier_on_grid
    from gapcount.symbol import resolvent_symbol

    mult = _multiplier_on_grid(GRID, resolvent_symbol, PARAMS)
    flipped = mult.copy()
    flipped[0, 1] *= -1.0
    flipped[1, 0] *= -1.0
    w = sqrt_potential_on_grid(GRID, GAUSS)
    x_std = LinearOperatorHandle(GRID, mult, weight=w)
    x_flip = LinearOperatorHandle(GRID, flipped, weight=w)
    for seed in range(5):
        f = _rand(GRID, seed)
        conj = f.copy()
        conj[1] *= -1.0
        a = np.vdot(f, x_std.apply_array(f))
        b = np.vdot(conj, x_flip.apply_array(conj))
        assert abs(a - b) < 1e-10 * max(abs(a), 1.0)

# ---------------------------------------------------------------------------
# dense blocks gathered from the kernel against the identity-column oracle
# ---------------------------------------------------------------------------

_HANDLES = {
    "free": lambda grid, spec: free_operator(grid, PARAMS),
    "resolvent": lambda grid, spec: resolvent(grid, PARAMS),
    "birman_schwinger": lambda grid, spec: birman_schwinger(grid, PARAMS, spec),
    "box": lambda grid, spec: box_localized_resolvent(
        grid, PARAMS, BoxSpec(corner=(-0.5, 0.0), side=1.0, scale=2.0)),
    # one weight per spinor component
    "crossing": lambda grid, spec: crossing_operator(grid, PARAMS, spec, 3.0),
}
_POTENTIALS = {
    "gaussian": GAUSS,
    "gaussian-off-center": Gaussian(4.0, 1.0, center=(1.3, -0.6)),
    "powerdecay": PowerDecay(1.0, 2.0),
}


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("potential", sorted(_POTENTIALS))
@pytest.mark.parametrize("handle", sorted(_HANDLES))
def test_dense_block_matches_column_oracle(handle, potential, n):
    grid = build_grid(n, 9.0)
    op = _HANDLES[handle](grid, _POTENTIALS[potential])
    dense = assemble_dense(op)
    oracle = dense_by_columns(op)
    assert np.abs(dense - oracle).max() <= 1e-13 * np.abs(oracle).max()
    assert check_hermitian(dense) == 0.0
    rng = np.random.default_rng(n)
    row_mask = rng.random((n, n)) < 0.4
    col_mask = rng.random((n, n)) < 0.6
    assert np.any(row_mask != col_mask)
    rows = np.flatnonzero(np.repeat(row_mask.ravel(), 2))
    cols = np.flatnonzero(np.repeat(col_mask.ravel(), 2))
    block = restricted_block(op, np.flatnonzero(row_mask), np.flatnonzero(col_mask))
    assert np.array_equal(block, dense[np.ix_(rows, cols)])
    # nodes in any order give the block in that order
    row_nodes = rng.permutation(np.flatnonzero(row_mask))
    col_nodes = rng.permutation(np.flatnonzero(col_mask))
    rows = np.stack([2 * row_nodes, 2 * row_nodes + 1], axis=1).ravel()
    cols = np.stack([2 * col_nodes, 2 * col_nodes + 1], axis=1).ravel()
    assert np.array_equal(restricted_block(op, row_nodes, col_nodes), dense[np.ix_(rows, cols)])


def _node_major_apply(op, values):
    """The FFT apply on node-major fields (..., n, n, 2), each multiplier
    entry read across the component axis: the reference for the layout."""
    w = None if op.weight is None else op.weight[..., None]
    ghat = scipy.fft.fft2(values if w is None else values * w, axes=(-3, -2), norm="ortho")
    m = np.moveaxis(op.mult, (0, 1), (2, 3))
    prod = np.empty_like(ghat)
    prod[..., 0] = m[..., 0, 0] * ghat[..., 0] + m[..., 0, 1] * ghat[..., 1]
    prod[..., 1] = m[..., 1, 0] * ghat[..., 0] + m[..., 1, 1] * ghat[..., 1]
    out = scipy.fft.ifft2(prod, axes=(-3, -2), norm="ortho")
    return out if w is None else out * w


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("handle", ["resolvent", "birman_schwinger", "box"])
def test_apply_array_matches_gathered_dense(handle, n):
    # the gather builds the dense matrix without apply_array, unlike the
    # column oracle, so this checks the FFT apply against an independent path
    grid = build_grid(n, 9.0)
    op = _HANDLES[handle](grid, _POTENTIALS["gaussian-off-center"])
    rng = np.random.default_rng(n)
    shape = (3, 2, n, n)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = op.apply_array(v)
    assert got.shape == shape
    # component-major planes give the node-major apply bit for bit
    assert np.array_equal(np.moveaxis(got, 1, -1), _node_major_apply(op, np.moveaxis(v, 1, -1)))
    # a flattened field is the same vector
    flat = got.reshape(3, -1)
    assert np.array_equal(op.apply_array(v.reshape(3, -1)), flat)
    # dense blocks are node-major: on flattened fields the matrix is A[p][:, p]
    p = np.arange(op.dimension).reshape(-1, 2).T.ravel()
    expected = v.reshape(3, -1) @ assemble_dense(op)[np.ix_(p, p)].T
    assert np.abs(flat - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("handle", ["resolvent", "birman_schwinger", "crossing"])
def test_component_blocks_are_slices_of_the_restricted_block(handle):
    op = _HANDLES[handle](GRID, GAUSS)
    mask = np.flatnonzero(box_mask(GRID, BoxSpec((-0.4, -0.2), 1.0, 3.0)))
    block = restricted_block(op, mask, mask)
    for a in (0, 1):
        for b in (0, 1):
            part = restricted_block(op, mask, mask, (a, b))
            assert part.flags.c_contiguous
            assert np.array_equal(part, block[a::2, b::2])
        assert check_hermitian(restricted_block(op, mask, mask, (a, a))) == 0.0
    assert np.array_equal(restricted_block(op, mask, mask, (1, 0)),
                          restricted_block(op, mask, mask, (0, 1)).conj().T)


def _on_random_nodes(handle, seed):
    """A handle of _HANDLES on GRID and GAUSS, with a random half of the nodes."""
    full = _HANDLES[handle](GRID, GAUSS)
    rng = np.random.default_rng(seed)
    return full, dataclasses.replace(
        full, nodes=np.flatnonzero(rng.random(GRID.n_points ** 2) < 0.5))


@pytest.mark.parametrize("handle", ["resolvent", "birman_schwinger", "crossing"])
def test_support_apply_is_the_full_apply_restricted_to_the_nodes(handle):
    full, op = _on_random_nodes(handle, 7)
    n, kept = GRID.n_points, len(op.nodes)
    assert op.dimension == 2 * kept < full.dimension
    rng = np.random.default_rng(8)
    v = rng.standard_normal((3, 2, kept)) + 1j * rng.standard_normal((3, 2, kept))
    field = np.zeros((3, 2, n * n), dtype=complex)
    field[:, :, op.nodes] = v
    expected = full.apply_array(field.reshape(3, 2, n, n)).reshape(3, 2, n * n)
    got = op.apply_array(v)
    assert got.shape == v.shape
    assert np.array_equal(got, expected[:, :, op.nodes])
    assert np.array_equal(op.apply_array(v.reshape(3, -1)), got.reshape(3, -1))


@pytest.mark.parametrize("handle", ["resolvent", "birman_schwinger", "crossing"])
def test_support_dense_matrix_is_the_nodes_block_of_the_full_one(handle):
    full, op = _on_random_nodes(handle, 9)
    rows = np.stack([2 * op.nodes, 2 * op.nodes + 1], axis=1).ravel()
    dense = assemble_dense(op)
    assert dense.shape == (op.dimension, op.dimension)
    assert np.array_equal(dense, assemble_dense(full)[np.ix_(rows, rows)])


def test_restricted_block_rejects_mask_of_wrong_shape():
    op = resolvent(GRID, PARAMS)
    mask = np.ones((12, 12), dtype=bool)
    with pytest.raises(ValueError, match="shape"):
        restricted_block(op, np.flatnonzero(mask), np.ones((10, 10), dtype=bool))
    # a mask of the grid's shape is not a node list either, nor is an index
    # beyond the grid
    with pytest.raises(ValueError, match="shape"):
        restricted_block(op, mask, mask)
    with pytest.raises(ValueError, match="flat node indices"):
        restricted_block(op, np.flatnonzero(mask), np.array([0, 144]))


def test_assemble_dense_peak_memory_within_one_and_a_half_matrices():
    import tracemalloc

    grid = build_grid(32, 24.0)  # dimension 2048, a 64 MiB matrix
    op = birman_schwinger(grid, PARAMS, GAUSS)
    tracemalloc.start()
    try:
        dense = assemble_dense(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dense.shape == (2048, 2048)
    assert peak <= 1.5 * 16 * op.dimension ** 2


def test_hermitian_promise_is_checked_on_the_kernel():
    mult = resolvent(GRID, PARAMS).mult.copy()
    mult[0, 1] += 0.1  # breaks mult == mult^H mode by mode
    w = np.linspace(0.5, 1.5, GRID.n_points ** 2).reshape(GRID.n_points, -1)
    mask = np.arange(w.size)
    # every kernel is checked, with or without a weight
    with pytest.raises(ValueError, match="non-Hermitian multiplier"):
        assemble_dense(LinearOperatorHandle(GRID, mult))
    with pytest.raises(ValueError, match="non-Hermitian multiplier"):
        restricted_block(LinearOperatorHandle(GRID, mult, weight=w), mask, mask)
    # a Hermitian multiplier between two copies of any real weight is an
    # exactly Hermitian sandwich
    good = LinearOperatorHandle(GRID, resolvent(GRID, PARAMS).mult, weight=w)
    assert check_hermitian(assemble_dense(good)) == 0.0
