import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from gapcount import (
    DiskBump,
    Gaussian,
    ModelParams,
    PowerDecay,
    build_grid,
    birman_schwinger,
    hermitian_eigenvalues,
    inertia,
    iterative_count_above,
)
from gapcount import spectra
from gapcount.flow import crossing_count_detailed, crossing_operator
from gapcount.operators import (
    LinearOperatorHandle,
    assemble_dense,
    check_hermitian,
    free_operator,
    potential_on_grid,
    resolvent,
)
from gapcount.spectra import DEGENERACY_TOL, _column_cap, nested_complements
from gapcount.symbol import symbol_eigenvalues
from oracles import count_above, pivot_inertia, singular_values


def _random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


def _random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def test_hermitian_eigenvalues_small_examples():
    assert hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])) == pytest.approx(
        [3.0, 2.0, 1.0]
    )
    assert hermitian_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]])) == (
        pytest.approx([1.0, -1.0])
    )


def test_hermitian_eigenvalues_free_operator_multiset():
    grid = build_grid(8, 5.0)
    params = ModelParams(1.0, 0.0)
    dense = assemble_dense(free_operator(grid, params))
    result = hermitian_eigenvalues(dense)
    xi1, xi2 = grid.momentum_mesh()
    law = np.sort(symbol_eigenvalues(np.stack([xi1, xi2], axis=-1), params).ravel())
    assert np.all(np.diff(result) <= 0)
    assert np.abs(np.sort(result) - law).max() < 1e-10


def test_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("check", [check_hermitian, hermitian_eigenvalues,
                                   lambda a: inertia(a, 0.5)],
                         ids=["check_hermitian", "hermitian_eigenvalues", "inertia"])
def test_non_finite_entries_are_rejected(check, bad):
    # unchecked, a nan entry compares as no Hermiticity defect, and inertia
    # then counts three eigenvalues of a 4 x 4 matrix
    a = np.eye(4)
    a[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        check(a)


@pytest.mark.parametrize("dim", [512, 1024])
def test_hermiticity_check_allocates_only_its_strip_buffers(dim):
    # a complex strip buffer of at most 1 MiB and a real one of half that,
    # reused for every strip
    a = _random_hermitian(np.random.default_rng(13), dim)
    tracemalloc.start()
    try:
        assert check_hermitian(a) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.8e6


def test_hermiticity_check_buffers_stay_below_the_mmap_threshold():
    # two tile buffers, 64 KiB and 32 KiB, whatever the dimension, and the
    # 64 KiB that numpy's iterator buffers a strided tile in, each below
    # the 128 KiB mmap threshold
    a = _random_hermitian(np.random.default_rng(15), 784)
    tracemalloc.start()
    try:
        assert check_hermitian(a) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 192 * 1024


@pytest.mark.parametrize("where", [(149, 70), (70, 149)], ids=["last-tile-row",
                                                              "last-tile-column"])
@pytest.mark.parametrize("bad", ["defect", np.nan, np.inf], ids=["defect", "nan", "inf"])
def test_hermiticity_check_reaches_the_last_shorter_tile(where, bad):
    # dimension 150: tiles of 64, 64 and 22 rows and columns
    a = _random_hermitian(np.random.default_rng(16), 150)
    r, c = where
    if bad == "defect":
        a[r, c] += 3e-10
        assert check_hermitian(a) == pytest.approx(3e-10, rel=1e-3)
        a[r, c] += 1e-6
        with pytest.raises(ValueError, match="not Hermitian"):
            check_hermitian(a)
    else:
        a[r, c] = bad
        with pytest.raises(ValueError, match="non-finite"):
            check_hermitian(a)


# ---------------------------------------------------------------------------
# Sylvester inertia
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("zero_diagonal", [False, True])
def test_inertia_matches_eigenvalue_count(zero_diagonal):
    # a zero diagonal forces Bunch-Kaufman to take 2x2 pivots
    rng = np.random.default_rng(10)
    for dim in (2, 3, 8, 31, 120):
        a = _random_hermitian(rng, dim)
        if zero_diagonal:
            np.fill_diagonal(a, 0.0)
        ev = np.linalg.eigvalsh(a)
        for shift in (-1.3, -0.2, 0.0, 0.45, 2.0):
            result = inertia(a.copy(), shift)
            assert (result.negative, result.zero, result.positive) == (
                int(np.count_nonzero(ev < shift)), 0, int(np.count_nonzero(ev > shift))
            )
            assert 0.0 <= result.residual <= 1e-8


@pytest.mark.parametrize("diagonal, below, ipiv, expected", [
    # two adjacent 2x2 blocks with the same interchange row, then a 1x1 pivot:
    # determinants -1 (one of each sign) and 5.75 (two of the trace's sign)
    ([0.0, 0.0, 2.0, 3.0, -1.0], {1: 1.0, 3: 0.5}, [-4, -4, -4, -4, 5], (2, 0, 3)),
    # zero determinants: a zero and one of the trace's sign per block
    ([5.0, 1.0, 4.0, -1.0, -4.0], {2: 2.0, 4: 2.0j}, [1, -3, -3, -5, -5], (1, 2, 2)),
], ids=["adjacent-blocks", "zero-determinant"])
def test_pivot_inertia_reads_each_2x2_block(diagonal, below, ipiv, expected):
    # D as zhetrf leaves it: pivots on the diagonal, a 2x2 block's off-diagonal
    # entry D[k + 1, k] below it; the strict upper triangle is never read
    ldu = np.diag(np.asarray(diagonal, dtype=complex))
    for k, value in below.items():
        ldu[k, k - 1] = value
    ldu[np.triu_indices(len(diagonal), 1)] = np.nan
    assert spectra._pivot_inertia(ldu, np.asarray(ipiv)) == expected
    assert pivot_inertia(ldu, ipiv) == expected


def test_pivot_inertia_matches_the_pivot_loop():
    # the vectorized reading against the loop over the pivots, on 1x1, 2x2
    # and mixed pivot sequences; the arithmetic is the same, so the counts
    # must be equal
    rng = np.random.default_rng(11)
    lapack = scipy.linalg.lapack
    two_by_two = 0
    for dim in (1, 2, 5, 31, 120):
        for zero_diagonal in (False, True):
            a = _random_hermitian(rng, dim)
            if zero_diagonal:
                np.fill_diagonal(a, 0.0)
            lwork, _ = lapack.zhetrf_lwork(dim, lower=1)
            ldu, ipiv, _ = lapack.zhetrf(a, lower=1, lwork=int(lwork.real))
            two_by_two += int(np.count_nonzero(ipiv < 0))
            assert spectra._pivot_inertia(ldu, ipiv) == pivot_inertia(ldu, ipiv)
    assert two_by_two > 0


def test_inertia_agrees_with_count_above_on_operator():
    grid = build_grid(12, 12.0)
    dense = assemble_dense(birman_schwinger(grid, ModelParams(1.0, 0.2), Gaussian(4.0, 1.0)))
    spectrum = hermitian_eigenvalues(dense)
    for s in (0.02, 0.1, 0.3, 0.9):
        assert inertia(dense.copy(), s * (1.0 + 1e-12)).positive == count_above(spectrum, s)


def test_inertia_shift_on_an_eigenvalue_reports_zero():
    # exact arithmetic makes the shifted matrix exactly singular
    result = inertia(np.diag([3.0, 1.0, 2.0]), 2.0)
    assert (result.negative, result.zero, result.positive) == (1, 1, 1)
    result = inertia(np.array([[2.0, 1.0], [1.0, 2.0]]), 1.0)
    assert (result.negative, result.zero, result.positive) == (0, 1, 1)
    assert inertia(np.zeros((4, 4)), 0.0).zero == 4


def test_inertia_bracket_factors_at_strict_only_when_needed():
    # eigenvalues 0.1, 0.5, 0.9; each factorization is recorded by its shift
    a = np.diag([0.1, 0.5, 0.9])
    shifts = []

    def factor(shift):
        shifts.append(shift)
        return inertia(a.copy(), shift)

    clean = spectra.inertia_bracket(factor, 0.3 - 1e-10, 0.3 + 1e-10, 0.3)
    assert shifts == [0.3 - 1e-10, 0.3 + 1e-10]
    assert not clean.degenerate and clean.strict == clean.high
    assert (clean.strict.negative, clean.strict.zero, clean.strict.positive) == (1, 0, 2)
    shifts.clear()
    held = spectra.inertia_bracket(factor, 0.5 - 1e-10, 0.5 + 1e-10, 0.5)
    assert shifts == [0.5 - 1e-10, 0.5 + 1e-10, 0.5]
    assert held.degenerate
    assert (held.strict.negative, held.strict.zero, held.strict.positive) == (1, 1, 1)
    assert 0.0 <= held.residual <= 1e-8
    shifts.clear()
    # a strict shift outside the window is factored though the window is free
    outside = spectra.inertia_bracket(factor, 0.6 - 1e-10, 0.6 + 1e-10, 0.8)
    assert shifts == [0.6 - 1e-10, 0.6 + 1e-10, 0.8]
    assert not outside.degenerate and outside.strict.positive == 1


@pytest.mark.parametrize("shape", [(3, 7), (7, 3), (6, 6), (0, 4)])
def test_gram_matrix_is_the_exactly_hermitian_gram_of_the_smaller_side(shape):
    rng = np.random.default_rng(14)
    p = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    g = spectra.gram_matrix(p)
    reference = p @ p.conj().T if shape[0] <= shape[1] else p.conj().T @ p
    assert g.shape == (min(shape),) * 2 and g.flags.c_contiguous
    assert np.abs(g - reference).max(initial=0.0) <= 1e-13 * max(np.abs(reference).max(
        initial=0.0), 1.0)
    assert check_hermitian(g) == 0.0
    # its eigenvalues are the squared singular values
    assert np.allclose(np.sort(np.linalg.eigvalsh(g))[::-1],
                       singular_values(p)[:min(shape)] ** 2, rtol=0, atol=1e-12)


def test_inertia_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        inertia(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5)


def test_inertia_factors_a_complex_matrix_in_place():
    # a copy of the matrix would double the peak; what remains is the
    # Hermiticity check's strip buffers (1.5 MiB whatever the dimension, so
    # 0.09 of this 16 MiB matrix) and the LAPACK workspace (1 MiB)
    a = _random_hermitian(np.random.default_rng(11), 1024)
    ev = np.linalg.eigvalsh(a)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = inertia(a, 0.3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * a.nbytes
    assert (result.negative, result.zero, result.positive) == (
        int(np.count_nonzero(ev < 0.3)), 0, int(np.count_nonzero(ev > 0.3)))
    assert 0.0 <= result.residual <= 1e-8


@pytest.mark.parametrize("form", ["real", "fortran", "transposed"])
def test_inertia_copies_any_other_input(form):
    rng = np.random.default_rng(12)
    if form == "real":
        a = rng.standard_normal((50, 50))
        a = a + a.T
    elif form == "fortran":
        a = np.asfortranarray(_random_hermitian(rng, 50))
    else:
        a = _random_hermitian(rng, 50).T
    before = a.copy()
    ev = np.linalg.eigvalsh(a)
    for shift in (-0.4, 0.0, 0.6):
        result = inertia(a, shift)
        assert (result.negative, result.zero, result.positive) == (
            int(np.count_nonzero(ev < shift)), 0, int(np.count_nonzero(ev > shift)))
    assert np.array_equal(a, before)


def test_a_consumed_matrix_is_rejected_not_miscounted():
    a = _random_hermitian(np.random.default_rng(13), 40)
    before = a.copy()
    inertia(a, 0.1)
    # the factor took the upper triangle; the diagonal is put back
    assert np.array_equal(np.tril(a), np.tril(before))
    assert not np.array_equal(a, before)
    with pytest.raises(ValueError, match="not Hermitian"):
        inertia(a, 0.1)


@pytest.mark.parametrize("singular", [True, False], ids=["singular-pivot", "factored"])
def test_inertia_leaves_the_lower_triangle_and_the_diagonal(singular):
    # the nested box counts read the next complement from these entries
    if singular:
        # 0.5 is an eigenvalue: zhetrf meets an exactly zero pivot
        a, shift = np.diag([1.5, 0.5, 2.5]).astype(complex), 0.5
    else:
        a, shift = _random_hermitian(np.random.default_rng(17), 40), 0.1
    before = a.copy()
    result = inertia(a, shift)
    assert np.isnan(result.residual) == singular
    if singular:
        assert (result.negative, result.zero, result.positive) == (0, 1, 2)
    assert np.array_equal(np.tril(a), np.tril(before))


@pytest.fixture
def blas_pools():
    """Thread counts of the bundled OpenBLAS pools before the test."""
    prior = spectra.blas_threads()
    if not prior:
        pytest.skip("numpy and scipy bundle no OpenBLAS here")
    return prior


def _record_threads_in_zhetrf(monkeypatch):
    """Thread counts read inside every zhetrf call inertia makes."""
    seen = []
    zhetrf = scipy.linalg.lapack.zhetrf

    def recording(*args, **kwargs):
        seen.append(spectra.blas_threads())
        return zhetrf(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "zhetrf", recording)
    return seen


def test_inertia_factors_on_one_thread_and_restores_the_pools(monkeypatch, blas_pools):
    seen = _record_threads_in_zhetrf(monkeypatch)
    a = _random_hermitian(np.random.default_rng(3), 40)
    inertia(a, 0.1)
    assert seen == [{package: 1 for package in blas_pools}]
    assert spectra.blas_threads() == blas_pools


def test_inertia_restores_the_pools_when_it_raises(monkeypatch, blas_pools):
    with pytest.raises(ValueError, match="not Hermitian"):
        inertia(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5)
    assert spectra.blas_threads() == blas_pools
    monkeypatch.setattr(spectra, "INERTIA_RESIDUAL_TOL", -1.0)
    seen = _record_threads_in_zhetrf(monkeypatch)
    with pytest.raises(RuntimeError, match="probe residual"):
        inertia(_random_hermitian(np.random.default_rng(4), 40), 0.1)
    assert seen == [{package: 1 for package in blas_pools}]
    assert spectra.blas_threads() == blas_pools


def test_inertia_above_the_limit_keeps_the_pools(monkeypatch, blas_pools):
    monkeypatch.setattr(spectra, "_SINGLE_THREAD_LIMIT", 39)
    seen = _record_threads_in_zhetrf(monkeypatch)
    inertia(_random_hermitian(np.random.default_rng(5), 40), 0.1)
    assert seen == [blas_pools]
    assert spectra.blas_threads() == blas_pools


def test_inertia_without_a_bundled_openblas(monkeypatch):
    monkeypatch.setattr(spectra, "_blas_pools", lambda: ())
    assert spectra.blas_threads() == {}
    a = _random_hermitian(np.random.default_rng(6), 60)
    ev = np.linalg.eigvalsh(a)
    for shift in (-0.5, 0.0, 0.7):
        result = inertia(a.copy(), shift)
        assert (result.negative, result.zero, result.positive) == (
            int(np.count_nonzero(ev < shift)), 0, int(np.count_nonzero(ev > shift)))


def _two_component(rng, dim):
    """A Hermitian [[A00, A01], [A10, A11]] with A11 <= -0.2, as block(a, b)."""
    a = _random_hermitian(rng, 2 * dim)
    b = _random_matrix(rng, dim)
    a[dim:, dim:] = -0.1 * (b @ b.conj().T) - 0.2 * np.eye(dim)
    return a, lambda i, j: a[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim].copy()


@pytest.mark.parametrize("dim", [1, 7, 300])  # 300: the mirror takes two strips
def test_second_component_elimination_keeps_the_inertia(dim):
    rng = np.random.default_rng(20 + dim)
    a, block = _two_component(rng, dim)
    ev = np.linalg.eigvalsh(a)
    a01, a11 = a[:dim, dim:], a[dim:, dim:]
    for shift in (0.05, 0.3, 1.0):
        s = next(nested_complements(block, [dim], shift))
        expected = a[:dim, :dim] + a01 @ np.linalg.solve(shift * np.eye(dim) - a11, a01.conj().T)
        assert np.abs(s - expected).max() <= 1e-12 * np.abs(expected).max()
        assert check_hermitian(s) == 0.0  # mirrored exactly
        result = inertia(s, shift)
        assert (dim + result.negative, result.zero, result.positive) == (
            int(np.count_nonzero(ev < shift)), 0, int(np.count_nonzero(ev > shift)))


def test_nested_complements_match_a_direct_elimination_of_each_leading_block():
    # an empty leading block, a repeated size, a ring of 74 rows (two
    # panels) and a ring of one row
    dim, shift = 150, 0.3
    rng = np.random.default_rng(30)
    a, block = _two_component(rng, dim)
    sizes = [0, 10, 10, 75, 149, 150]
    complements = []
    for s in nested_complements(block, sizes, shift):
        complements.append(s.copy())
        inertia(s, shift)  # overwrites the upper triangle, as in the box study
    for size, s in zip(sizes, complements[::-1]):
        assert s.shape == (size, size)
        if size == 0:
            continue
        lead = np.r_[0:size, dim:dim + size]
        sub = a[np.ix_(lead, lead)]
        direct = next(nested_complements(
            lambda i, j: sub[i * size:(i + 1) * size, j * size:(j + 1) * size].copy(),
            [size], shift))
        assert np.abs(s - direct).max() <= 1e-13 * np.abs(direct).max()
        assert check_hermitian(s) == 0.0  # mirrored exactly
        ev = np.linalg.eigvalsh(sub)
        result = inertia(s, shift)
        assert (size + result.negative, result.zero, result.positive) == (
            int(np.count_nonzero(ev < shift)), 0, int(np.count_nonzero(ev > shift)))


def test_nested_complements_reject_sizes_that_do_not_rise_to_the_block():
    _, block = _two_component(np.random.default_rng(8), 6)
    for sizes in ([], [3, 5], [4, 3, 6], [-1, 6]):
        with pytest.raises(ValueError, match="sizes must rise"):
            next(nested_complements(block, sizes, 0.3))


def test_second_component_elimination_rejects_an_indefinite_second_block():
    # A11 has the eigenvalue 0.7 above the shift, so shift - A11 is indefinite
    blocks = {(0, 0): np.eye(2), (0, 1): np.zeros((2, 2)), (1, 0): np.zeros((2, 2)),
              (1, 1): np.diag([-1.0, 0.7])}
    with pytest.raises(ValueError, match="second-component block minus 0.5"):
        next(nested_complements(lambda i, j: blocks[i, j].astype(complex), [2], 0.5))


def test_second_component_elimination_runs_on_one_thread(monkeypatch, blas_pools):
    seen = []
    for module, name in ((scipy.linalg.lapack, "zpotrf"), (scipy.linalg.blas, "ztrsm"),
                         (scipy.linalg.blas, "zherk")):
        def recording(*args, _routine=getattr(module, name), **kwargs):
            seen.append(spectra.blas_threads())
            return _routine(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
    _, block = _two_component(np.random.default_rng(7), 40)
    next(nested_complements(block, [40], 0.3))
    assert seen == [{package: 1 for package in blas_pools}] * 3
    assert spectra.blas_threads() == blas_pools


def _record_threads_in_lanczos(monkeypatch, error=None):
    """Thread counts read inside every _block_lanczos run, which raises error
    instead of running when one is given."""
    seen = []
    lanczos = spectra._block_lanczos

    def recording(*args, **kwargs):
        seen.append(spectra.blas_threads())
        if error is not None:
            raise error
        return lanczos(*args, **kwargs)

    monkeypatch.setattr(spectra, "_block_lanczos", recording)
    return seen


def _gaussian_bs():
    """A Birman-Schwinger handle of dimension 288."""
    return birman_schwinger(build_grid(12, 12.0), ModelParams(1.0, 0.0), Gaussian(4.0, 1.0))


@pytest.mark.parametrize("at_limit", [False, True])
def test_krylov_count_on_one_thread_and_restores_the_pools(monkeypatch, blas_pools,
                                                           at_limit):
    op = _gaussian_bs()
    assert op.dimension < spectra._KRYLOV_SINGLE_THREAD_LIMIT
    if at_limit:
        monkeypatch.setattr(spectra, "_KRYLOV_SINGLE_THREAD_LIMIT", op.dimension)
    seen = _record_threads_in_lanczos(monkeypatch)
    result = iterative_count_above(op, [0.1, 0.5])
    assert result.conclusive and result.method == "krylov"
    assert len(seen) >= 1
    assert seen == [{package: 1 for package in blas_pools}] * len(seen)
    assert spectra.blas_threads() == blas_pools


def test_krylov_count_restores_the_pools_when_it_raises(monkeypatch, blas_pools):
    seen = _record_threads_in_lanczos(monkeypatch, RuntimeError("Lanczos failed"))
    with pytest.raises(RuntimeError, match="Lanczos failed"):
        iterative_count_above(_gaussian_bs(), [0.1, 0.5])
    assert seen == [{package: 1 for package in blas_pools}]
    assert spectra.blas_threads() == blas_pools


def test_krylov_count_above_the_limit_keeps_the_pools(monkeypatch, blas_pools):
    op = _gaussian_bs()
    monkeypatch.setattr(spectra, "_KRYLOV_SINGLE_THREAD_LIMIT", op.dimension - 1)
    seen = _record_threads_in_lanczos(monkeypatch)
    result = iterative_count_above(op, [0.1, 0.5])
    assert result.conclusive and result.method == "krylov"
    assert len(seen) >= 1
    assert seen == [blas_pools] * len(seen)
    assert spectra.blas_threads() == blas_pools


def test_singular_values_of_hermitian_are_absolute_eigenvalues():
    rng = np.random.default_rng(0)
    a = _random_hermitian(rng, 15)
    sv = singular_values(a)
    ev = np.abs(np.linalg.eigvalsh(a))
    assert np.abs(sv - np.sort(ev)[::-1]).max() < 1e-10


def test_singular_values_zero_matrix():
    assert np.all(singular_values(np.zeros((4, 7))) == 0.0)


def test_singular_values_square_equals_gram_eigenvalues():
    rng = np.random.default_rng(1)
    a = _random_matrix(rng, 12)
    sv = singular_values(a)
    gram = np.sort(np.linalg.eigvalsh(a.conj().T @ a))[::-1]
    assert np.abs(sv ** 2 - gram).max() < 1e-8 * max(gram.max(), 1.0)


def test_top_singular_value_matches_power_iteration():
    rng = np.random.default_rng(2)
    a = _random_matrix(rng, 20)
    s1 = singular_values(a)[0]
    # power iteration on A*A
    v = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    v /= np.linalg.norm(v)
    for _ in range(2000):
        v = a.conj().T @ (a @ v)
        v /= np.linalg.norm(v)
    estimate = np.sqrt(np.linalg.norm(a.conj().T @ (a @ v)))
    assert abs(estimate - s1) < 1e-6 * s1


def test_count_above_examples():
    assert count_above([0.5, 0.2, 0.1], 0.15) == 2
    assert count_above([], 1.0) == 0
    with pytest.raises(ValueError):
        count_above([1.0], 0.0)
    # strictness at a tie
    assert count_above([1.0], 1.0) == 0


def test_count_partition_of_dimension():
    rng = np.random.default_rng(3)
    for _ in range(20):
        dim = int(rng.integers(5, 30))
        ev = np.sort(np.linalg.eigvalsh(_random_hermitian(rng, dim)))[::-1]
        s = float(rng.uniform(0.1, 2.0))
        n_plus = count_above(ev, s)
        n_minus = count_above(-ev, s)
        middle = int(np.count_nonzero(np.abs(ev) <= s * (1 + 1e-12)))
        assert n_plus + n_minus + middle == dim


# ---------------------------------------------------------------------------
# counting inequalities from the operator-theory toolkit
# ---------------------------------------------------------------------------

def test_ky_fan_subadditivity():
    rng = np.random.default_rng(5)
    grid = np.linspace(0.05, 1.5, 5)
    for _ in range(200):
        dim = int(rng.integers(4, 40))
        t1 = _random_hermitian(rng, dim)
        t2 = _random_hermitian(rng, dim)
        e1 = np.sort(np.linalg.eigvalsh(t1))[::-1]
        e2 = np.sort(np.linalg.eigvalsh(t2))[::-1]
        es = np.sort(np.linalg.eigvalsh(t1 + t2))[::-1]
        for s1 in grid:
            for s2 in grid:
                assert count_above(es, s1 + s2) <= count_above(e1, s1) + count_above(e2, s2)
                assert count_above(-es, s1 + s2) <= (
                    count_above(-e1, s1) + count_above(-e2, s2)
                )


def test_product_rule_for_singular_counts():
    rng = np.random.default_rng(6)
    for _ in range(200):
        dim = int(rng.integers(4, 40))
        t1 = _random_matrix(rng, dim)
        t2 = _random_matrix(rng, dim)
        s1v = singular_values(t1)
        s2v = singular_values(t2)
        s12 = singular_values(t1 @ t2)
        for s1 in (0.5, 1.0, 3.0):
            for s2 in (0.5, 2.0):
                assert count_above(s12, s1 * s2) <= (
                    count_above(s1v, s1) + count_above(s2v, s2)
                )


# ---------------------------------------------------------------------------
# iterative counting
# ---------------------------------------------------------------------------

def test_iterative_count_matches_dense_on_real_operator():
    grid = build_grid(16, 12.0)
    params = ModelParams(1.0, 0.0)
    op = birman_schwinger(grid, params, Gaussian(4.0, 1.0))
    dense = assemble_dense(op)
    spectrum = hermitian_eigenvalues(dense)
    for alpha in (2.0, 5.0, 11.0):
        s = 1.0 / alpha
        expected = count_above(spectrum, s)
        result = iterative_count_above(op, [s])
        assert result.conclusive
        assert result.counts == (expected,)
        assert result.certificate > 0


def test_iterative_count_zero_operator():
    grid = build_grid(8, 4.0)
    op = birman_schwinger(grid, ModelParams(1.0, 0.0), Gaussian(0.0, 1.0))
    result = iterative_count_above(op, [0.5])
    assert result.conclusive
    assert result.counts == (0,)


def test_iterative_count_above_norm_is_zero():
    grid = build_grid(8, 4.0)
    params = ModelParams(1.0, 0.0)
    op = birman_schwinger(grid, params, Gaussian(4.0, 1.0))
    bound = np.linalg.norm(assemble_dense(op), 2)
    result = iterative_count_above(op, [bound * 1.5])
    assert result.conclusive
    assert result.counts == (0,)


# ---------------------------------------------------------------------------
# one Krylov run for several thresholds against the dense spectrum
# ---------------------------------------------------------------------------

_GATE_POTENTIALS = {
    "gaussian": (Gaussian(4.0, 1.0), (2.0, 5.0, 10.0, 20.0)),
    "gaussian-off-center": (Gaussian(4.0, 1.0, (1.5, 0.5)), (2.0, 5.0, 10.0, 20.0)),
    "disk": (DiskBump(3.0, 1.5), (2.0, 5.0, 10.0, 20.0)),
    "disk-margin": (DiskBump(3.0, 1.5, 0.5), (2.0, 5.0, 10.0, 20.0)),
    "powerdecay": (PowerDecay(1.0, 2.0), (1.0, 2.0, 3.0, 4.0)),
    "powerdecay-cos4": (PowerDecay(1.0, 2.0, (0.0, 0.0, 0.0, 0.8)), (1.0, 2.0, 3.0, 4.0)),
}


@pytest.mark.parametrize("n", [12, 16, 24])
@pytest.mark.parametrize("name", sorted(_GATE_POTENTIALS))
def test_krylov_counts_match_dense_for_every_coupling(monkeypatch, name, n):
    import gapcount.spectra as spectra

    spec, alphas = _GATE_POTENTIALS[name]
    grid = build_grid(n, 12.0)
    op = birman_schwinger(grid, ModelParams(1.0, 0.0), spec)
    ev = np.linalg.eigvalsh(assemble_dense(op))
    thresholds = [1.0 / a for a in alphas]
    # the Lanczos basis is every block the run applies the filter to
    applied = []
    apply = spectra._ChebyshevFilter.apply

    def recording(self, op, x):
        applied.append(x.copy())
        return apply(self, op, x)

    monkeypatch.setattr(spectra._ChebyshevFilter, "apply", recording)
    # no column cap: the Krylov run itself is under test, not the fallback
    monkeypatch.setattr(spectra, "_column_cap", lambda dim: dim)
    result = iterative_count_above(op, thresholds)
    assert result.conclusive and result.method == "krylov"
    assert result.block == 2  # no Birman-Schwinger cluster made the run widen
    if name.startswith("powerdecay"):
        assert result.filter_degree > 1
    q = np.concatenate(applied)
    assert len(q) == result.columns
    assert np.abs(q.conj() @ q.T - np.eye(len(q))).max() <= 1e-12
    assert list(result.counts) == [count_above(ev, s) for s in thresholds]
    assert min(result.certificates) >= 1e-8
    for s, cert in zip(thresholds, result.certificates):
        # the certificate is the distance to an eigenvalue resolved by a Ritz value
        assert cert >= np.abs(ev - s).min() - 1e-10


# ---------------------------------------------------------------------------
# counts on the support of W stand for the whole-grid operator
# ---------------------------------------------------------------------------

_SUPPORT_GATE = {
    "gaussian": Gaussian(4.0, 1.0),
    "gaussian-off-center": Gaussian(4.0, 1.0, (1.5, 0.5)),
    "disk-margin": DiskBump(3.0, 1.5, 0.5),
}


@pytest.mark.parametrize("gap_point", [0.0, 0.3])
@pytest.mark.parametrize("n", [12, 24])
@pytest.mark.parametrize("name", sorted(_SUPPORT_GATE))
def test_support_counts_equal_dense_counts_of_the_full_operator(name, n, gap_point):
    spec = _SUPPORT_GATE[name]
    grid, params = build_grid(n, 12.0), ModelParams(1.0, gap_point)
    full = birman_schwinger(grid, params, spec)
    op = spectra.on_support(full)
    assert 0 < len(op.nodes) < n * n
    assert op.support_bound <= 1e-9
    thresholds = [1.0 / a for a in (2.0, 5.0, 10.0, 20.0)]
    result = iterative_count_above(op, thresholds)
    assert result.method == "krylov"
    ev = np.linalg.eigvalsh(assemble_dense(full))
    assert list(result.counts) == [count_above(ev, s) for s in thresholds]
    for alpha in (5.0, 20.0):
        flow = crossing_count_detailed(grid, params, spec, alpha)
        assert flow.method == "krylov" and not flow.degenerate
        assert 0 < flow.support_nodes < n * n and flow.support_bound <= 1e-9
        ev = np.linalg.eigvalsh(assemble_dense(crossing_operator(grid, params, spec, alpha)))
        assert flow.count == count_above(ev, 1.0)


@pytest.mark.parametrize("cap", ["grid", "support"])
def test_threshold_near_a_support_eigenvalue_is_never_miscounted(cap):
    # within eps of a support eigenvalue the support cannot decide the count
    # of the full operator: the Krylov run gives way to the dense path, whose
    # bracket, widened by eps, either recounts on the whole grid or, over
    # the cap, reports the count degenerate
    grid = build_grid(12, 12.0)
    full = birman_schwinger(grid, ModelParams(1.0, 0.0), Gaussian(4.0, 1.0))
    op = spectra.on_support(full)
    eps = op.support_bound
    assert eps > 0
    eigenvalue = np.linalg.eigvalsh(assemble_dense(op))[-3]
    ev = np.linalg.eigvalsh(assemble_dense(full))
    dense_cap = grid.dimension if cap == "grid" else op.dimension
    window = DEGENERACY_TOL if cap == "grid" else DEGENERACY_TOL + eps
    for offset in (-2.0 * eps, -eps, -0.5 * eps, 0.0, 0.5 * eps, eps, 2.0 * eps):
        s = eigenvalue + offset
        result = iterative_count_above(op, [s], dense_cap=dense_cap)
        assert result.method == "dense"
        assert (result.certificate == 0.0) == (abs(offset) <= window)
        if result.certificate > 0.0:
            assert result.counts == (count_above(ev, s),)


def test_threshold_within_the_support_bound_counts_the_whole_grid():
    # the dropped nodes carry eigenvalue 0 of the compression, which a
    # window around a threshold of at most eps + 1e-10 would reach
    grid = build_grid(12, 12.0)
    full = birman_schwinger(grid, ModelParams(1.0, 0.0), Gaussian(4.0, 1.0))
    op = spectra.on_support(full)
    s = 0.5 * op.support_bound
    assert op.nodes is not None and s > 0.0
    assert iterative_count_above(op, [s, 0.25]) == iterative_count_above(full, [s, 0.25])


def test_disk_bump_support_drops_nothing():
    grid, params = build_grid(24, 12.0), ModelParams(1.0, 0.3)
    disk = DiskBump(3.0, 1.5, 0.5)
    for full in (birman_schwinger(grid, params, disk),
                 crossing_operator(grid, params, disk, 10.0)):
        op = spectra.on_support(full)
        assert 0 < len(op.nodes) < grid.n_points ** 2
        assert op.support_bound == 0.0


def test_power_decay_keeps_every_node():
    grid, params = build_grid(24, 12.0), ModelParams(1.0, 0.3)
    decay = PowerDecay(1.0, 2.0)
    for full in (birman_schwinger(grid, params, decay),
                 crossing_operator(grid, params, decay, 4.0)):
        assert spectra.on_support(full) is full
        assert full.nodes is None and full.support_bound == 0.0


@pytest.mark.parametrize("amplitude", [0.0, 1e-30])
def test_empty_support_counts_nothing_and_builds_no_basis(monkeypatch, amplitude):
    op = spectra.on_support(birman_schwinger(build_grid(12, 12.0), ModelParams(1.0, 0.0),
                                             Gaussian(amplitude, 1.0)))
    assert op.dimension == 0 and (op.support_bound > 0.0) == (amplitude > 0.0)

    def refuse(*args):
        raise AssertionError("a Krylov basis for an empty support")

    monkeypatch.setattr(spectra, "_block_lanczos", refuse)
    result = iterative_count_above(op, [0.5, 0.25])
    assert result.conclusive and result.counts == (0, 0) and result.columns == 0
    assert result.certificates == (0.5 - op.support_bound, 0.25 - op.support_bound)


def test_second_gram_schmidt_pass_when_the_first_cancels(monkeypatch):
    # without the recurrence step, the global pass cancels most of each
    # block A x, so the DGKS criterion must ask for the second pass
    import gapcount.spectra as spectra

    spec, alphas = _GATE_POTENTIALS["powerdecay"]
    op = birman_schwinger(build_grid(12, 12.0), ModelParams(1.0, 0.0), spec)
    ev = np.linalg.eigvalsh(assemble_dense(op))
    thresholds = [1.0 / a for a in alphas]
    # per block: Gram-Schmidt calls, whether the first global pass cancelled
    # beyond the DGKS criterion, and the vectors the filter is applied to
    passes, cancelled, applied = [], [], []
    apply = spectra._ChebyshevFilter.apply
    orthogonalize = spectra._orthogonalize

    def recording(self, op, x):
        passes.append(0)
        applied.append(x.copy())
        return apply(self, op, x)

    def without_recurrence(w, q, coefficients):
        passes[-1] += 1
        if passes[-1] == 1:  # the first call of each block is the recurrence
            return
        before = np.linalg.norm(w, axis=1)
        orthogonalize(w, q, coefficients)
        if passes[-1] == 2:
            cancelled.append(bool(np.any(np.linalg.norm(w, axis=1)
                                         < spectra._DGKS * before)))

    monkeypatch.setattr(spectra._ChebyshevFilter, "apply", recording)
    monkeypatch.setattr(spectra, "_orthogonalize", without_recurrence)
    monkeypatch.setattr(spectra, "_column_cap", lambda dim: dim)
    result = iterative_count_above(op, thresholds)
    assert result.method == "krylov" and result.filter_degree > 1
    assert list(result.counts) == [count_above(ev, s) for s in thresholds]
    # with blocks of 2 the first few global passes keep most of the norm;
    # the second pass runs on exactly the blocks whose first one cancelled,
    # and without the recurrence that is most of them
    assert passes == [3 if c else 2 for c in cancelled]
    assert sum(cancelled) > len(cancelled) // 2
    q = np.concatenate(applied)
    assert np.abs(q.conj() @ q.T - np.eye(len(q))).max() <= 1e-12


@pytest.mark.parametrize("spec", [DiskBump(3.0, 1.5), DiskBump(4.0, 2.0, 0.5)],
                         ids=["disk", "disk-margin"])
def test_rank_deficient_operator_certifies_by_exhaustion(spec):
    # W vanishes off the disk, so W R W has rank 2 * (support nodes); block
    # Lanczos must deflate and stop once the basis spans that range plus the
    # start block, instead of running into the column cap
    grid = build_grid(24, 12.0)
    op = birman_schwinger(grid, ModelParams(1.0, 0.0), spec)
    rank = 2 * int(np.count_nonzero(potential_on_grid(grid, spec) > 0))
    result = iterative_count_above(op, [0.5, 0.1, 0.05])
    assert result.method == "krylov" and result.conclusive
    assert result.columns == rank + result.block
    ev = np.linalg.eigvalsh(assemble_dense(op))
    assert list(result.counts) == [count_above(ev, s) for s in (0.5, 0.1, 0.05)]


def test_hidden_multiplicity_widens_the_block():
    # the free resolvent has exact 4-fold eigenvalues at 0.9644, 0.8768 and
    # 0.6738 (four lattice momenta of equal |xi|); a start block of 2 sees two
    # copies of each, so the run must widen past 4 to count them all
    grid = build_grid(24, 12.0)
    op = LinearOperatorHandle(grid, resolvent(grid, ModelParams(1.0, 0.0)).mult)
    thresholds = (0.95, 0.9, 0.6)
    ev = np.linalg.eigvalsh(assemble_dense(op))
    result = iterative_count_above(op, thresholds)
    assert result.conclusive and result.method == "krylov"
    assert result.counts == tuple(count_above(ev, s) for s in thresholds) == (5, 5, 13)
    assert result.block > 4
    # the filter keeps an exact multiplicity exact
    assert result.filter_degree > 1


@pytest.mark.parametrize("degree", [3, 5, 9, 15])
def test_odd_filter_keeps_the_order_above_the_damped_interval(degree):
    # for any b and any s > a, x > s exactly when p(x) > p(s): on [-b, a]
    # |p| <= 1 < p(s), below -b p < -1, and above a p increases
    b = 1.0
    x = np.linspace(-10 * b, 10 * b, 200_001)
    for a in (0.01, 0.2, 0.9):
        filt = spectra._ChebyshevFilter(degree, 0.5 * (a - b), 0.5 * (a + b))
        px = filt(x)
        for s in a * np.array([1.001, np.sqrt(2.0), np.pi, 7.3]):
            # rounding decides the order only within a hair of s
            away = np.abs(x - s) > 1e-9
            assert np.array_equal((px > filt(s))[away], (x > s)[away])
            kept = x >= s
            assert np.allclose(filt.inverse(px[kept]), x[kept], rtol=0, atol=1e-9)
        # a value at most 1 maps back to a, the nearest it can be to s
        assert np.all(filt.inverse(px[x <= a]) == pytest.approx(a))
    # an even degree would count values below -b
    even = spectra._ChebyshevFilter(degree + 1, 0.5 * (0.2 - b), 0.5 * (0.2 + b))
    assert np.any((even(x) > even(0.3)) & (x < -b))


def test_filter_on_too_small_a_norm_bound_still_counts_exactly(monkeypatch):
    # b only sets how fast the run converges: with b = ||A|| / 4 the filter
    # grows again below -b, and the eigenvalues there still count as below s
    spec, alphas = _GATE_POTENTIALS["powerdecay"]
    op = birman_schwinger(build_grid(16, 12.0), ModelParams(1.0, 0.0), spec)
    ev = np.linalg.eigvalsh(assemble_dense(op))
    norm = float(np.abs(ev).max())
    assert ev.min() < -norm / 4
    thresholds = [1.0 / a for a in alphas]
    monkeypatch.setattr(spectra, "_norm_bound", lambda op: norm / 4)
    monkeypatch.setattr(spectra, "_column_cap", lambda dim: dim)
    result = iterative_count_above(op, thresholds)
    assert result.method == "krylov" and result.filter_degree > 1
    assert list(result.counts) == [count_above(ev, s) for s in thresholds]
    for s, cert in zip(thresholds, result.certificates):
        assert cert >= max(1e-8, np.abs(ev - s).min() - 1e-10)


def test_filter_too_steep_to_resolve_the_thresholds_never_miscounts(monkeypatch):
    # degree 55 spreads p(A) over about 1e42, so every tolerance relative to
    # its norm swamps the thresholds near p = 10: deflation drops every
    # direction after 7 columns, and counting those Ritz values would give
    # (4, 5, 6, 6, 6, 6).  No Ritz value clears a gate by its residual, so
    # the counts come from the dense spectrum
    monkeypatch.setattr(spectra, "_FILTER_MAX_DEGREE", 81)
    op = birman_schwinger(build_grid(24, 24.0), ModelParams(1.0, 0.0), Gaussian(4.0, 1.0))
    thresholds = [1.0 / a for a in (5.0, 10.0, 20.0, 40.0, 80.0, 160.0)]
    result = iterative_count_above(op, thresholds)
    assert result.filter_degree == 55
    ev = np.linalg.eigvalsh(assemble_dense(op))
    assert list(result.counts) == [count_above(ev, s) for s in thresholds]
    assert result.method == "dense"


def test_weyl_thresholds_stay_unfiltered():
    # Weyl thresholds sit near the dense centre of the spectrum, where no
    # filter of degree at most _FILTER_MAX_DEGREE reaches the gain: the
    # weyl-flow benchmark shape at n = 24, and the Gaussian at n = 96
    params = ModelParams(1.0, 0.0)
    grid = build_grid(24, 24.0)
    op = birman_schwinger(grid, params, Gaussian(4.0, 1.0, (1.5, 0.5)))
    thresholds = [1.0 / a for a in (5.0, 10.0, 20.0, 40.0)]
    result = iterative_count_above(op, thresholds)
    assert result.method == "krylov" and result.filter_degree == 1
    ev = np.linalg.eigvalsh(assemble_dense(op))
    assert list(result.counts) == [count_above(ev, s) for s in thresholds]
    fine = birman_schwinger(build_grid(96, 24.0), params, Gaussian(4.0, 1.0))
    assert spectra._chebyshev_filter(fine, [1.0 / 160.0, 0.2]).degree == 1


def test_threshold_on_an_eigenvalue_falls_back_to_dense():
    grid = build_grid(12, 12.0)
    op = birman_schwinger(grid, ModelParams(1.0, 0.0), Gaussian(4.0, 1.0))
    ev = hermitian_eigenvalues(assemble_dense(op))
    thresholds = [0.5, float(ev[2]), 0.1]
    result = iterative_count_above(op, thresholds)
    assert result.method == "dense" and result.conclusive
    # the bracket around ev[2] holds it; the other two windows are free
    assert result.certificates == (DEGENERACY_TOL, 0.0, DEGENERACY_TOL)
    assert list(result.counts) == [count_above(ev, s) for s in thresholds]
    # a converged Ritz value within the floor of a threshold ends the run early
    assert result.columns < _column_cap(op.dimension)


def test_dense_fallback_holds_one_dense_matrix(monkeypatch):
    # each factorization gathers the matrix afresh and consumes it; the
    # full eigensolve held the matrix, its eigenvectors and LAPACK's workspace
    op = birman_schwinger(build_grid(16, 12.0), ModelParams(1.0, 0.0), Gaussian(4.0, 1.0))
    thresholds = [0.5, 0.2, 0.1]
    ev = np.linalg.eigvalsh(assemble_dense(op))
    monkeypatch.setattr(spectra, "_column_cap", lambda dim: 8)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = iterative_count_above(op, thresholds)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert result.method == "dense"
    assert list(result.counts) == [count_above(ev, s) for s in thresholds]
    assert result.certificates == (DEGENERACY_TOL,) * 3
    assert peak <= 1.3 * 16 * op.dimension ** 2


def test_count_result_single_and_several_thresholds():
    grid = build_grid(8, 4.0)
    op = birman_schwinger(grid, ModelParams(1.0, 0.0), Gaussian(4.0, 1.0))
    several = iterative_count_above(op, [0.5, 0.2])
    assert several.certificate == min(several.certificates)
    single = iterative_count_above(op, [0.2])
    assert single.counts == several.counts[1:]
    for bad in (0.2, [], [0.5, 0.0], [[0.5]]):
        with pytest.raises(ValueError, match="thresholds"):
            iterative_count_above(op, bad)

