import numpy as np
import pytest

from gapcount import (
    DiskBump,
    Gaussian,
    ModelParams,
    PowerDecay,
    build_grid,
    birman_schwinger,
    count_above,
    hermitian_eigenvalues,
    inertia,
    iterative_count_above,
    power_iteration_norm,
    sigma_p_seminorm,
    singular_values,
)
from gapcount.flow import DEGENERACY_TOL
from gapcount.operators import assemble_dense, free_operator, potential_on_grid
from gapcount.spectra import SpectrumResult, _column_cap
from gapcount.symbol import symbol_eigenvalues


def _random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


def _random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def test_hermitian_eigenvalues_small_examples():
    assert hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])).values == pytest.approx(
        [3.0, 2.0, 1.0]
    )
    assert hermitian_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]])).values == (
        pytest.approx([1.0, -1.0])
    )


def test_hermitian_eigenvalues_free_operator_multiset():
    grid = build_grid(8, 5.0)
    params = ModelParams(1.0, 0.0)
    dense = assemble_dense(free_operator(grid, params))
    result = hermitian_eigenvalues(dense)
    xi1, xi2 = grid.momentum_mesh()
    law = np.sort(symbol_eigenvalues(np.stack([xi1, xi2], axis=-1), params).ravel())
    assert np.abs(np.sort(result.values) - law).max() < 1e-10


def test_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


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
            result = inertia(a, shift)
            assert (result.negative, result.zero, result.positive) == (
                int(np.count_nonzero(ev < shift)), 0, int(np.count_nonzero(ev > shift))
            )
            assert 0.0 <= result.residual <= 1e-8


def test_inertia_agrees_with_count_above_on_operator():
    grid = build_grid(12, 12.0)
    dense = assemble_dense(birman_schwinger(grid, ModelParams(1.0, 0.2), Gaussian(4.0, 1.0)))
    spectrum = hermitian_eigenvalues(dense)
    for s in (0.02, 0.1, 0.3, 0.9):
        assert inertia(dense, s * (1.0 + 1e-12)).positive == count_above(spectrum, s)


def test_inertia_shift_on_an_eigenvalue_reports_zero():
    # exact arithmetic makes the shifted matrix exactly singular
    result = inertia(np.diag([3.0, 1.0, 2.0]), 2.0)
    assert (result.negative, result.zero, result.positive) == (1, 1, 1)
    result = inertia(np.array([[2.0, 1.0], [1.0, 2.0]]), 1.0)
    assert (result.negative, result.zero, result.positive) == (0, 1, 1)
    assert inertia(np.zeros((4, 4)), 0.0).zero == 4


def test_inertia_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        inertia(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5)


def test_singular_values_of_hermitian_are_absolute_eigenvalues():
    rng = np.random.default_rng(0)
    a = _random_hermitian(rng, 15)
    sv = singular_values(a).values
    ev = np.abs(np.linalg.eigvalsh(a))
    assert np.abs(sv - np.sort(ev)[::-1]).max() < 1e-10


def test_singular_values_zero_matrix():
    assert np.all(singular_values(np.zeros((4, 7))).values == 0.0)


def test_singular_values_square_equals_gram_eigenvalues():
    rng = np.random.default_rng(1)
    a = _random_matrix(rng, 12)
    sv = singular_values(a).values
    gram = np.sort(np.linalg.eigvalsh(a.conj().T @ a))[::-1]
    assert np.abs(sv ** 2 - gram).max() < 1e-8 * max(gram.max(), 1.0)


def test_top_singular_value_matches_power_iteration():
    rng = np.random.default_rng(2)
    a = _random_matrix(rng, 20)
    s1 = singular_values(a).values[0]
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


def test_sigma_p_examples():
    assert sigma_p_seminorm([2.0], 1.0) == pytest.approx(2.0)
    assert sigma_p_seminorm([1.0, 1.0], 1.0) == pytest.approx(2.0)
    assert sigma_p_seminorm([], 1.0) == 0.0


def test_sigma_p_threshold_grid_oracle():
    # sup_{s>0} s^p n(s) is a left limit at each singular value, so the
    # direct oracle evaluates s^p * #{s_j >= s} over a grid that includes
    # the attained thresholds s_k themselves
    rng = np.random.default_rng(4)
    for _ in range(5):
        sv = np.sort(rng.uniform(0.01, 3.0, size=18))[::-1]
        for p in (0.5, 1.0, 2.0):
            val = sigma_p_seminorm(sv, p)
            thresholds = np.concatenate([sv, np.linspace(1e-3, sv[0], 10_000)])
            direct = max(
                s ** p * int(np.count_nonzero(sv >= s)) for s in thresholds if s > 0
            ) ** (1.0 / p)
            assert abs(val - direct) < 1e-12 * max(val, 1.0)


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
        s1v = singular_values(t1).values
        s2v = singular_values(t2).values
        s12 = singular_values(t1 @ t2).values
        for s1 in (0.5, 1.0, 3.0):
            for s2 in (0.5, 2.0):
                assert count_above(s12, s1 * s2) <= (
                    count_above(s1v, s1) + count_above(s2v, s2)
                )


@pytest.mark.parametrize("p,q", [(1.0, 1.0), (2.0, 2.0), (1.0, 2.0)])
def test_sigma_class_holder_inequality(p, q):
    rng = np.random.default_rng(7)
    r = 1.0 / (1.0 / p + 1.0 / q)
    for _ in range(200):
        dim = int(rng.integers(4, 40))
        t1 = _random_matrix(rng, dim)
        t2 = _random_matrix(rng, dim)
        lhs = sigma_p_seminorm(singular_values(t1 @ t2).values, r)
        rhs = (
            2.0 ** (1.0 / r)
            * sigma_p_seminorm(singular_values(t1).values, p)
            * sigma_p_seminorm(singular_values(t2).values, q)
        )
        assert lhs <= rhs * (1.0 + 1e-12)


def test_counting_seminorm_duality():
    rng = np.random.default_rng(8)
    for _ in range(50):
        sv = np.sort(np.abs(rng.standard_normal(25)))[::-1]
        norm1 = sigma_p_seminorm(sv, 1.0)
        for s in np.linspace(1e-3, sv[0] * 1.2, 50):
            assert s * count_above(sv, s) <= norm1 * (1.0 + 1e-12)


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
        result = iterative_count_above(op, s, seed=1)
        assert result.conclusive
        assert result.count == expected
        assert result.certificate > 0


def test_iterative_count_zero_operator():
    grid = build_grid(8, 4.0)
    op = birman_schwinger(grid, ModelParams(1.0, 0.0), Gaussian(0.0, 1.0))
    result = iterative_count_above(op, 0.5)
    assert result.conclusive
    assert result.count == 0


def test_iterative_count_above_norm_is_zero():
    grid = build_grid(8, 4.0)
    params = ModelParams(1.0, 0.0)
    op = birman_schwinger(grid, params, Gaussian(4.0, 1.0))
    bound = power_iteration_norm(op, iters=300)
    result = iterative_count_above(op, bound * 1.5)
    assert result.conclusive
    assert result.count == 0


def test_spectrum_result_validation():
    with pytest.raises(ValueError):
        SpectrumResult(np.array([1.0, 2.0]), "eigenvalues", "dense", 0.0)


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
def test_krylov_counts_match_dense_for_every_coupling(name, n):
    spec, alphas = _GATE_POTENTIALS[name]
    grid = build_grid(n, 12.0)
    op = birman_schwinger(grid, ModelParams(1.0, 0.0), spec)
    ev = np.linalg.eigvalsh(assemble_dense(op))
    thresholds = [1.0 / a for a in alphas]
    # no column cap: the Krylov run itself is under test, not the fallback
    result = iterative_count_above(op, thresholds, max_columns=op.dimension)
    assert result.conclusive and result.method == "krylov"
    assert result.thresholds == tuple(thresholds)
    assert list(result.counts) == [count_above(ev, s) for s in thresholds]
    assert min(result.certificates) >= 1e-8
    for s, cert in zip(thresholds, result.certificates):
        # the certificate is the distance to an eigenvalue resolved by a Ritz value
        assert cert >= np.abs(ev - s).min() - 1e-10


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
    assert result.columns == rank + 8
    ev = np.linalg.eigvalsh(assemble_dense(op))
    assert list(result.counts) == [count_above(ev, s) for s in (0.5, 0.1, 0.05)]


def test_threshold_on_an_eigenvalue_falls_back_to_dense():
    grid = build_grid(12, 12.0)
    op = birman_schwinger(grid, ModelParams(1.0, 0.0), Gaussian(4.0, 1.0))
    ev = hermitian_eigenvalues(assemble_dense(op)).values
    thresholds = [0.5, float(ev[2]), 0.1]
    result = iterative_count_above(op, thresholds)
    assert result.method == "dense" and result.conclusive
    assert result.certificates[1] <= DEGENERACY_TOL
    assert min(result.certificates[0], result.certificates[2]) > DEGENERACY_TOL
    assert list(result.counts) == [count_above(ev, s) for s in thresholds]
    # a converged Ritz value within the floor of a threshold ends the run early
    assert result.columns < _column_cap(op.dimension, 8)


def test_count_result_single_and_several_thresholds():
    grid = build_grid(8, 4.0)
    op = birman_schwinger(grid, ModelParams(1.0, 0.0), Gaussian(4.0, 1.0))
    several = iterative_count_above(op, [0.5, 0.2])
    assert several.certificate == min(several.certificates)
    with pytest.raises(ValueError, match="several thresholds"):
        several.count
    single = iterative_count_above(op, 0.2)
    assert single.count == several.counts[1]
    for bad in ([], [0.5, 0.0], [[0.5]]):
        with pytest.raises(ValueError, match="thresholds"):
            iterative_count_above(op, bad)

