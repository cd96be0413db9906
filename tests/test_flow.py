import numpy as np
import pytest

from gapcount import (
    DegenerateThresholdWarning,
    DiskBump,
    Gaussian,
    ModelParams,
    PowerDecay,
    birman_schwinger,
    branch_trace,
    build_grid,
    crossing_count_detailed,
    hermitian_eigenvalues,
)
from gapcount.flow import _free_spectrum, crossing_operator
from gapcount.operators import (
    DenseCapExceededError,
    assemble_dense,
    free_operator,
)
from gapcount.spectra import DEGENERACY_TOL, inertia
from oracles import count_above, perturbed_dense

GRID = build_grid(12, 12.0)
GAUSS = Gaussian(4.0, 1.0)


def test_zero_coupling_has_no_crossings():
    assert crossing_count_detailed(GRID, ModelParams(1.0, 0.0), GAUSS, 0.0).count == 0


def test_crossing_count_monotone_in_coupling():
    params = ModelParams(1.0, 0.0)
    counts = [crossing_count_detailed(GRID, params, GAUSS, a).count
              for a in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert counts[-1] > 0


@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_birman_schwinger_equivalence(lam):
    params = ModelParams(1.0, lam)
    dense = assemble_dense(birman_schwinger(GRID, params, GAUSS))
    spectrum = hermitian_eigenvalues(dense)
    for alpha in np.geomspace(1.0, 24.0, 10):
        detail = crossing_count_detailed(GRID, params, GAUSS, float(alpha))
        n_bs = count_above(spectrum, 1.0 / alpha)
        if detail.degenerate:
            assert detail.bracket[0] <= n_bs <= detail.bracket[1]
        else:
            assert detail.count == n_bs


def _dense_count_below(grid, params, spec, t, threshold):
    dense = perturbed_dense(grid, params, spec, t)
    return int(np.count_nonzero(np.linalg.eigvalsh(dense) < threshold))


FLOW_POTENTIALS = {
    "gaussian": Gaussian(4.0, 1.0),
    "gaussian-off-center": Gaussian(4.0, 1.0, (1.5, 0.5)),
    "disk": DiskBump(3.0, 1.5, 0.5),
    "powerdecay": PowerDecay(1.0, 2.0),
}


@pytest.mark.parametrize("n", [12, 16])
@pytest.mark.parametrize("lam", [-0.9, 0.0, 0.3, 0.9])
@pytest.mark.parametrize("name", sorted(FLOW_POTENTIALS))
def test_crossing_count_matches_dense_endpoint_spectra(name, lam, n):
    # reference: below-lambda counts of the full spectra at both endpoints
    grid = build_grid(n, 12.0)
    params = ModelParams(1.0, lam)
    spec = FLOW_POTENTIALS[name]
    start = _dense_count_below(grid, params, spec, 0.0, lam)
    for alpha in (1.0, 3.0, 8.0):
        detail = crossing_count_detailed(grid, params, spec, alpha)
        expected = _dense_count_below(grid, params, spec, alpha, lam) - start
        assert not detail.degenerate and detail.method == "krylov"
        assert detail.count == expected
        assert detail.bracket == (expected, expected)
        assert detail.certificate > DEGENERACY_TOL


@pytest.mark.parametrize("lam", [0.0, 0.3, -0.6])
def test_free_counts_from_symbol_match_dense(lam):
    params = ModelParams(1.0, lam)
    dense_ev = hermitian_eigenvalues(assemble_dense(free_operator(GRID, params)))
    symbol_ev = _free_spectrum(GRID, params)
    for x in (lam - DEGENERACY_TOL, lam, lam + DEGENERACY_TOL):
        expected = int(np.count_nonzero(dense_ev < x))
        assert int(np.count_nonzero(symbol_ev < x)) == expected == GRID.n_points ** 2


def test_negative_coupling_rejected():
    with pytest.raises(ValueError):
        crossing_count_detailed(GRID, ModelParams(1.0, 0.0), GAUSS, -1.0)


def test_degenerate_threshold_flagged_and_bracketed():
    params = ModelParams(1.0, 0.0)
    alpha = 6.0
    eigs = hermitian_eigenvalues(perturbed_dense(GRID, params, GAUSS, alpha))
    gap_eigs = eigs[(np.abs(eigs) < 1.0)]
    assert len(gap_eigs) > 0
    lam = float(gap_eigs[0]) + 3e-11  # within the 1e-10 collision tolerance
    tuned = ModelParams(1.0, lam)
    with pytest.warns(DegenerateThresholdWarning, match="alpha = 6:"):
        detail = crossing_count_detailed(GRID, tuned, GAUSS, alpha)
    assert detail.degenerate
    assert detail.bracket[0] <= detail.count <= detail.bracket[1]
    assert detail.bracket[0] < detail.bracket[1]


def test_branch_trace_free_operator_has_empty_gap():
    params = ModelParams(1.0, 0.0)
    trace = branch_trace(GRID, params, Gaussian(0.0, 1.0), [0.0, 1.0, 2.0])
    assert all(len(g) == 0 for g in trace.gap_eigenvalues)
    assert trace.crossing_count == 0


def test_branch_trace_descent_from_upper_edge():
    # branches enter descending from +m: a refined sweep catches them
    # closer to the edge, shrinking the minimal observed edge distance
    params = ModelParams(1.0, 0.0)
    coarse = branch_trace(GRID, params, GAUSS, [0.0, 3.0])
    fine = branch_trace(GRID, params, GAUSS, [0.0, 1.0, 2.0, 3.0])
    edge_dist = lambda tr: min(
        (1.0 - g.max() for g in tr.gap_eigenvalues if len(g)), default=np.inf
    )
    assert edge_dist(fine) < edge_dist(coarse)
    for g in fine.gap_eigenvalues:
        assert np.all(np.abs(g) < 1.0)


def test_full_spectrum_weyl_monotonicity():
    # V >= 0 makes every ordered eigenvalue of the family nonincreasing in t
    params = ModelParams(1.0, 0.0)
    spectra = []
    for t in (0.0, 1.0, 2.0, 4.0):
        spectra.append(np.sort(hermitian_eigenvalues(perturbed_dense(GRID, params,
                                                                     GAUSS, t))))
    for a, b in zip(spectra, spectra[1:]):
        assert np.all(b <= a + 1e-10)


def test_branch_trace_kth_branch_monotone_at_constant_count():
    # between sweep points with equal branch counts (no entry/exit), the
    # k-th largest gap eigenvalue only moves down
    params = ModelParams(1.0, 0.0)
    trace = branch_trace(GRID, params, GAUSS, [0.0, 1.0, 1.25, 1.5])
    lists = trace.gap_eigenvalues
    compared = 0
    for a, b in zip(lists, lists[1:]):
        if len(a) != len(b) or len(a) == 0:
            continue
        assert np.all(b <= a + 1e-10)
        compared += 1
    assert compared >= 1


def test_branch_trace_grid_validation():
    params = ModelParams(1.0, 0.0)
    with pytest.raises(ValueError):
        branch_trace(GRID, params, GAUSS, [0.5, 1.0])
    with pytest.raises(ValueError):
        branch_trace(GRID, params, GAUSS, [0.0, 1.0, 1.0])

@pytest.mark.parametrize("n,side,mass", [(8, 9.0, 1.0), (12, 12.0, 0.5)])
@pytest.mark.parametrize("assembly", ["kernel", "columns"])
def test_branch_trace_has_no_gap_rows_at_zero_coupling(monkeypatch, assembly, n,
                                                       side, mass):
    # at t = 0 the band edges +-m are exact eigenvalues (xi = 0); on these
    # grids both assemblies put one of them a few ulps inside the gap
    import gapcount.flow as flow
    from oracles import dense_by_columns

    if assembly == "columns":
        monkeypatch.setattr(flow, "assemble_dense", lambda op, cap: dense_by_columns(op))
    trace = branch_trace(build_grid(n, side), ModelParams(mass, 0.0), GAUSS,
                         [0.0, 1.0, 2.0])
    assert len(trace.gap_eigenvalues[0]) == 0
    for g in trace.gap_eigenvalues:
        assert np.all(np.abs(g) < mass - DEGENERACY_TOL)
    assert len(trace.gap_eigenvalues[-1]) > 0


def _degenerate_gap_point(alpha):
    """Model parameters whose gap point lies 3e-11 above an eigenvalue of
    D(alpha), as in test_degenerate_threshold_flagged_and_bracketed."""
    eigs = hermitian_eigenvalues(perturbed_dense(GRID, ModelParams(1.0, 0.0), GAUSS, alpha))
    return ModelParams(1.0, float(eigs[np.abs(eigs) < 1.0][0]) + 3e-11)


def test_certified_flow_count_gathers_no_dense_block(monkeypatch):
    import gapcount.operators as operators

    calls = []
    gather = operators._dense_block
    monkeypatch.setattr(operators, "_dense_block",
                        lambda *args: calls.append(1) or gather(*args))
    detail = crossing_count_detailed(GRID, ModelParams(1.0, 0.0), GAUSS, 3.0)
    assert not detail.degenerate and detail.method == "krylov"
    assert detail.residual is None and detail.columns > 0
    assert calls == []


def test_crossing_count_checks_hermiticity_once_per_matrix(monkeypatch):
    # only a fallback factors: at a degenerate gap point, D(alpha) at
    # lambda -/+ 1e-10 and at lambda, each gathered and checked once
    import gapcount.spectra as spectra

    params = _degenerate_gap_point(6.0)
    calls = []
    check = spectra.check_hermitian
    monkeypatch.setattr(spectra, "check_hermitian", lambda m: calls.append(1) or check(m))
    with pytest.warns(DegenerateThresholdWarning):
        detail = crossing_count_detailed(GRID, params, GAUSS, 6.0)
    assert detail.degenerate and detail.method == "ldl-inertia"
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# the Schur complement onto the first spinor component, as the crossing
# operator holds it
# ---------------------------------------------------------------------------

def _dense_schur_in_fourier_basis(dense, shift):
    """P - B Q^-1 B^H from the dense operator, moved to the Fourier basis."""
    n = int(np.sqrt(dense.shape[0] // 2))
    eye = np.eye(n * n)
    p = dense[0::2, 0::2] - shift * eye
    b = dense[0::2, 1::2]
    q = dense[1::2, 1::2] - shift * eye
    s_nodes = p - b @ np.linalg.solve(q, b.conj().T)
    f1 = np.fft.fft(np.eye(n), norm="ortho")
    f = np.kron(f1, f1)  # unitary DFT on C-order flat nodes
    return f @ s_nodes @ f.conj().T, f


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("lam", [-0.9, 0.3])
@pytest.mark.parametrize("name", sorted(FLOW_POTENTIALS))
def test_schur_complement_matches_dense_schur_complement(name, lam, n):
    # the crossing handle is W F^* v C^-1 v^H F W with v = (1, conj b): in
    # the Fourier basis S = C - sum_a diag(conj v_a) F W_a^2 F^* diag(v_a),
    # read from the handle's mult (v_a = mult[a, 0] / mult[0, 0], C =
    # 1 / mult[0, 0]) and weight
    grid = build_grid(n, 12.0)
    params = ModelParams(1.0, lam)
    spec = FLOW_POTENTIALS[name]
    op = crossing_operator(grid, params, spec, 3.0)
    reference, f = _dense_schur_in_fourier_basis(perturbed_dense(grid, params, spec, 3.0),
                                                 lam)
    inverse_c = op.mult[0, 0].ravel()
    schur = np.diag(1.0 / inverse_c).astype(complex)
    for a in (0, 1):
        v = op.mult[a, 0].ravel() / inverse_c
        weighted = f @ np.diag(op.weight[a].ravel() ** 2) @ f.conj().T
        schur -= v.conj()[:, None] * weighted * v[None, :]
    assert np.abs(schur - reference).max() <= 1e-12 * np.abs(reference).max()


@pytest.mark.parametrize("n", [12, 16])
@pytest.mark.parametrize("lam", [-0.9, 0.0, 0.3, 0.9])
@pytest.mark.parametrize("name", sorted(FLOW_POTENTIALS))
def test_schur_inertia_matches_full_inertia_and_spectrum(name, lam, n):
    # Haynsworth: D(alpha) - lambda has n^2 + neg(S) negative eigenvalues;
    # Sylvester: neg(S) is the count above 1 of the crossing operator; and
    # the flow's certificate: dist(lambda, spec D(alpha)) >= 1 / (max gamma
    # / delta + 1/(m + lambda)), delta = dist(1, spec K), max gamma <=
    # 1/(m - |lambda|).  At lam = -0.9, 1/(m + lam) reaches 10.
    grid = build_grid(n, 12.0)
    params = ModelParams(1.0, lam)
    half = n * n
    for alpha in (1.0, 3.0, 8.0):
        dense = perturbed_dense(grid, params, FLOW_POTENTIALS[name], alpha)
        ev = np.linalg.eigvalsh(dense)
        assert np.abs(ev - lam).min() > 1e-6
        schur, _ = _dense_schur_in_fourier_basis(dense, lam)
        part = inertia(schur, 0.0)
        full = inertia(dense.copy(), lam)
        counts = (half + part.negative, part.zero, part.positive)
        assert counts == (full.negative, full.zero, full.positive)
        assert counts == (int(np.count_nonzero(ev < lam)), 0,
                          int(np.count_nonzero(ev > lam)))
        op = crossing_operator(grid, params, FLOW_POTENTIALS[name], alpha)
        kappa = np.linalg.eigvalsh(assemble_dense(op))
        assert count_above(kappa, 1.0) == part.negative
        gamma = (op.mult[0, 0].real + op.mult[1, 1].real / (1.0 + lam) ** 2).max()
        assert gamma <= 1.0 / (1.0 - abs(lam)) * (1.0 + 1e-12)
        bound = 1.0 / (gamma / np.abs(kappa - 1.0).min() + 1.0 / (1.0 + lam))
        assert np.abs(ev - lam).min() >= bound * (1.0 - 1e-9)


def test_crossing_count_checks_the_cap_before_any_dense_work(monkeypatch):
    # only the fallback of a degenerate gap point gathers a dense block
    import gapcount.operators as operators

    def refuse(*args, **kwargs):
        raise AssertionError("dense block gathered above the cap")

    monkeypatch.setattr(operators, "_dense_block", refuse)
    params = _degenerate_gap_point(6.0)
    with pytest.raises(DenseCapExceededError, match="exceeds the dense-assembly cap 100"):
        crossing_count_detailed(GRID, params, GAUSS, 6.0, cap=100)
