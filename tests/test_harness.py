import os
import warnings

import numpy as np
import pytest

from gapcount import (
    ConfigError,
    ExperimentConfig,
    parse_config_text,
    report_csv_text,
    run_study,
)
from gapcount.cli import build_parser, main as cli_main
from gapcount.harness import _box_counts, emit_outputs, oracle_lines
from gapcount.lattice import build_grid
from gapcount.operators import (BoxSpec, DenseCapExceededError, box_mask, check_box_fits,
                                resolvent, restricted_block)
from gapcount.spectra import DEGENERACY_TOL, blas_threads
from gapcount.symbol import ModelParams
from oracles import box_block_count, count_above, parse_report_csv, singular_values

WEYL_TEXT = """
# tiny smoke configuration
study = weyl
grid.n_points = 12
grid.box_side = 12.0
model.mass = 1.0
model.gap_point = 0.0
potential.kind = gaussian
potential.amplitude = 4.0
potential.width = 1.0
alpha.values = 2, 4, 8
"""

BOX_TEXT = """
study = box
grid.n_points = 16
grid.box_side = 16.0
model.mass = 1.0
model.gap_point = 0.0
box.corner_x = 0.0
box.corner_y = 0.0
box.side = 1.0
box.tau = 0.5
box.betas = 2, 4
"""

CROSS_TEXT = """
study = crossterm
grid.n_points = 12
grid.box_side = 12.0
model.mass = 1.0
model.gap_point = 0.0
potential.kind = powerdecay
potential.exponent = 1.0
potential.psi_constant = 2.0
alpha.values = 2, 4
localization.eps1 = 0.3
localization.eps2 = 0.8
localization.epsilon = 0.5
"""

FLOW_TRACE_TEXT = WEYL_TEXT.replace("study = weyl", "study = flow-trace").replace(
    "alpha.values = 2, 4, 8", "flow.t_values = 0, 1, 2")

# the oracle reads the potential and, for the box coefficient, box.tau and
# box.side; it has no couplings
ORACLE_TEXT = WEYL_TEXT.replace("study = weyl", "study = oracle").replace(
    "alpha.values = 2, 4, 8\n", "")


def test_parse_config_text_basics():
    mapping = parse_config_text("a = 1\n# comment\n\nb.c = hi # trailing\n")
    assert mapping == {"a": "1", "b.c": "hi"}


def test_parse_config_rejects_bad_lines():
    with pytest.raises(ConfigError):
        parse_config_text("not a pair\n")
    with pytest.raises(ConfigError):
        parse_config_text("a = 1\na = 2\n")
    with pytest.raises(ConfigError):
        parse_config_text("= 3\n")


def test_config_requires_study_and_fields():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("study = nope\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("study = weyl\n")


def test_weyl_rejects_powerdecay_potential():
    text = WEYL_TEXT.replace(
        "potential.kind = gaussian",
        "potential.kind = powerdecay\npotential.exponent = 1.0\npotential.psi_constant = 2.0",
    ).replace("potential.amplitude = 4.0\npotential.width = 1.0\n", "")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text(text)


def test_theorem2_requires_large_enough_box():
    text = """
study = theorem2
grid.n_points = 12
grid.box_side = 12.0
model.mass = 1.0
model.gap_point = 0.0
potential.kind = powerdecay
potential.exponent = 1.0
potential.psi_constant = 2.0
alpha.values = 2, 4
localization.eps2 = 1.0
"""
    with pytest.raises(ConfigError, match="box_side >= 16"):
        ExperimentConfig.from_text(text)


def test_crossterm_zone_fit_validation():
    text = CROSS_TEXT.replace("alpha.values = 2, 4", "alpha.values = 2, 16")
    with pytest.raises(ConfigError, match="fit"):
        ExperimentConfig.from_text(text)


def test_weyl_study_columns_and_prediction():
    config = ExperimentConfig.from_text(WEYL_TEXT)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_study(config)
    assert report.header == ("alpha", "n_bs", "n_flow", "prediction", "ratio")
    assert [row[0] for row in report.rows] == [2.0, 4.0, 8.0]
    # Gaussian(4, 1) has coefficient exactly 1, prediction = alpha
    for row in report.rows:
        assert row[3] == pytest.approx(row[0], rel=1e-9)
        assert isinstance(row[1], int)
        assert row[2] is None  # flow disabled by default
        assert row[4] == pytest.approx(row[1] / row[3])
    counts = [row[1] for row in report.rows]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_weyl_study_with_flow_matches_bs():
    config = ExperimentConfig.from_text(WEYL_TEXT + "study.with_flow = true\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_study(config)
    for row in report.rows:
        assert row[2] == row[1]


def test_zero_potential_study_all_zero():
    text = WEYL_TEXT.replace("potential.amplitude = 4.0", "potential.amplitude = 0.0")
    config = ExperimentConfig.from_text(text)
    report = run_study(config)
    for row in report.rows:
        assert row[1] == 0
        assert row[3] == 0.0
        assert row[4] is None  # ratio absent when prediction = 0


def test_theorem2_study_runs():
    text = """
study = theorem2
grid.n_points = 16
grid.box_side = 16.0
model.mass = 1.0
model.gap_point = 0.0
potential.kind = powerdecay
potential.exponent = 1.0
potential.psi_constant = 2.0
alpha.values = 2, 4
localization.eps2 = 1.0
"""
    config = ExperimentConfig.from_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_study(config)
    assert report.metadata["j_integral"] == pytest.approx(np.pi / 2, rel=1e-8)
    for row in report.rows:
        assert row[3] == pytest.approx(row[0] ** 2 * np.pi / 2, rel=1e-8)


@pytest.mark.parametrize("n", [12, 16, 24])
def test_crossterm_study_adjoint_equality(n):
    # the runner counts the (i, j) block by Gram inertia and copies the count
    # into the (j, i) row; the (j, i) block is counted here on its own, by SVD
    from gapcount import LocalizationSpec, birman_schwinger, restricted_block, zone_masks

    config = ExperimentConfig.from_text(
        CROSS_TEXT.replace("grid.n_points = 12", f"grid.n_points = {n}"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_study(config)
    assert report.header == ("alpha", "i", "j", "count", "normalized")
    table = {(row[0], row[1], row[2]): row[3] for row in report.rows}
    op = birman_schwinger(config.grid, config.model, config.potential)
    for a in (2.0, 4.0):
        loc = LocalizationSpec(config.eps1, config.eps2, a, config.potential.exponent)
        masks = [np.flatnonzero(mask) for mask in zone_masks(config.grid, loc)]
        for i, j in ((1, 2), (1, 3), (2, 3)):
            block = restricted_block(op, masks[j - 1], masks[i - 1])
            assert table[(a, j, i)] == count_above(singular_values(block),
                                                   config.epsilon / a)


def test_box_study_rows_and_prediction():
    config = ExperimentConfig.from_text(BOX_TEXT)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_study(config)
    assert report.header == ("beta", "count", "prediction", "ratio")
    coeff = np.sqrt(3.0) / (4.0 * np.pi)
    for row, beta in zip(report.rows, (2.0, 4.0)):
        assert row[0] == beta
        assert row[2] == pytest.approx(beta ** 2 * coeff, rel=1e-12)


def test_box_study_rejects_escaping_box():
    text = BOX_TEXT.replace("box.betas = 2, 4", "box.betas = 2, 9")
    with pytest.raises(ConfigError, match="leaves the grid"):
        ExperimentConfig.from_text(text)


# an off-center unit box; beta = 5 spans [-1.5, 3.5] x [-3, 2], inside the
# L = 12 grid with its 2-spacing margin at every n below
BOX_CASES = [BoxSpec((-0.3, -0.6), 1.0, beta) for beta in (2.0, 4.0, 5.0)]


@pytest.mark.parametrize("n", [16, 24, 32])
def test_box_count_matches_the_two_component_spectrum(n):
    grid = build_grid(n, 12.0)
    counts = []
    for lam in (-0.6, 0.0, 0.4, 0.9):
        params = ModelParams(1.0, lam)
        op = resolvent(grid, params)
        for tau in (0.2, 0.5, 1.3):
            for box in BOX_CASES:
                check_box_fits(grid, box)
                (count, residual, dim), = _box_counts(op, [box], tau)[0]
                assert count == box_block_count(grid, params, box, tau)
                assert 0.0 <= residual <= 1e-8
                assert dim == np.count_nonzero(box_mask(grid, box))
                counts.append(count)
    # the cases reach both empty and well-filled counts
    assert min(counts) == 0 and max(counts) >= 10


def test_box_count_resolves_a_threshold_next_to_an_eigenvalue():
    grid = build_grid(16, 12.0)
    params = ModelParams(1.0, 0.4)
    box = BOX_CASES[1]
    mask = np.flatnonzero(box_mask(grid, box))
    spectrum = np.linalg.eigvalsh(restricted_block(resolvent(grid, params), mask, mask))
    above = spectrum[spectrum > 0.5]
    k = int(np.argmax(np.diff(above)))  # an eigenvalue with room above it
    op = resolvent(grid, params)
    for tau, expected in ((above[k] - 5e-10, len(above) - k),
                          (above[k] + 5e-10, len(above) - k - 1)):
        assert _box_counts(op, [box], tau)[0][0][0] == expected
        assert box_block_count(grid, params, box, tau) == expected


def test_box_count_holds_two_single_component_arrays():
    import tracemalloc

    # beta = 14: 28^2 = 784 nodes, the largest box of the box-localized
    # benchmark; the 2N x 2N block alone would be 4 units
    grid = build_grid(32, 16.0)
    params = ModelParams(1.0, 0.0)
    box = BoxSpec((-0.5, -0.5), 1.0, 14.0)
    check_box_fits(grid, box)
    op = resolvent(grid, params)
    unit = 16 * np.count_nonzero(box_mask(grid, box)) ** 2
    tracemalloc.start()
    try:
        (count, _, dim), = _box_counts(op, [box], 0.5)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dim == 784
    assert count == box_block_count(grid, params, box, 0.5)
    assert peak <= 2.2 * unit


def _record_zpotrf(monkeypatch):
    """One entry per Cholesky factorization, that is per elimination."""
    import scipy.linalg

    calls = []
    zpotrf = scipy.linalg.lapack.zpotrf
    monkeypatch.setattr(scipy.linalg.lapack, "zpotrf",
                        lambda *args, **kwargs: calls.append(1) or zpotrf(*args, **kwargs))
    return calls


def _assert_box_counts(grid, boxes, params, tau, results):
    for box, (count, residual, dim) in zip(boxes, results, strict=True):
        assert count == box_block_count(grid, params, box, tau)
        assert 0.0 <= residual <= 1e-8
        assert dim == np.count_nonzero(box_mask(grid, box))


@pytest.mark.parametrize("n", [16, 24])
def test_nested_box_sweep_is_counted_from_one_elimination(monkeypatch, n):
    grid = build_grid(n, 12.0)
    masks = [box_mask(grid, box) for box in BOX_CASES]
    # BOX_CASES contain the origin, so their node sets are nested
    assert all(np.all(a <= b) for a, b in zip(masks, masks[1:]))
    calls = _record_zpotrf(monkeypatch)
    counts = []
    for lam in (-0.6, 0.0, 0.4, 0.9):
        params = ModelParams(1.0, lam)
        op = resolvent(grid, params)
        for tau in (0.2, 0.5, 1.3):
            results, eliminations = _box_counts(op, BOX_CASES, tau)
            assert eliminations == 1
            _assert_box_counts(grid, BOX_CASES, params, tau, results)
            counts += [count for count, _, _ in results]
    assert len(calls) == 12
    assert min(counts) == 0 and max(counts) >= 10


def test_boxes_that_are_not_nested_run_as_chains_of_one(monkeypatch):
    # away from the origin each box leaves the one before
    grid = build_grid(24, 12.0)
    boxes = [BoxSpec((0.6, 0.6), 0.5, beta) for beta in (2.0, 3.0, 4.0)]
    masks = [box_mask(grid, box) for box in boxes]
    assert not any(np.all(a <= b) for a, b in zip(masks, masks[1:]))
    calls = _record_zpotrf(monkeypatch)
    params = ModelParams(1.0, 0.0)
    for tau in (0.05, 0.2):
        results, eliminations = _box_counts(resolvent(grid, params), boxes, tau)
        assert eliminations == 3
        _assert_box_counts(grid, boxes, params, tau, results)
    assert len(calls) == 6


def test_two_betas_with_one_node_set_get_one_count(monkeypatch):
    grid = build_grid(16, 12.0)
    boxes = [BoxSpec((-0.3, -0.6), 1.0, beta) for beta in (2.0, 4.0, 4.1, 5.0)]
    assert np.array_equal(box_mask(grid, boxes[1]), box_mask(grid, boxes[2]))
    calls = _record_zpotrf(monkeypatch)
    params = ModelParams(1.0, 0.4)
    results, eliminations = _box_counts(resolvent(grid, params), boxes, 0.5)
    assert eliminations == 1 and len(calls) == 1
    _assert_box_counts(grid, boxes, params, 0.5, results)
    assert results[1] == results[2]


def test_an_empty_smallest_box_counts_zero():
    grid = build_grid(16, 12.0)
    # nodes sit at multiples of 0.75: beta = 0.5 spans [0.05, 0.55)^2, no node
    boxes = [BoxSpec((0.1, 0.1), 1.0, beta) for beta in (0.5, 2.0, 4.0)]
    assert not box_mask(grid, boxes[0]).any()
    params = ModelParams(1.0, 0.0)
    op = resolvent(grid, params)
    results, eliminations = _box_counts(op, boxes, 0.2)
    assert eliminations == 1
    assert results[0] == (0, 0.0, 0)
    _assert_box_counts(grid, boxes, params, 0.2, results)
    # a chain without nodes makes no elimination
    assert _box_counts(op, boxes[:1], 0.2) == ([(0, 0.0, 0)], 0)


def test_nested_counts_resolve_a_threshold_next_to_an_eigenvalue():
    # the two smaller boxes are counted from downdated complements
    grid = build_grid(16, 12.0)
    params = ModelParams(1.0, 0.4)
    op = resolvent(grid, params)
    for k in (0, 1):
        mask = np.flatnonzero(box_mask(grid, BOX_CASES[k]))
        spectrum = np.linalg.eigvalsh(restricted_block(op, mask, mask))
        above = spectrum[spectrum > 0.15]
        j = int(np.argmax(np.diff(above)))  # an eigenvalue with room above it
        for tau, expected in ((above[j] - 5e-10, len(above) - j),
                              (above[j] + 5e-10, len(above) - j - 1)):
            results, _ = _box_counts(op, BOX_CASES, tau)
            assert results[k][0] == expected
            assert box_block_count(grid, params, BOX_CASES[k], tau) == expected


def test_a_nested_sweep_holds_two_single_component_arrays():
    import tracemalloc

    # betas 2-14 as on the box-localized benchmark: the largest box has
    # 28^2 = 784 nodes, and the sweep stays within the bound of one box
    grid = build_grid(32, 16.0)
    params = ModelParams(1.0, 0.0)
    boxes = [BoxSpec((-0.5, -0.5), 1.0, float(beta)) for beta in range(2, 15, 2)]
    op = resolvent(grid, params)
    unit = 16 * 784 ** 2
    tracemalloc.start()
    try:
        results, eliminations = _box_counts(op, boxes, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eliminations == 1
    assert [dim for _, _, dim in results] == [(2 * beta) ** 2 for beta in range(2, 15, 2)]
    assert results[-1][0] == box_block_count(grid, params, boxes[-1], 0.5)
    assert results[0][0] == box_block_count(grid, params, boxes[0], 0.5)
    assert peak <= 2.2 * unit


@pytest.mark.parametrize("text,dense_fallback", [
    (CROSS_TEXT, False),
    (BOX_TEXT, False),
    (WEYL_TEXT, True),
], ids=["crossterm", "box", "weyl-dense-fallback"])
def test_study_computes_one_kernel(monkeypatch, text, dense_fallback):
    # every dense block of the study, each crossterm zone block at each
    # alpha, each box's component blocks or each factorization of the dense
    # fallback, is gathered from the kernel its one handle cached
    import gapcount.spectra as spectra
    from gapcount.operators import LinearOperatorHandle

    computed = []
    compute = LinearOperatorHandle.kernel.func
    monkeypatch.setattr(LinearOperatorHandle.kernel, "func",
                        lambda op: computed.append(op) or compute(op))
    if dense_fallback:
        monkeypatch.setattr(spectra, "_column_cap", lambda dim: 8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_study(ExperimentConfig.from_text(text))
    if dense_fallback:
        assert report.metadata["bs_count_method"] == "dense"
    assert len(computed) == 1


def test_flow_trace_computes_one_kernel(monkeypatch):
    # one free handle serves every t of the trace
    from gapcount.operators import LinearOperatorHandle

    computed = []
    compute = LinearOperatorHandle.kernel.func
    monkeypatch.setattr(LinearOperatorHandle.kernel, "func",
                        lambda op: computed.append(op) or compute(op))
    config = ExperimentConfig.from_text(WEYL_TEXT.replace("study = weyl", "study = flow-trace")
                                        .replace("alpha.values = 2, 4, 8",
                                                 "flow.t_values = 0, 1, 2, 3, 4, 5"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_study(config)
    assert {row[0] for row in report.rows} <= {0.0, 1.0, 2.0, 3.0, 4.0, 5.0}
    assert len(computed) == 1


def test_flow_trace_study():
    text = """
study = flow-trace
grid.n_points = 12
grid.box_side = 12.0
model.mass = 1.0
model.gap_point = 0.0
potential.kind = gaussian
potential.amplitude = 4.0
potential.width = 1.0
flow.t_values = 0, 1, 2
"""
    config = ExperimentConfig.from_text(text)
    report = run_study(config)
    assert report.header == ("t", "index", "eigenvalue")
    for row in report.rows:
        assert abs(row[2]) < 1.0


def test_oracle_lines():
    config = ExperimentConfig.from_text(ORACLE_TEXT)
    lines = oracle_lines(config)
    assert any("weyl_coefficient" in ln for ln in lines)
    assert any("phase_space_volume" in ln for ln in lines)


# ---------------------------------------------------------------------------
# CSV and output emission
# ---------------------------------------------------------------------------

def test_csv_round_trip_exact():
    config = ExperimentConfig.from_text(WEYL_TEXT)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_study(config)
    text = report_csv_text(report)
    header, rows = parse_report_csv(text)
    assert header == report.header
    for parsed, original in zip(rows, report.rows):
        for a, b in zip(parsed, original):
            if b is None:
                assert a is None
            else:
                assert a == b  # exact: 17 significant digits round-trip


def test_csv_round_trip_keeps_integral_floats():
    from gapcount.harness import CountingReport

    weyl = CountingReport("weyl", ("alpha", "n_bs", "n_flow", "prediction", "ratio"),
                          [(5.0, 3, None, 2.0, 1.5), (40.0, 12, 12, 16.0, 0.75)])
    box = CountingReport("box", ("beta", "count", "prediction", "ratio"),
                         [(2.0, 0, 0.5, 0.0), (4.0, 1, 2.25, 1.0)])
    trace = CountingReport("flow-trace", ("t", "index", "eigenvalue"),
                           [(0.0, 0, -1.0), (2.0, 1, 0.5)])
    cross = CountingReport("crossterm", ("alpha", "i", "j", "count", "normalized"),
                           [(2.0, 1, 2, 4, 2.0)])
    assert report_csv_text(weyl).splitlines()[1] == "5,3,,2,1.5"
    for report in (weyl, box, trace, cross):
        text = report_csv_text(report)
        header, rows = parse_report_csv(text)
        assert header == report.header
        assert rows == report.rows
        for parsed, original in zip(rows, report.rows):
            assert [type(v) for v in parsed] == [type(v) for v in original]
        assert report_csv_text(CountingReport(report.study, header, rows)) == text


def test_empty_report_is_header_only():
    from gapcount.harness import CountingReport

    report = CountingReport("weyl", ("alpha", "n_bs"), [])
    assert report_csv_text(report) == "alpha,n_bs\n"


def test_emit_outputs_and_determinism(tmp_path):
    config = ExperimentConfig.from_text(WEYL_TEXT)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_study(config)
    paths1 = emit_outputs(report, tmp_path / "run1", config)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report2 = run_study(config)
    paths2 = emit_outputs(report2, tmp_path / "run2", config)
    assert paths1["csv"].read_bytes() == paths2["csv"].read_bytes()
    assert paths1["svg"].read_bytes() == paths2["svg"].read_bytes()
    assert paths1["echo"].read_text() == WEYL_TEXT
    svg = paths1["svg"].read_text()
    assert svg.startswith("<svg") and "polyline" in svg


# report bytes of the dense-eigenvalue flow and box counts that inertia
# counting replaced; the SVG is pinned by its SHA-256
WEYL_FLOW_CSV = ("alpha,n_bs,n_flow,prediction,ratio\n"
                 "2,1,1,2,0.5\n4,3,3,4,0.75\n8,5,5,8,0.625\n")
WEYL_FLOW_SVG_SHA256 = "f340d62a7c04f22640ddcefe12f66e517ab5388932510d85381a9fa9cf932c44"
BOX_CSV = ("beta,count,prediction,ratio\n2,0,0.55132889542179209,0\n"
           "4,1,2.2053155816871683,0.45344984105855446\n")
BOX_SVG_SHA256 = "307b2bb24c2b80b51bdd11dfb1ccbfaa7ba25cff05604dbc7609973cbfdbb82f"


def _blas_threads_text() -> str:
    """run_meta.txt's blas_threads value for the pools' current thread counts."""
    counts = blas_threads()
    return ", ".join(f"{package}={n}" for package, n in counts.items()) or "unknown"


def _assert_process_keys(meta, threads):
    # the pools are back at the thread counts they had before the study
    assert meta["blas_threads"] == threads
    assert meta["blas_thread_timeout"] == os.environ["OPENBLAS_THREAD_TIMEOUT"]
    assert float(meta["peak_rss_mb"]) > 0.0


def test_run_meta_records_the_blas_thread_timeout(tmp_path, monkeypatch):
    # the value in the process environment, which importing gapcount sets
    # unless it was set before; "unset" when it is absent
    config = ExperimentConfig.from_text(BOX_TEXT)
    report = run_study(config)

    def recorded(name):
        meta_path = emit_outputs(report, tmp_path / name, config)["meta"]
        meta = dict(line.split(" = ", 1) for line in meta_path.read_text().splitlines())
        return meta["blas_thread_timeout"]

    monkeypatch.setenv("OPENBLAS_THREAD_TIMEOUT", "20")
    assert recorded("set") == "20"
    monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT")
    assert recorded("absent") == "unset"


# the largest dimension factored: none for the flow, whose every count is a
# certified Krylov count, and the beta = 4 box block's complement onto one
# spinor component, its 16 nodes
@pytest.mark.parametrize("text,runner,method_key,method,seconds_key,dim_key,dim,csv,svg_sha", [
    (WEYL_TEXT + "study.with_flow = true\n", run_study, "flow_count_method", "krylov",
     "flow_seconds", "flow_factor_dim", None, WEYL_FLOW_CSV, WEYL_FLOW_SVG_SHA256),
    (BOX_TEXT, run_study, "box_count_method", "ldl-inertia", "box_count_seconds",
     "box_factor_dim", 16, BOX_CSV, BOX_SVG_SHA256),
], ids=["weyl-flow", "box"])
def test_run_meta_records_inertia_counts(tmp_path, text, runner, method_key, method,
                                         seconds_key, dim_key, dim, csv, svg_sha):
    import hashlib

    config = ExperimentConfig.from_text(text)
    threads = _blas_threads_text()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = runner(config)
    paths = emit_outputs(report, tmp_path, config)
    meta = dict(line.split(" = ", 1)
                for line in paths["meta"].read_text().splitlines())
    assert meta[method_key] == method
    assert float(meta[seconds_key]) >= 0.0
    if dim is None:
        assert dim_key not in meta and "inertia_residual_max" not in meta
        assert float(meta["flow_certificate_min"]) > DEGENERACY_TOL
        assert int(meta["flow_krylov_columns"]) > 0
        nodes = config.grid.n_points ** 2
        for count in ("bs", "flow"):
            assert 0 < int(meta[f"{count}_support_nodes"]) <= nodes
            assert 0.0 <= float(meta[f"{count}_support_bound"]) <= 1e-9
    else:
        assert 0.0 <= float(meta["inertia_residual_max"]) <= 1e-8
        assert int(meta[dim_key]) == dim
    _assert_process_keys(meta, threads)
    assert paths["csv"].read_text() == csv
    assert hashlib.sha256(paths["svg"].read_bytes()).hexdigest() == svg_sha


@pytest.mark.parametrize("corner,side,betas,eliminations", [
    ("0.0", "1.0", "2, 4", 1),  # BOX_TEXT: boxes from the origin, nested
    ("1.0", "0.5", "2, 3", 2),  # [2, 3)^2 and [3, 4.5)^2 share no node
], ids=["nested", "disjoint"])
def test_run_meta_records_box_eliminations(tmp_path, corner, side, betas, eliminations):
    text = (BOX_TEXT.replace("box.corner_x = 0.0", f"box.corner_x = {corner}")
            .replace("box.corner_y = 0.0", f"box.corner_y = {corner}")
            .replace("box.side = 1.0", f"box.side = {side}")
            .replace("box.betas = 2, 4", f"box.betas = {betas}"))
    config = ExperimentConfig.from_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_study(config)
    meta = dict(line.split(" = ", 1)
                for line in emit_outputs(report, tmp_path, config)["meta"].read_text()
                .splitlines())
    assert int(meta["box_eliminations"]) == eliminations
    assert int(meta["box_factor_dim"]) > 0


def test_run_meta_records_flow_factor_dim(tmp_path):
    # a coupling whose 1/alpha is an eigenvalue of the Birman-Schwinger
    # operator puts an eigenvalue of D(alpha) at the gap point: that flow
    # count falls back to the inertia of the 2n^2 x 2n^2 operator
    from gapcount import birman_schwinger, hermitian_eigenvalues
    from gapcount.operators import assemble_dense

    config = ExperimentConfig.from_text(WEYL_TEXT)
    dense = assemble_dense(birman_schwinger(config.grid, config.model, config.potential))
    alpha = 1.0 / hermitian_eigenvalues(dense)[2]
    text = WEYL_TEXT.replace("alpha.values = 2, 4, 8", f"alpha.values = 2, {alpha:.17g}")
    config = ExperimentConfig.from_text(text + "study.with_flow = true\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_study(config)
    paths = emit_outputs(report, tmp_path, config)
    meta = dict(line.split(" = ", 1)
                for line in paths["meta"].read_text().splitlines())
    assert meta["flow_count_method"] == "ldl-inertia"
    assert int(meta["flow_factor_dim"]) == config.grid.dimension == 288
    assert 0.0 <= float(meta["inertia_residual_max"]) <= 1e-8
    assert float(meta["flow_certificate_min"]) == 0.0
    assert report.degenerate
    # studies without flow record no flow keys
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plain = run_study(ExperimentConfig.from_text(WEYL_TEXT))
    assert not any(key.startswith("flow_") for key in plain.metadata)


THEOREM2_TEXT = """
study = theorem2
grid.n_points = 12
grid.box_side = 16.0
model.mass = 1.0
model.gap_point = 0.0
potential.kind = powerdecay
potential.exponent = 1.0
potential.psi_constant = 2.0
alpha.values = 2, 4
localization.eps2 = 1.0
"""
# report bytes of the studies whose dense blocks were FFT-assembled column by
# column before the kernel gather replaced it; the SVG is pinned by its SHA-256
THEOREM2_CSV = ("alpha,n_bs,n_flow,prediction,ratio\n"
                "2,5,,6.2831853071795827,0.7957747154594772\n"
                "4,22,,25.132741228718331,0.87535218700542483\n")
THEOREM2_SVG_SHA256 = "a05b22a606e4a96278c4849663528ba2e33395194105bedc32fa8340f643fce6"
CROSS_CSV = ("alpha,i,j,count,normalized\n"
             "2,1,2,2,0.5\n2,2,1,2,0.5\n2,1,3,0,0\n2,3,1,0,0\n2,2,3,6,1.5\n2,3,2,6,1.5\n"
             "4,1,2,8,0.5\n4,2,1,8,0.5\n4,1,3,0,0\n4,3,1,0,0\n4,2,3,12,0.75\n"
             "4,3,2,12,0.75\n")
CROSS_SVG_SHA256 = "845cd0950f6f1deca2c1d91d30ed3d6db2e6aa9414dd4da7adfb8cbfd2d7b840"


@pytest.mark.parametrize("text,runner,csv,svg_sha", [
    (THEOREM2_TEXT, run_study, THEOREM2_CSV, THEOREM2_SVG_SHA256),
    (CROSS_TEXT, run_study, CROSS_CSV, CROSS_SVG_SHA256),
], ids=["theorem2", "crossterm"])
def test_report_bytes_pinned(tmp_path, text, runner, csv, svg_sha):
    import hashlib

    config = ExperimentConfig.from_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = runner(config)
    paths = emit_outputs(report, tmp_path, config)
    assert paths["csv"].read_text() == csv
    assert hashlib.sha256(paths["svg"].read_bytes()).hexdigest() == svg_sha


def test_run_meta_records_crossterm_count_seconds(tmp_path):
    config = ExperimentConfig.from_text(CROSS_TEXT)
    threads = _blas_threads_text()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_study(config)
    paths = emit_outputs(report, tmp_path, config)
    meta = dict(line.split(" = ", 1)
                for line in paths["meta"].read_text().splitlines())
    assert meta["crossterm_count_method"] == "ldl-inertia"
    assert 0.0 <= float(meta["inertia_residual_max"]) <= 1e-8
    assert float(meta["crossterm_count_seconds"]) >= 0.0
    assert "svd_seconds" not in meta
    # no singular value within the tolerance of any threshold: every
    # bracket's window is free, and its half-width is the tolerance
    assert float(meta["svd_certificate_min"]) == DEGENERACY_TOL
    assert not report.degenerate
    _assert_process_keys(meta, threads)
    assert paths["csv"].read_text() == CROSS_CSV


# plot bytes of a flow-trace report with fixed rows, so no eigensolve runs
FLOW_TRACE_SVG_SHA256 = "d6912df490173fe4a7dcfaec6bed30770e453369773fbbe8dd10f7a6fe2089e9"


def test_flow_trace_plot_bytes_pinned(tmp_path):
    import hashlib

    from gapcount.harness import CountingReport

    config = ExperimentConfig.from_text(WEYL_TEXT.replace("study = weyl", "study = flow-trace")
                                        .replace("alpha.values = 2, 4, 8",
                                                 "flow.t_values = 0, 1, 2"))
    report = CountingReport("flow-trace", ("t", "index", "eigenvalue"),
                            [(0.0, 0, -0.5), (0.0, 1, 0.25), (1.0, 0, -0.75), (1.0, 1, 0.0),
                             (1.0, 2, 0.5), (2.0, 0, -0.875), (2.0, 1, -0.25)])
    paths = emit_outputs(report, tmp_path, config)
    assert hashlib.sha256(paths["svg"].read_bytes()).hexdigest() == FLOW_TRACE_SVG_SHA256


def test_flow_trace_eigenvalues_match_column_oracle():
    from oracles import perturbed_dense

    config = ExperimentConfig.from_text(FLOW_TRACE_TEXT)
    report = run_study(config)
    m = config.model.mass
    tol = 1e-12
    for t in config.t_values:
        ev = np.linalg.eigvalsh(perturbed_dense(config.grid, config.model,
                                                config.potential, t))
        got = np.asarray([row[2] for row in report.rows if row[0] == t])
        assert [row[1] for row in report.rows if row[0] == t] == list(range(len(got)))
        assert np.all(np.diff(got) >= 0)
        # every reported value is an oracle eigenvalue; at t = 0 the band
        # edges +-m are eigenvalues, so which side of m they land on is
        # rounding, and the count is compared away from the edges
        assert np.abs(got[:, None] - ev).min(axis=1).max(initial=0.0) <= tol
        inner = ev[np.abs(ev) < m - tol]
        assert np.count_nonzero(np.abs(got) < m - tol) == len(inner)
        assert np.abs(got[np.abs(got) < m - tol] - inner).max(initial=0.0) <= tol


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_weyl_study(tmp_path, capsys):
    cfg = _write(tmp_path, "weyl.cfg", WEYL_TEXT)
    code = cli_main(["weyl", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "report.csv").exists()
    assert (tmp_path / "out" / "config.echo").read_text() == WEYL_TEXT
    assert (tmp_path / "out" / "plot.svg").exists()
    # --workers is hidden and accepts only 1, the value the benchmark passes
    assert cli_main(["weyl", "--config", cfg, "--out", str(tmp_path / "w1"),
                     "--workers", "1"]) == 0
    assert (tmp_path / "w1" / "report.csv").read_bytes() == \
        (tmp_path / "out" / "report.csv").read_bytes()
    with pytest.raises(SystemExit) as exc:
        cli_main(["weyl", "--config", cfg, "--out", str(tmp_path / "w2"),
                  "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" not in build_parser().format_help()


def test_cli_oracle_prints(tmp_path, capsys):
    cfg = _write(tmp_path, "o.cfg", ORACLE_TEXT)
    code = cli_main(["oracle", "--config", cfg])
    assert code == 0
    out = capsys.readouterr().out
    assert "weyl_coefficient" in out


def test_cli_oracle_computes_its_lines_once(tmp_path, capsys, monkeypatch):
    import gapcount.cli as cli

    calls = []
    lines = cli.oracle_lines
    monkeypatch.setattr(cli, "oracle_lines", lambda config: calls.append(1) or lines(config))
    cfg = _write(tmp_path, "o.cfg", ORACLE_TEXT)
    capsys.readouterr()
    assert cli_main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1
    assert (tmp_path / "o" / "oracle.txt").read_text() == capsys.readouterr().out


def test_cli_config_error_exit_code(tmp_path):
    cfg = _write(tmp_path, "bad.cfg", "study = weyl\n")
    assert cli_main(["weyl", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert cli_main(["weyl", "--config", str(tmp_path / "missing.cfg"),
                     "--out", str(tmp_path / "o")]) == 2


_WITHOUT_POTENTIAL = "\n".join(line for line in WEYL_TEXT.splitlines()
                               if not line.startswith("potential."))


@pytest.mark.parametrize("study,text", [
    ("weyl", _WITHOUT_POTENTIAL),
    ("flow-trace", _WITHOUT_POTENTIAL.replace("study = weyl", "study = flow-trace")
     .replace("alpha.values = 2, 4, 8", "flow.t_values = 0, 1")),
    ("oracle", _WITHOUT_POTENTIAL.replace("study = weyl", "study = oracle")
     .replace("alpha.values = 2, 4, 8", "")),
    ("oracle", ORACLE_TEXT + "box.tau = -1\n"),
    ("oracle", ORACLE_TEXT + "box.tau = 0.5\nbox.side = -1\n"),
    # the width's square underflows to 0, which made the oracle print nan
    ("oracle", ORACLE_TEXT
     .replace("potential.width = 1.0", "potential.width = 1e-300")),
    # a finite potential whose law overflows, which the oracle printed as inf
    ("oracle", ORACLE_TEXT
     .replace("potential.amplitude = 4.0", "potential.amplitude = 1e300")
     .replace("potential.width = 1.0", "potential.width = 1e10")),
], ids=["weyl-no-potential", "flow-trace-no-potential", "oracle-no-potential",
        "oracle-negative-tau", "oracle-negative-side", "oracle-width-1e-300",
        "oracle-infinite-law"])
def test_cli_malformed_config_is_a_config_error(tmp_path, capsys, study, text):
    cfg = _write(tmp_path, "bad.cfg", text)
    capsys.readouterr()
    assert cli_main([study, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


@pytest.mark.parametrize("extra,unknown", [
    ("study.with_flwo = true\n", ["study.with_flwo"]),
    ("potential.centre_x = 1.5\n", ["potential.centre_x"]),
    # a key of another potential kind is not read either
    ("potential.radius = 2.0\n", ["potential.radius"]),
    ("grid.npoints = 16\nbox.corner = 1\n", ["box.corner", "grid.npoints"]),
    # alpha.values wins over a range, which is then not read
    ("alpha.min = 1\nalpha.max = 2\nalpha.count = 2\n",
     ["alpha.count", "alpha.max", "alpha.min"]),
], ids=["misspelt-flag", "misspelt-center", "other-kind", "two-keys", "shadowed-range"])
def test_cli_unknown_key_is_a_config_error(tmp_path, capsys, extra, unknown):
    # ignoring an unread key would run the weyl study without its flow, or
    # leave the Gaussian at the origin
    with pytest.raises(ConfigError) as caught:
        ExperimentConfig.from_text(WEYL_TEXT + extra)
    assert str(caught.value) == f"unknown or unused keys: {', '.join(unknown)}"
    cfg = _write(tmp_path, "bad.cfg", WEYL_TEXT + extra)
    capsys.readouterr()
    assert cli_main(["weyl", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"config error: unknown or unused keys: {', '.join(unknown)}"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("study,text", [
    ("box", BOX_TEXT),
    ("crossterm", CROSS_TEXT),
    ("flow-trace", FLOW_TRACE_TEXT),
])
def test_cli_flow_switch_outside_the_counting_studies_is_a_config_error(tmp_path, capsys,
                                                                        study, text):
    # only weyl and theorem2 have a flow cross-check to switch on
    cfg = _write(tmp_path, "flow.cfg", text + "study.with_flow = true\n")
    capsys.readouterr()
    assert cli_main([study, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: unknown or unused keys: study.with_flow"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("study,text,extra,unknown", [
    ("box", BOX_TEXT, "alpha.values = 2, 4\n", "alpha.values"),
    ("box", BOX_TEXT, "potential.kind = gaussian\npotential.amplitude = 1.0\n"
     "potential.width = 1.0\n", "potential.amplitude, potential.kind, potential.width"),
    ("weyl", WEYL_TEXT, "box.tau = 0.5\n", "box.tau"),
    ("weyl", WEYL_TEXT, "flow.t_values = 0, 1\n", "flow.t_values"),
    ("theorem2", THEOREM2_TEXT, "localization.eps1 = 0.3\n", "localization.eps1"),
    ("crossterm", CROSS_TEXT, "box.betas = 2, 4\n", "box.betas"),
    ("flow-trace", FLOW_TRACE_TEXT, "alpha.values = 2, 4\n", "alpha.values"),
    ("oracle", ORACLE_TEXT, "alpha.values = 2, 4\n", "alpha.values"),
    ("oracle", ORACLE_TEXT, "dense_cap = 100\n", "dense_cap"),
], ids=["box-alpha", "box-potential", "weyl-tau", "weyl-t-values", "theorem2-eps1",
        "crossterm-betas", "flow-trace-alpha", "oracle-alpha", "oracle-dense-cap"])
def test_cli_key_of_another_study_is_a_config_error(tmp_path, capsys, study, text, extra,
                                                    unknown):
    # each study reads only its own keys: a key of another study is
    # refused, not silently ignored
    cfg = _write(tmp_path, "other.cfg", text + extra)
    capsys.readouterr()
    assert cli_main([study, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: unknown or unused keys: {unknown}"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("cap", ["-1", "0"])
def test_cli_non_positive_dense_cap_is_a_config_error(tmp_path, capsys, cap):
    # a malformed value, not a resource limit (exit 3, "grid dimension 288
    # exceeds the dense cap -1")
    cfg = _write(tmp_path, "bad.cfg", WEYL_TEXT + f"dense_cap = {cap}\n")
    capsys.readouterr()
    assert cli_main(["weyl", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"config error: dense_cap must be positive, got {cap}"]


@pytest.mark.parametrize("old,new", [
    ("alpha.values = 2, 4, 8", "alpha.values = 2, 4, nan"),
    ("alpha.values = 2, 4, 8", "alpha.values = 2, 4, inf"),
    ("potential.amplitude = 4.0", "potential.amplitude = nan"),
    ("grid.box_side = 12.0", "grid.box_side = inf"),
    ("potential.width = 1.0", "potential.width = inf"),
], ids=["alpha-nan", "alpha-inf", "amplitude-nan", "box-side-inf", "width-inf"])
def test_cli_non_finite_number_is_a_config_error(tmp_path, capsys, old, new):
    cfg = _write(tmp_path, "bad.cfg", WEYL_TEXT.replace(old, new))
    capsys.readouterr()
    assert cli_main(["weyl", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:")
    assert "not a finite number" in lines[0] and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("old,new,message", [
    ("potential.width = 1.0", "potential.width = 1e-300", "not finite"),
    ("potential.amplitude = 4.0", "potential.amplitude = 1e300", "norm bound"),
    # the width's square overflows, which a float power raised as OverflowError
    ("potential.width = 1.0", "potential.width = 1e200", "not finite"),
], ids=["width-1e-300", "amplitude-1e300", "width-1e200"])
def test_cli_extreme_potential_is_a_config_error(tmp_path, capsys, old, new, message):
    # finite parameters whose potential is nan somewhere, or whose
    # Birman-Schwinger operator is too large for the Krylov counts
    cfg = _write(tmp_path, "bad.cfg", WEYL_TEXT.replace(old, new))
    capsys.readouterr()
    assert cli_main(["weyl", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:")
    assert message in lines[0] and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def _over_budget_ray(params, spec, theta):
    return 1.0, 1.0  # a radial quadrature error far above the 1e-6 budget


def _unit_radial_rule(fn, rmax, panels, order, breakpoints=()):
    return 1.0  # phase-space volume 0.5 against the Weyl coefficient 1 of WEYL_TEXT


@pytest.mark.parametrize("study,text,name,oracle,message", [
    ("theorem2", THEOREM2_TEXT, "_radial_integral", _over_budget_ray, "budget"),
    ("oracle", THEOREM2_TEXT.replace("study = theorem2", "study = oracle")
     .replace("alpha.values = 2, 4\nlocalization.eps2 = 1.0\n", ""),
     "_radial_integral", _over_budget_ray, "budget"),
    ("weyl", WEYL_TEXT, "_composite_gl_radial", _unit_radial_rule, "disagree"),
], ids=["theorem2-over-budget", "oracle-over-budget", "weyl-identity-fails"])
def test_cli_law_that_cannot_be_evaluated_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                            study, text, name, oracle,
                                                            message):
    import gapcount.asymptotic as asymptotic

    monkeypatch.setattr(asymptotic, name, oracle)
    cfg = _write(tmp_path, "law.cfg", text)
    capsys.readouterr()
    assert cli_main([study, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:")
    assert message in lines[0] and "Traceback" not in captured.err
    assert captured.out == "" and not (tmp_path / "o").exists()


def test_cli_counting_study_needs_out(tmp_path, capsys):
    cfg = _write(tmp_path, "weyl.cfg", WEYL_TEXT)
    capsys.readouterr()
    assert cli_main(["weyl", "--config", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and "--out" in err[0]


def test_cli_out_of_memory_is_a_resource_error(tmp_path, capsys, monkeypatch):
    import gapcount.cli as cli

    def exhausted(config):
        raise MemoryError

    monkeypatch.setattr(cli, "run_study", exhausted)
    cfg = _write(tmp_path, "weyl.cfg", WEYL_TEXT)
    capsys.readouterr()
    assert cli_main(["weyl", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.splitlines() == ["resource error: out of memory"]
    assert not (tmp_path / "o").exists()


def test_every_counting_study_has_a_runner():
    from gapcount import harness
    from gapcount.config import STUDIES

    assert set(harness.RUNNERS) == set(STUDIES) - {"oracle"}
    config = ExperimentConfig.from_text(ORACLE_TEXT)
    with pytest.raises(ConfigError, match="oracle"):
        run_study(config)


def test_cli_study_mismatch(tmp_path):
    cfg = _write(tmp_path, "weyl.cfg", WEYL_TEXT)
    assert cli_main(["box", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_cli_cap_exceeded_exit_code(tmp_path):
    # the flow trace gathers a grid-sized matrix
    text = (FLOW_TRACE_TEXT.replace("grid.n_points = 12", "grid.n_points = 32")
            + "dense_cap = 500\n")
    cfg = _write(tmp_path, "big.cfg", text)
    assert cli_main(["flow-trace", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_flow_count_is_not_refused_over_the_cap(tmp_path):
    # a certified flow count gathers nothing dense, and its fallback would
    # meet the cap in assemble_dense: dimension 2048 runs under a cap of 500
    text = (WEYL_TEXT.replace("grid.n_points = 12", "grid.n_points = 32")
            + "study.with_flow = true\ndense_cap = 500\n")
    cfg = _write(tmp_path, "big.cfg", text)
    assert cli_main(["weyl", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    rows = parse_report_csv((tmp_path / "o" / "report.csv").read_text())[1]
    assert [(row[1], row[2]) for row in rows] == [(1, 1), (3, 3), (7, 7)]


@pytest.mark.parametrize("text", [FLOW_TRACE_TEXT, CROSS_TEXT], ids=["flow-trace", "crossterm"])
def test_grid_over_the_cap_evaluates_no_potential(monkeypatch, text):
    # n = 72 is dimension 10368, over the default cap, which a grid-sized
    # dense matrix must meet: refused before V is evaluated on the n^2 mesh
    import gapcount.config as config

    evaluated = []
    evaluate = config.potential_on_grid
    monkeypatch.setattr(config, "potential_on_grid",
                        lambda grid, spec: evaluated.append(grid) or evaluate(grid, spec))
    with pytest.raises(DenseCapExceededError, match="grid dimension 10368"):
        ExperimentConfig.from_text(text.replace("grid.n_points = 12", "grid.n_points = 72"))
    assert evaluated == []


def test_cli_box_block_over_the_cap_is_a_resource_error(tmp_path, capsys):
    # the beta = 4 block has dimension 32 (2 x 16 nodes); the cap is checked
    # when the config loads, before any block is gathered
    cfg = _write(tmp_path, "box.cfg", BOX_TEXT + "dense_cap = 31\n")
    capsys.readouterr()
    assert cli_main(["box", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("resource error:")
    assert "32" in err[0]
    assert not (tmp_path / "o").exists()
    ExperimentConfig.from_text(BOX_TEXT + "dense_cap = 32\n")


def test_box_cap_applies_to_the_largest_block():
    # the largest block of the n = 64 box study: beta = 14, (2 * 14)^2 nodes
    text = BOX_TEXT.replace("grid.n_points = 16", "grid.n_points = 64").replace(
        "grid.box_side = 16.0", "grid.box_side = 32.0").replace(
        "box.corner_x = 0.0\nbox.corner_y = 0.0",
        "box.corner_x = -0.01\nbox.corner_y = -0.01").replace(
        "box.betas = 2, 4", "box.betas = 2, 4, 6, 8, 10, 12, 14")
    ExperimentConfig.from_text(text + "dense_cap = 1568\n")
    with pytest.raises(DenseCapExceededError, match="box block dimension 1568"):
        ExperimentConfig.from_text(text + "dense_cap = 1567\n")


@pytest.mark.parametrize("text", [WEYL_TEXT, THEOREM2_TEXT], ids=["weyl", "theorem2"])
def test_matrix_free_count_is_not_refused_over_the_cap(tmp_path, text):
    # without the flow nothing grid-sized is dense: a grid of dimension 288
    # runs under a cap of 100 and gives the counts it gives under the default
    study = "weyl" if "study = weyl" in text else "theorem2"
    cfg = _write(tmp_path, "capped.cfg", text + "dense_cap = 100\n")
    assert cli_main([study, "--config", cfg, "--out", str(tmp_path / "capped")]) == 0
    cfg = _write(tmp_path, "default.cfg", text)
    assert cli_main([study, "--config", cfg, "--out", str(tmp_path / "default")]) == 0
    capped = (tmp_path / "capped" / "report.csv").read_text()
    assert capped == (tmp_path / "default" / "report.csv").read_text()


def test_cli_uncertified_bs_count_is_a_resource_error(tmp_path, capsys, monkeypatch):
    # the matrix-free count is not refused over the cap, but an 8-column
    # basis certifies nothing, and the dense fallback on the support of W,
    # 127 of the 144 nodes (dimension 254), is over the cap of 100
    import gapcount.spectra as spectra

    monkeypatch.setattr(spectra, "_column_cap", lambda dim: 8)
    cfg = _write(tmp_path, "weyl.cfg", WEYL_TEXT + "dense_cap = 100\n")
    capsys.readouterr()
    assert cli_main(["weyl", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("resource error:")
    assert "8 Krylov columns" in err[0]
    assert "support of W (127 nodes) at dimension 254 exceeds dense_cap = 100" in err[0]
    assert not (tmp_path / "o").exists()


def test_cli_degenerate_threshold_exit_code(tmp_path, capsys):
    # pick a coupling whose inverse hits an eigenvalue of the sandwich exactly
    from gapcount import (
        Gaussian,
        ModelParams,
        birman_schwinger,
        build_grid,
        hermitian_eigenvalues,
    )
    from gapcount.operators import assemble_dense

    grid = build_grid(12, 12.0)
    params = ModelParams(1.0, 0.0)
    dense = assemble_dense(birman_schwinger(grid, params, Gaussian(4.0, 1.0)))
    eig = hermitian_eigenvalues(dense)[2]
    alpha = 1.0 / eig
    text = WEYL_TEXT.replace("alpha.values = 2, 4, 8",
                             f"alpha.values = {alpha:.17g}")
    for flow in ("", "study.with_flow = true\n"):
        cfg = _write(tmp_path, "deg.cfg", text + flow)
        capsys.readouterr()
        code = cli_main(["weyl", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 4
        assert (tmp_path / "o" / "report.csv").exists()
        named = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("warning:") and f"alpha = {alpha:.17g}" in line]
        assert len(named) == (2 if flow else 1)  # Birman-Schwinger, then flow


def test_cli_degenerate_flow_trace_exit_code(tmp_path, capsys):
    # the last coupling puts the third Birman-Schwinger eigenvalue on the gap point
    from gapcount import Gaussian, ModelParams, birman_schwinger, build_grid, \
        hermitian_eigenvalues
    from gapcount.operators import assemble_dense

    grid = build_grid(12, 12.0)
    dense = assemble_dense(birman_schwinger(grid, ModelParams(1.0, 0.0),
                                            Gaussian(4.0, 1.0)))
    alpha = 1.0 / hermitian_eigenvalues(dense)[2]
    text = WEYL_TEXT.replace("study = weyl", "study = flow-trace").replace(
        "alpha.values = 2, 4, 8", f"flow.t_values = 0, 1, {alpha:.17g}")
    cfg = _write(tmp_path, "deg.cfg", text)
    capsys.readouterr()
    assert cli_main(["flow-trace", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert (tmp_path / "o" / "report.csv").exists()
    warned = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("warning:")]
    assert len(warned) == 1 and f"alpha = {alpha:.17g}" in warned[0]


def test_cli_degenerate_crossterm_threshold_exit_code(tmp_path, capsys):
    # epsilon/alpha at alpha = 2 is the second singular value of the (1, 2) block
    from gapcount import LocalizationSpec, birman_schwinger, restricted_block, zone_masks

    config = ExperimentConfig.from_text(CROSS_TEXT)
    masks = zone_masks(config.grid, LocalizationSpec(config.eps1, config.eps2, 2.0,
                                                     config.potential.exponent))
    block = restricted_block(birman_schwinger(config.grid, config.model, config.potential),
                             np.flatnonzero(masks[0]), np.flatnonzero(masks[1]))
    sigma = singular_values(block)[1]
    text = CROSS_TEXT.replace("localization.epsilon = 0.5",
                              f"localization.epsilon = {2.0 * sigma:.17g}")
    cfg = _write(tmp_path, "deg.cfg", text)
    capsys.readouterr()
    assert cli_main(["crossterm", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    warned = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("warning:") and "degenerate" in line]
    assert len(warned) == 1
    assert "alpha = 2," in warned[0] and "zones (1, 2)" in warned[0]
    meta = dict(line.split(" = ", 1)
                for line in (tmp_path / "o" / "run_meta.txt").read_text().splitlines())
    assert float(meta["svd_certificate_min"]) == 0.0


@pytest.mark.parametrize("text,n", [(WEYL_TEXT, 12), (THEOREM2_TEXT, 12), (WEYL_TEXT, 24)],
                         ids=["weyl", "theorem2", "weyl-resolved"])
def test_lattice_cutoff_warning_compares_the_momenta(tmp_path, text, n):
    from gapcount.harness import LatticeCutoffWarning

    config = ExperimentConfig.from_text(text.replace("grid.n_points = 12",
                                                     f"grid.n_points = {n}"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_study(config)
    cutoff = np.pi * n / config.grid.box_side
    # max V is 4 (Gaussian) or 2 (power decay) at the origin, a grid node
    top = float(config.alphas[-1]) * config.potential_max
    assert config.potential_max == (4.0 if config.study == "weyl" else 2.0)
    allowed = (top * top - 1.0) ** 0.25
    meta = dict(line.split(" = ", 1) for line in
                emit_outputs(report, tmp_path, config)["meta"].read_text().splitlines())
    assert float(meta["lattice_cutoff"]) == cutoff
    assert float(meta["max_allowed_momentum"]) == allowed
    cutoffs = [w for w in caught if issubclass(w.category, LatticeCutoffWarning)]
    assert issubclass(LatticeCutoffWarning, UserWarning)
    assert len(cutoffs) == (cutoff < allowed) == (n == 12)
    if cutoffs:
        assert f"alpha_max = {config.alphas[-1]:g}:" in str(cutoffs[0].message)


def test_lattice_cutoff_is_not_exceeded_below_the_band():
    # lambda + alpha max V below m: no momentum is classically allowed
    config = ExperimentConfig.from_text(WEYL_TEXT.replace("alpha.values = 2, 4, 8",
                                                          "alpha.values = 0.1, 0.2"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_study(config)
    assert report.metadata["max_allowed_momentum"] == 0.0
    assert not caught


def test_ratio_warning_prints_plain_numbers():
    config = ExperimentConfig.from_text(WEYL_TEXT)
    with pytest.warns(UserWarning, match="not monotone") as caught:
        run_study(config)
    text = str(caught[0].message)
    assert "np.float64" not in text and text.endswith("[0.5, 0.75, 0.625]")

@pytest.mark.parametrize("text,runner,csv,degree", [
    (WEYL_TEXT + "study.with_flow = true\n", run_study, WEYL_FLOW_CSV, 13),
    (THEOREM2_TEXT, run_study, THEOREM2_CSV, 7),
], ids=["weyl-flow", "theorem2"])
def test_run_meta_records_bs_count_method(tmp_path, text, runner, csv, degree):
    config = ExperimentConfig.from_text(text)
    threads = _blas_threads_text()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = runner(config)
    paths = emit_outputs(report, tmp_path, config)
    meta = dict(line.split(" = ", 1)
                for line in paths["meta"].read_text().splitlines())
    assert meta["bs_count_method"] == "krylov"
    assert float(meta["bs_certificate_min"]) >= 1e-8
    assert 0 < int(meta["krylov_columns"]) <= config.grid.dimension
    assert int(meta["krylov_block"]) == 2
    # the least odd degree whose filter reaches the gain at 1/alpha_max
    assert int(meta["krylov_filter_degree"]) == degree
    timed = {"bs_count_seconds", "oracle_seconds"} | (
        {"flow_seconds"} if config.with_flow else set())
    assert {key for key in meta if key.endswith("_seconds")} == timed | {"runtime_seconds"}
    assert all(float(meta[key]) >= 0.0 for key in timed)
    _assert_process_keys(meta, threads)
    assert paths["csv"].read_text() == csv


THEOREM2_N16_TEXT = """
study = theorem2
grid.n_points = 16
grid.box_side = 16.0
model.mass = 1.0
model.gap_point = 0.0
potential.kind = powerdecay
potential.exponent = 1.0
potential.psi_constant = 2.0
alpha.values = 2, 4
localization.eps2 = 1.0
"""


@pytest.mark.parametrize("text,runner", [
    (WEYL_TEXT.replace("grid.n_points = 12", "grid.n_points = 16"), run_study),
    (THEOREM2_N16_TEXT, run_study),
], ids=["weyl", "theorem2"])
def test_bs_studies_need_no_dense_matrix(monkeypatch, text, runner):
    import gapcount.spectra as spectra

    config = ExperimentConfig.from_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected = runner(config)

    def refuse(op, cap=None):
        raise AssertionError("dense assembly on the Birman-Schwinger path")

    monkeypatch.setattr(spectra, "assemble_dense", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = runner(config)
    assert report.metadata["bs_count_method"] == "krylov"
    assert report.rows == expected.rows
    assert not report.degenerate


def test_degenerate_coupling_counts_densely_and_is_flagged():
    from gapcount import birman_schwinger, hermitian_eigenvalues
    from gapcount.operators import assemble_dense

    config = ExperimentConfig.from_text(WEYL_TEXT)
    dense = assemble_dense(birman_schwinger(config.grid, config.model, config.potential))
    eig = hermitian_eigenvalues(dense)[2]
    config = ExperimentConfig.from_text(
        WEYL_TEXT.replace("alpha.values = 2, 4, 8", f"alpha.values = 2, {1.0 / eig:.17g}"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_study(config)
    assert report.degenerate
    assert report.metadata["bs_count_method"] == "dense"
    assert report.metadata["bs_certificate_min"] <= 1e-10


def _bs_bracket(offset):
    # 1/alpha lies offset above the third Birman-Schwinger eigenvalue; a
    # Ritz value that close sends the count to the dense path
    from gapcount import birman_schwinger
    from gapcount.operators import assemble_dense

    config = ExperimentConfig.from_text(WEYL_TEXT)
    ev = np.linalg.eigvalsh(assemble_dense(birman_schwinger(config.grid, config.model,
                                                            config.potential)))[::-1]
    config = ExperimentConfig.from_text(WEYL_TEXT.replace(
        "alpha.values = 2, 4, 8", f"alpha.values = {1.0 / (ev[2] + offset):.17g}"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_study(config)
    assert report.metadata["bs_count_method"] == "dense"
    expected = count_above(ev, 1.0 / float(config.alphas[0]))
    return (report.rows[0][1], report.degenerate, report.metadata["bs_certificate_min"],
            expected)


def _crossterm_bracket(offset):
    # epsilon/alpha at alpha = 2 lies offset above the second singular value
    # of the (1, 2) zone block
    from gapcount import LocalizationSpec, birman_schwinger, zone_masks

    config = ExperimentConfig.from_text(CROSS_TEXT)
    masks = zone_masks(config.grid, LocalizationSpec(config.eps1, config.eps2, 2.0,
                                                     config.potential.exponent))
    sigma = singular_values(restricted_block(birman_schwinger(
        config.grid, config.model, config.potential), np.flatnonzero(masks[0]),
        np.flatnonzero(masks[1])))
    config = ExperimentConfig.from_text(CROSS_TEXT.replace(
        "localization.epsilon = 0.5", f"localization.epsilon = {2.0 * (sigma[1] + offset):.17g}"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_study(config)
    row = next(row for row in report.rows if row[:3] == (2.0, 1, 2))
    return (row[3], report.degenerate, report.metadata["svd_certificate_min"],
            count_above(sigma, config.epsilon / 2.0))


def _flow_bracket(offset):
    # the gap point lies offset above an eigenvalue of D(alpha)
    from gapcount import Gaussian, crossing_count_detailed
    from oracles import perturbed_dense

    grid, spec, alpha = build_grid(12, 12.0), Gaussian(4.0, 1.0), 6.0
    end = np.linalg.eigvalsh(perturbed_dense(grid, ModelParams(1.0, 0.0), spec, alpha))
    lam = float(end[np.abs(end) < 1.0][0]) + offset
    params = ModelParams(1.0, lam)
    start = np.linalg.eigvalsh(perturbed_dense(grid, params, spec, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        detail = crossing_count_detailed(grid, params, spec, alpha)
    expected = int(np.count_nonzero(end < lam)) - int(np.count_nonzero(start < lam))
    return detail.count, detail.degenerate, None, expected


@pytest.mark.parametrize("offset", [5e-11, -5e-11, 2e-10, -2e-10])
@pytest.mark.parametrize("count", [_bs_bracket, _crossterm_bracket, _flow_bracket],
                         ids=["bs-dense", "crossterm", "flow"])
def test_inertia_bracket_flags_a_threshold_within_the_tolerance(count, offset):
    # a threshold 5e-11 from an eigenvalue (a singular value for crossterm)
    # is degenerate, one 2e-10 away is not; either way the strict count is exact
    got, degenerate, certificate, expected = count(offset)
    assert got == expected
    assert degenerate == (abs(offset) < DEGENERACY_TOL)
    if certificate is not None:
        assert certificate == (0.0 if degenerate else DEGENERACY_TOL)
