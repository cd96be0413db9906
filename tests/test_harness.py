import warnings

import numpy as np
import pytest

from gapcount import (
    ConfigError,
    ExperimentConfig,
    parse_config_text,
    parse_report_csv,
    report_csv_text,
    run_box_study,
    run_crossterm_study,
    run_flow_trace_study,
    run_theorem2_study,
    run_weyl_study,
)
from gapcount.cli import build_parser, main as cli_main
from gapcount.harness import emit_outputs, oracle_lines

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
potential.kind = gaussian
potential.amplitude = 1.0
potential.width = 1.0
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


def test_alpha_range_construction():
    text = WEYL_TEXT.replace(
        "alpha.values = 2, 4, 8",
        "alpha.min = 2\nalpha.max = 8\nalpha.count = 3\nalpha.log = true",
    )
    config = ExperimentConfig.from_text(text)
    assert config.alphas == pytest.approx([2.0, 4.0, 8.0])


def test_weyl_study_columns_and_prediction():
    config = ExperimentConfig.from_text(WEYL_TEXT)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_weyl_study(config)
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
        report = run_weyl_study(config)
    for row in report.rows:
        assert row[2] == row[1]


def test_zero_potential_study_all_zero():
    text = WEYL_TEXT.replace("potential.amplitude = 4.0", "potential.amplitude = 0.0")
    config = ExperimentConfig.from_text(text)
    report = run_weyl_study(config)
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
        report = run_theorem2_study(config)
    assert report.metadata["j_integral"] == pytest.approx(np.pi / 2, rel=1e-8)
    for row in report.rows:
        assert row[3] == pytest.approx(row[0] ** 2 * np.pi / 2, rel=1e-8)


def test_crossterm_study_adjoint_equality():
    config = ExperimentConfig.from_text(CROSS_TEXT)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_crossterm_study(config)
    assert report.header == ("alpha", "i", "j", "count", "normalized")
    table = {(row[0], row[1], row[2]): row[3] for row in report.rows}
    for a in (2.0, 4.0):
        for i, j in ((1, 2), (1, 3), (2, 3)):
            assert table[(a, i, j)] == table[(a, j, i)]


def test_box_study_rows_and_prediction():
    config = ExperimentConfig.from_text(BOX_TEXT)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_box_study(config)
    assert report.header == ("beta", "count", "prediction", "ratio")
    coeff = np.sqrt(3.0) / (4.0 * np.pi)
    for row, beta in zip(report.rows, (2.0, 4.0)):
        assert row[0] == beta
        assert row[2] == pytest.approx(beta ** 2 * coeff, rel=1e-12)


def test_box_study_rejects_escaping_box():
    text = BOX_TEXT.replace("box.betas = 2, 4", "box.betas = 2, 9")
    with pytest.raises(ConfigError, match="leaves the grid"):
        ExperimentConfig.from_text(text)


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
    report = run_flow_trace_study(config)
    assert report.header == ("t", "index", "eigenvalue")
    for row in report.rows:
        assert abs(row[2]) < 1.0


def test_oracle_lines():
    config = ExperimentConfig.from_text(WEYL_TEXT.replace("study = weyl", "study = oracle"))
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
        report = run_weyl_study(config)
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
        report = run_weyl_study(config)
    paths1 = emit_outputs(report, tmp_path / "run1", config)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report2 = run_weyl_study(config)
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


@pytest.mark.parametrize("text,runner,method_key,csv,svg_sha", [
    (WEYL_TEXT + "study.with_flow = true\n", run_weyl_study, "flow_count_method",
     WEYL_FLOW_CSV, WEYL_FLOW_SVG_SHA256),
    (BOX_TEXT, run_box_study, "box_count_method", BOX_CSV, BOX_SVG_SHA256),
], ids=["weyl-flow", "box"])
def test_run_meta_records_inertia_counts(tmp_path, text, runner, method_key, csv,
                                         svg_sha):
    import hashlib

    config = ExperimentConfig.from_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = runner(config)
    paths = emit_outputs(report, tmp_path, config)
    meta = dict(line.split(" = ", 1)
                for line in paths["meta"].read_text().splitlines())
    assert meta[method_key] == "ldl-inertia"
    assert 0.0 <= float(meta["inertia_residual_max"]) <= 1e-8
    assert paths["csv"].read_text() == csv
    assert hashlib.sha256(paths["svg"].read_bytes()).hexdigest() == svg_sha


def test_run_meta_records_flow_factor_dim(tmp_path):
    # each flow count factors the n^2 x n^2 Schur complement, not the 2n^2 operator
    config = ExperimentConfig.from_text(WEYL_TEXT + "study.with_flow = true\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_weyl_study(config)
    paths = emit_outputs(report, tmp_path, config)
    meta = dict(line.split(" = ", 1)
                for line in paths["meta"].read_text().splitlines())
    assert meta["flow_count_method"] == "ldl-inertia"
    assert int(meta["flow_factor_dim"]) == config.grid.n_points ** 2 == 144
    assert paths["csv"].read_text() == WEYL_FLOW_CSV
    # studies without flow record no flow keys
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plain = run_weyl_study(ExperimentConfig.from_text(WEYL_TEXT))
    assert "flow_factor_dim" not in plain.metadata


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
    (THEOREM2_TEXT, run_theorem2_study, THEOREM2_CSV, THEOREM2_SVG_SHA256),
    (CROSS_TEXT, run_crossterm_study, CROSS_CSV, CROSS_SVG_SHA256),
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


def test_flow_trace_eigenvalues_match_column_oracle():
    from oracles import dense_by_columns

    from gapcount.operators import perturbed_operator

    text = WEYL_TEXT.replace("study = weyl", "study = flow-trace").replace(
        "alpha.values = 2, 4, 8", "flow.t_values = 0, 1, 2")
    config = ExperimentConfig.from_text(text)
    report = run_flow_trace_study(config)
    m = config.model.mass
    tol = 1e-12
    for t in config.t_values:
        op = perturbed_operator(config.grid, config.model, config.potential, t)
        ev = np.linalg.eigvalsh(dense_by_columns(op))
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
    cfg = _write(tmp_path, "o.cfg", WEYL_TEXT.replace("study = weyl", "study = oracle"))
    code = cli_main(["oracle", "--config", cfg])
    assert code == 0
    out = capsys.readouterr().out
    assert "weyl_coefficient" in out


def test_cli_config_error_exit_code(tmp_path):
    cfg = _write(tmp_path, "bad.cfg", "study = weyl\n")
    assert cli_main(["weyl", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert cli_main(["weyl", "--config", str(tmp_path / "missing.cfg"),
                     "--out", str(tmp_path / "o")]) == 2


def test_cli_study_mismatch(tmp_path):
    cfg = _write(tmp_path, "weyl.cfg", WEYL_TEXT)
    assert cli_main(["box", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_cli_cap_exceeded_exit_code(tmp_path):
    text = WEYL_TEXT.replace("grid.n_points = 12", "grid.n_points = 32") + "dense_cap = 500\n"
    cfg = _write(tmp_path, "big.cfg", text)
    assert cli_main(["weyl", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


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
    eig = hermitian_eigenvalues(dense).values[2]
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

@pytest.mark.parametrize("text,runner,csv", [
    (WEYL_TEXT + "study.with_flow = true\n", run_weyl_study, WEYL_FLOW_CSV),
    (THEOREM2_TEXT, run_theorem2_study, THEOREM2_CSV),
], ids=["weyl-flow", "theorem2"])
def test_run_meta_records_bs_count_method(tmp_path, text, runner, csv):
    config = ExperimentConfig.from_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = runner(config)
    paths = emit_outputs(report, tmp_path, config)
    meta = dict(line.split(" = ", 1)
                for line in paths["meta"].read_text().splitlines())
    assert meta["bs_count_method"] == "krylov"
    assert float(meta["bs_certificate_min"]) >= 1e-8
    assert 0 < int(meta["krylov_columns"]) <= config.grid.dimension
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
    (WEYL_TEXT.replace("grid.n_points = 12", "grid.n_points = 16"), run_weyl_study),
    (THEOREM2_N16_TEXT, run_theorem2_study),
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
    eig = hermitian_eigenvalues(dense).values[2]
    config = ExperimentConfig.from_text(
        WEYL_TEXT.replace("alpha.values = 2, 4, 8", f"alpha.values = 2, {1.0 / eig:.17g}"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_weyl_study(config)
    assert report.degenerate
    assert report.metadata["bs_count_method"] == "dense"
    assert report.metadata["bs_certificate_min"] <= 1e-10
