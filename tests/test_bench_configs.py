"""The benchmark's workload configs against the package's validation.

bench/workloads.py is read, never imported as a module of its own, so no
file is written under bench/; it uses only the standard library.  Every
workload's config builds for every reference seed, full and tiny, so a
validation change cannot fail the benchmark unnoticed.  The weyl-flow and
theorem2-dense shapes are also run, to check the lattice-cutoff warning
against them, and their Krylov counts' Chebyshev filters are checked.
"""

import types
from pathlib import Path

import numpy as np
import pytest

from gapcount import ExperimentConfig, birman_schwinger, spectra
from gapcount.cli import main as cli_main
from gapcount.flow import crossing_operator

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _read_workloads() -> types.ModuleType:
    """bench/workloads.py executed into a fresh module, no bytecode cached."""
    module = types.ModuleType("bench_workloads")
    module.__file__ = str(WORKLOADS_PY)
    source = WORKLOADS_PY.read_text(encoding="utf-8")
    exec(compile(source, str(WORKLOADS_PY), "exec"), module.__dict__)
    return module


workloads = _read_workloads()


@pytest.mark.parametrize("tiny", [False, True], ids=["full", "tiny"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_bench_config_builds(workload, tiny):
    for seed in range(32):
        config = ExperimentConfig.from_text(workloads.make_config(workload, seed, tiny))
        assert config.study == workloads.STUDY[workload]


def _meta(path: Path) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in path.read_text().splitlines())


# weyl-flow: cutoff pi * 24 / 24 against sqrt(alpha_max max V), about 12;
# theorem2-dense: pi * 40 / 24 = 5.24 against (4 alpha_max^2 - 1)^(1/4), 3.46
@pytest.mark.parametrize("workload,warned,allowed", [
    ("weyl-flow", True, (11.0, 12.7)),
    ("theorem2-dense", False, (3.3, 3.5)),
])
def test_lattice_cutoff_warning_on_the_bench_shapes(tmp_path, capsys, workload, warned,
                                                    allowed):
    config = tmp_path / "study.cfg"
    config.write_text(workloads.make_config(workload, 0), encoding="utf-8")
    built = ExperimentConfig.from_text(config.read_text(encoding="utf-8"))
    capsys.readouterr()
    assert cli_main([workloads.STUDY[workload], "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 0
    lines = [line for line in capsys.readouterr().err.splitlines() if "cutoff" in line]
    assert len(lines) == warned
    if warned:
        assert lines[0].startswith("warning: weyl lattice cutoff pi n / L = 3.142")
    meta = _meta(tmp_path / "out" / "run_meta.txt")
    cutoff = float(meta["lattice_cutoff"])
    assert cutoff == np.pi * built.grid.n_points / built.grid.box_side
    assert allowed[0] < float(meta["max_allowed_momentum"]) < allowed[1]
    assert (cutoff < float(meta["max_allowed_momentum"])) == warned
    # the warning leaves the counts and the report bytes as they were
    reference = workloads.reference_path(workload, 0).read_text(encoding="utf-8")
    assert (tmp_path / "out" / "report.csv").read_text(encoding="utf-8") == reference


def test_filter_interval_on_the_bench_shapes():
    # the flow's crossing operator is positive semidefinite, so its filter
    # damps [0, 1/2], and p(1) = T_3(3) = 99 reaches the gain at degree 3;
    # the indefinite Birman-Schwinger handles keep [-b, s_min / 2] and their
    # degrees: none for the Weyl thresholds, 9 for theorem 2
    degrees = {}
    for workload in ("weyl-flow", "theorem2-dense"):
        config = ExperimentConfig.from_text(workloads.make_config(workload, 0))
        op = birman_schwinger(config.grid, config.model, config.potential)
        degrees[workload] = spectra._chebyshev_filter(
            op, [1.0 / a for a in config.alphas]).degree
        if workload == "weyl-flow":
            for alpha in config.alphas:
                flow = crossing_operator(config.grid, config.model, config.potential, alpha)
                filt = spectra._chebyshev_filter(flow, [1.0])
                assert (filt.degree, filt.centre, filt.half_width) == (3, 0.25, 0.25)
    assert degrees == {"weyl-flow": 1, "theorem2-dense": 9}
