"""Study drivers: counting experiments, CSV reports, and SVG trend plots.

Every study validates its configuration, counts with a certificate, and
produces a CountingReport whose CSV serialization is byte-deterministic for
a fixed config and seed (floats use 17 significant digits, LF newlines,
missing values empty).  The weyl and theorem2 Birman-Schwinger counts come
from one block Lanczos run for all couplings, with the dense spectrum as
the fallback; the flow cross-check (through the Schur complement onto one
spinor component) and the box counts from LDL^H inertia; the crossterm
counts from singular values of dense zone blocks, one SVD per zone pair.
Every study runs serially.  A count within 1e-10 of its threshold raises
DegenerateThresholdWarning, naming the coupling, and flags the report.
run_meta.txt records which method produced each count and its margin.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .asymptotic import box_coefficient, j_integral, phase_space_volume, weyl_coefficient
from .config import ConfigError, ExperimentConfig
from .flow import DEGENERACY_TOL, DegenerateThresholdWarning, crossing_count_detailed
from .operators import (
    BoxSpec,
    LocalizationSpec,
    assemble_dense,  # noqa: F401 -- unused; bench/selftest.py checks its traced binding
    birman_schwinger,
    box_mask,
    resolvent,
    restricted_block,
    zone_masks,
)
from .potential import PowerDecay
from .spectra import (
    TIE_GUARD,
    CountResult,
    count_above,
    inertia,
    iterative_count_above,
    singular_values,
)


class NonMonotoneRatioWarning(UserWarning):
    """The measured ratio sequence is not monotone toward the prediction."""


@dataclass
class CountingReport:
    """Tabular study result: a header, rows of numbers, and metadata.

    Rows hold ints, floats, or None (missing).  The CSV image of a report
    is deterministic; runtime lives only in metadata.
    """

    study: str
    header: tuple[str, ...]
    rows: list[tuple]
    metadata: dict = field(default_factory=dict)
    degenerate: bool = False


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def report_csv_text(report: CountingReport) -> str:
    lines = [",".join(report.header)]
    for row in report.rows:
        lines.append(",".join(_format_cell(v) for v in row))
    return "\n".join(lines) + "\n"


INT_COLUMNS = frozenset({"n_bs", "n_flow", "count", "i", "j", "index"})


def parse_report_csv(text: str) -> tuple[tuple[str, ...], list[tuple]]:
    """Inverse of report_csv_text; numbers parse back exactly.

    Columns in INT_COLUMNS parse as int and every other column as float,
    so a float written without a fraction ("5" for 5.0) stays a float.
    """
    lines = text.strip("\n").split("\n")
    header = tuple(lines[0].split(","))
    kinds = [int if name in INT_COLUMNS else float for name in header]
    rows = []
    for line in lines[1:]:
        rows.append(tuple(None if tok == "" else kind(tok)
                          for kind, tok in zip(kinds, line.split(","))))
    return header, rows


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------

def _require(config: ExperimentConfig, study: str) -> None:
    if config.study != study:
        raise ConfigError(f"config is for study {config.study!r}, expected {study!r}")
    config.validate()


def _bs_counts(config: ExperimentConfig, alphas: list[float]) -> CountResult:
    """n_+(1/alpha, W R W) for every alpha from one Krylov run (dense fallback)."""
    op = birman_schwinger(config.grid, config.model, config.potential)
    result = iterative_count_above(op, [1.0 / a for a in alphas], seed=config.seed,
                                   dense_cap=config.dense_cap)
    if not result.conclusive:
        raise RuntimeError("Birman-Schwinger counts are not certified and the "
                           "dense fallback is above the cap")
    return result


def _max_residual(residuals) -> float:
    """Largest probe residual; nan ones (exactly singular pivots) are skipped."""
    return float(np.fmax.reduce([float("nan"), *residuals]))


def _counting_study(config: ExperimentConfig, prediction_of_alpha,
                    study: str) -> CountingReport:
    t0 = time.time()
    alphas = [float(a) for a in config.alphas]
    bs = _bs_counts(config, alphas)
    # a dense certificate is the distance to the nearest eigenvalue; a Krylov
    # one is at least its 1e-8 floor, so it never marks a threshold degenerate
    degenerate = False
    for a, cert in zip(alphas, bs.certificates):
        if cert <= DEGENERACY_TOL:
            degenerate = True
            warnings.warn(
                f"Birman-Schwinger count at alpha = {a:.17g} is degenerate: "
                f"1/alpha lies within {cert:.1e} of an eigenvalue",
                DegenerateThresholdWarning,
                stacklevel=3,
            )
    n_flow: dict[float, int | None] = {a: None for a in alphas}
    flow_meta = {}
    if config.with_flow:
        residuals = []
        for a in alphas:
            res = crossing_count_detailed(config.grid, config.model, config.potential,
                                          a, config.dense_cap)
            n_flow[a] = res.count
            degenerate = degenerate or res.degenerate
            residuals.append(res.residual)
        flow_meta = {
            "flow_count_method": "ldl-inertia",
            # each count factors the Schur complement onto one spinor component
            "flow_factor_dim": config.grid.n_points ** 2,
            "inertia_residual_max": _max_residual(residuals),
        }
    rows = []
    ratios = []
    for a, n_bs in zip(alphas, bs.counts):
        pred = prediction_of_alpha(a)
        ratio = n_bs / pred if pred > 0 else None
        if ratio is not None:
            ratios.append(ratio)
        rows.append((a, n_bs, n_flow[a], pred, ratio))
    if len(ratios) >= 2:
        gaps = np.abs(np.asarray(ratios) - 1.0)
        if np.any(np.diff(gaps) > 0):
            warnings.warn(
                f"{study} ratio sequence is not monotone toward 1: {ratios}",
                NonMonotoneRatioWarning,
                stacklevel=3,
            )
    return CountingReport(
        study=study,
        header=("alpha", "n_bs", "n_flow", "prediction", "ratio"),
        rows=rows,
        metadata={
            "grid": f"{config.grid.n_points}x{config.grid.n_points}, L={config.grid.box_side:g}",
            "runtime_seconds": time.time() - t0,
            "seed": config.seed,
            "bs_count_method": bs.method,
            "bs_certificate_min": bs.certificate,
            "krylov_columns": bs.columns,
            **flow_meta,
        },
        degenerate=degenerate,
    )


def run_weyl_study(config: ExperimentConfig) -> CountingReport:
    """First counting law: N(lambda, alpha) against alpha/(4pi) * int V."""
    _require(config, "weyl")
    coeff = weyl_coefficient(config.potential)
    # internal identity: the independent phase-space route must agree
    volume = phase_space_volume(config.potential)
    if abs(coeff.value - volume.value) > 1e-6 * max(coeff.value, 1.0):
        raise RuntimeError(
            f"weyl coefficient {coeff.value!r} and phase-space volume "
            f"{volume.value!r} disagree beyond tolerance"
        )
    report = _counting_study(config, lambda a: a * coeff.value, "weyl")
    report.metadata["weyl_coefficient"] = coeff.value
    report.metadata["phase_space_volume"] = volume.value
    return report


def run_theorem2_study(config: ExperimentConfig) -> CountingReport:
    """Second counting law: N against alpha^(2/p) * J(lambda, m)."""
    _require(config, "theorem2")
    assert isinstance(config.potential, PowerDecay)
    j = j_integral(config.model, config.potential)
    p = config.potential.exponent
    report = _counting_study(config, lambda a: a ** (2.0 / p) * j.value, "theorem2")
    report.metadata["j_integral"] = j.value
    return report


def run_crossterm_study(config: ExperimentConfig) -> CountingReport:
    """Normalized counts of the off-diagonal localized pieces.

    The piece between zones i and j is the (zone-i rows) x (zone-j columns)
    block of the sandwich, whose singular values are exactly those of the
    full localized piece; restricted_block gathers each block without
    building the full matrix.  The (j, i) block is exactly the conjugate
    transpose of the (i, j) block, because the kernel is made Hermitian and
    the weights are real, so one SVD gives the count of both rows.
    """
    _require(config, "crossterm")
    t0 = time.time()
    assert isinstance(config.potential, PowerDecay)
    p = config.potential.exponent
    op = birman_schwinger(config.grid, config.model, config.potential)
    rows = []
    previous: dict[tuple[int, int], float] = {}
    monotone = True
    for a in (float(a) for a in config.alphas):
        loc = LocalizationSpec(config.eps1, config.eps2, a, p)
        masks = zone_masks(config.grid, loc)
        threshold = config.epsilon / a
        for i, j in ((1, 2), (1, 3), (2, 3)):
            block = restricted_block(op, masks[i - 1], masks[j - 1])
            count = count_above(singular_values(block), threshold)
            normalized = count / a ** (2.0 / p)
            if (i, j) in previous and normalized >= previous[(i, j)]:
                monotone = False
            previous[(i, j)] = normalized
            rows += [(a, i, j, count, normalized), (a, j, i, count, normalized)]
    if not monotone:
        warnings.warn(
            "normalized cross-term counts are not strictly decreasing",
            NonMonotoneRatioWarning,
            stacklevel=2,
        )
    return CountingReport(
        study="crossterm",
        header=("alpha", "i", "j", "count", "normalized"),
        rows=rows,
        metadata={
            "grid": f"{config.grid.n_points}x{config.grid.n_points}, L={config.grid.box_side:g}",
            "epsilon": config.epsilon,
            "runtime_seconds": time.time() - t0,
            "seed": config.seed,
        },
    )


def _box_count(grid, model, box, tau) -> tuple[int, float]:
    """Eigenvalues of the box block above tau, and the inertia probe residual.

    The count is the positive inertia of block - tau*(1 + 1e-12): strict and
    tie-guarded exactly like count_above, but with no eigenvalue computed.
    """
    mask = box_mask(grid, box)
    if not mask.any():
        return 0, 0.0
    block = restricted_block(resolvent(grid, model), mask, mask)
    res = inertia(block, tau * (1.0 + TIE_GUARD))
    return res.positive, res.residual


def run_box_study(config: ExperimentConfig) -> CountingReport:
    """Box-localized resolvent counts against the (4pi)^-1 coefficient law.

    Counts use the compression of the resolvent to the nodes inside the
    dilated box: the complementary modes contribute eigenvalue 0 < tau,
    so the block count equals the count of the full localized operator.
    Each block count is the Sylvester inertia of block - tau (see _box_count);
    run_meta.txt records the method and the largest probe residual.  That
    every dilated box fits the grid is checked by config.validate.
    """
    _require(config, "box")
    t0 = time.time()
    tau = float(config.tau)
    area = config.box_side ** 2
    coeff = box_coefficient(tau, config.model, area)
    boxes = [BoxSpec(config.box_corner, config.box_side, float(b))
             for b in config.betas]
    results = [_box_count(config.grid, config.model, box, tau) for box in boxes]
    rows = []
    ratios = []
    for box, (count, _) in zip(boxes, results):
        pred = box.scale ** 2 * coeff
        ratio = count / pred if pred > 0 else None
        if ratio is not None:
            ratios.append(ratio)
        rows.append((box.scale, count, pred, ratio))
    if len(ratios) >= 2 and np.any(np.diff(np.abs(np.asarray(ratios) - 1.0)) > 0):
        warnings.warn(
            f"box ratio sequence is not monotone toward 1: {ratios}",
            NonMonotoneRatioWarning,
            stacklevel=2,
        )
    return CountingReport(
        study="box",
        header=("beta", "count", "prediction", "ratio"),
        rows=rows,
        metadata={
            "grid": f"{config.grid.n_points}x{config.grid.n_points}, L={config.grid.box_side:g}",
            "tau": tau,
            "coefficient_per_beta2": coeff,
            "runtime_seconds": time.time() - t0,
            "seed": config.seed,
            "box_count_method": "ldl-inertia",
            "inertia_residual_max": _max_residual(r for _, r in results),
        },
    )


def run_flow_trace_study(config: ExperimentConfig) -> CountingReport:
    """Gap eigenvalues along the coupling grid, one row per (t, branch)."""
    _require(config, "flow-trace")
    t0 = time.time()
    from .flow import branch_trace  # local import avoids a cycle at module load

    trace = branch_trace(config.grid, config.model, config.potential,
                         np.asarray(config.t_values), cap=config.dense_cap)
    rows = []
    for t, eigs in zip(trace.t_values, trace.gap_eigenvalues):
        for k, e in enumerate(eigs):
            rows.append((float(t), k, float(e)))
    return CountingReport(
        study="flow-trace",
        header=("t", "index", "eigenvalue"),
        rows=rows,
        metadata={
            "crossing_count": trace.crossing_count,
            "runtime_seconds": time.time() - t0,
            "seed": config.seed,
        },
    )


def oracle_lines(config: ExperimentConfig) -> list[str]:
    """Closed-form/quadrature predictions for a config, no spectra computed."""
    lines = []
    if isinstance(config.potential, PowerDecay):
        j = j_integral(config.model, config.potential)
        lines.append(f"j_integral = {j.value:.17g} (error {j.error:.3g})")
    else:
        w = weyl_coefficient(config.potential)
        v = phase_space_volume(config.potential)
        lines.append(f"weyl_coefficient = {w.value:.17g} (error {w.error:.3g})")
        lines.append(f"phase_space_volume = {v.value:.17g} (error {v.error:.3g})")
    if config.tau is not None:
        coeff = box_coefficient(config.tau, config.model, config.box_side ** 2)
        lines.append(f"box_coefficient_per_beta2 = {coeff:.17g}")
    return lines


RUNNERS = {
    "weyl": run_weyl_study,
    "theorem2": run_theorem2_study,
    "crossterm": run_crossterm_study,
    "box": run_box_study,
    "flow-trace": run_flow_trace_study,
}


# ---------------------------------------------------------------------------
# output emission
# ---------------------------------------------------------------------------

_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svg_plot(series, xlabel: str, ylabel: str, logx: bool) -> str:
    """Minimal deterministic SVG polyline chart (no timestamps, no ids)."""
    width, height = 640, 480
    ml, mr, mt, mb = 70, 20, 20, 50
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if y is not None]
    if not xs_all or not ys_all:
        body = ['<text x="320" y="240" text-anchor="middle">no data</text>']
        return _svg_document(width, height, body)
    fx = (lambda x: np.log10(x)) if logx else (lambda x: x)
    x_lo, x_hi = min(map(fx, xs_all)), max(map(fx, xs_all))
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return ml + (fx(x) - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def py(y):
        return height - mb - (y - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    body = [
        f'<rect x="{ml}" y="{mt}" width="{width - ml - mr}" '
        f'height="{height - mt - mb}" fill="none" stroke="#000"/>'
    ]
    for k in range(5):
        yv = y_lo + k * (y_hi - y_lo) / 4
        body.append(
            f'<text x="{ml - 8}" y="{py(yv):.2f}" text-anchor="end" '
            f'font-size="12">{yv:.3g}</text>'
        )
    for x in sorted(set(xs_all)):
        body.append(
            f'<text x="{px(x):.2f}" y="{height - mb + 18}" text-anchor="middle" '
            f'font-size="12">{x:g}</text>'
        )
    body.append(
        f'<text x="{(ml + width - mr) / 2}" y="{height - 12}" '
        f'text-anchor="middle" font-size="13">{xlabel}</text>'
    )
    body.append(
        f'<text x="16" y="{(mt + height - mb) / 2}" text-anchor="middle" '
        f'font-size="13" transform="rotate(-90 16 {(mt + height - mb) / 2})">'
        f"{ylabel}</text>"
    )
    for k, (label, xs, ys) in enumerate(series):
        color = _SVG_COLORS[k % len(_SVG_COLORS)]
        pts = " ".join(
            f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys) if y is not None
        )
        if pts:
            body.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        if label:
            body.append(
                f'<text x="{width - mr - 6}" y="{mt + 16 + 14 * k}" '
                f'text-anchor="end" font-size="12" fill="{color}">{label}</text>'
            )
    return _svg_document(width, height, body)


def _svg_document(width: int, height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _plot_series(report: CountingReport):
    header = report.header
    if header[:1] == ("alpha",) and "ratio" in header:
        i_ratio = header.index("ratio")
        xs = [row[0] for row in report.rows]
        ys = [row[i_ratio] for row in report.rows]
        return [("ratio", xs, ys)], "alpha", "count / prediction", True
    if header[:1] == ("beta",):
        xs = [row[0] for row in report.rows]
        ys = [row[3] for row in report.rows]
        return [("ratio", xs, ys)], "beta", "count / prediction", True
    if report.study == "crossterm":
        series = []
        pairs = sorted({(row[1], row[2]) for row in report.rows})
        for i, j in pairs:
            xs = [row[0] for row in report.rows if (row[1], row[2]) == (i, j)]
            ys = [row[4] for row in report.rows if (row[1], row[2]) == (i, j)]
            series.append((f"({i},{j})", xs, ys))
        return series, "alpha", "normalized count", True
    if report.study == "flow-trace":
        series = []
        indices = sorted({row[1] for row in report.rows})
        for k in indices:
            xs = [row[0] for row in report.rows if row[1] == k]
            ys = [row[2] for row in report.rows if row[1] == k]
            series.append(("", xs, ys))
        return series, "t", "gap eigenvalue", False
    return [], "x", "y", False


def emit_outputs(report: CountingReport, directory, config: ExperimentConfig) -> dict:
    """Write report.csv, config.echo, plot.svg (and run_meta.txt) to directory.

    CSV and SVG bytes depend only on the report contents; runtime metadata
    goes to run_meta.txt, which is outside the determinism contract.
    """
    import pathlib

    out = pathlib.Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    csv_path = out / "report.csv"
    csv_path.write_bytes(report_csv_text(report).encode("utf-8"))
    paths["csv"] = csv_path
    echo_path = out / "config.echo"
    echo_path.write_bytes(config.raw_text.encode("utf-8"))
    paths["echo"] = echo_path
    series, xlabel, ylabel, logx = _plot_series(report)
    svg_path = out / "plot.svg"
    svg_path.write_bytes(_svg_plot(series, xlabel, ylabel, logx).encode("utf-8"))
    paths["svg"] = svg_path
    meta_path = out / "run_meta.txt"
    meta_lines = [f"{k} = {v}" for k, v in sorted(report.metadata.items())]
    meta_path.write_text("\n".join(meta_lines) + "\n", encoding="utf-8")
    paths["meta"] = meta_path
    return paths
