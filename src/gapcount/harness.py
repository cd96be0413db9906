"""Study drivers: counting experiments, CSV reports, and SVG trend plots.

run_study runs the study a config names; the config was validated once,
when it was built.  Every study counts with a certificate and produces a
CountingReport whose CSV serialization is byte-deterministic for a fixed
config (floats use 17 significant digits, LF newlines, missing values
empty).  A CSV that prints eigenvalues (flow-trace) is
byte-stable only for a fixed BLAS build and thread count, because threaded
LAPACK rounds differently; run_meta.txt records that count as
blas_threads.  Every count is certified either by the straddle of
converged Ritz values or by Sylvester inertia (LDL^H).  The weyl and
theorem2 Birman-Schwinger counts come from one block Lanczos run for all
couplings, with bracketed inertia of the dense matrix as the fallback; the
flow cross-check from one Krylov count per coupling of a positive
semidefinite sandwich (flow.crossing_operator), with bracketed inertia of
the dense D(alpha) as the fallback; the box counts from LDL^H inertia of a
complement onto the first spinor component; the crossterm counts from
bracketed inertia of the Gram matrix of each dense zone block
(spectra.gram_matrix), one per zone pair.  Every dense block is gathered
from the kernel of the study's one handle (operators.restricted_block,
assemble_dense), computed once.  Every study runs serially.  A
Birman-Schwinger, flow or crossterm count whose bracket finds an
eigenvalue or singular value within 1e-10 of its threshold
(spectra.inertia_bracket) raises DegenerateThresholdWarning, naming the
coupling, and flags the report.  Box counts are strict inertia at
tau' = tau*(1 + 1e-12) and are not flagged, which would take further
factorizations.
A box block minus tau' on the N box nodes is [[A00 - tau', A01],
[A10, A11 - tau']] in component-block order.  A11 compresses the
resolvent's R11 = (m - lambda)/det, negative for |lambda| < m because
det = lambda^2 - m^2 - |xi|^4 < 0, so M = tau' - A11 >= tau' is positive
definite, with cond(M) <= 1 + 1/(tau'(m + lambda)).  By Haynsworth's
inertia additivity the count is the positive inertia of the N x N
complement S' - tau', S' = A00 + A01 M^-1 A10 (_box_counts).  Building S'
holds two N x N arrays at once, half the 2N x 2N block.  Boxes that
contain the origin are nested, and a nested sweep is eliminated once, on
its largest box: the nodes are ordered so that every smaller box is a
leading set, whose complement is a downdate of the next larger one's
(spectra.nested_complements).
run_meta.txt records which method produced each count and its margin; for
the Birman-Schwinger count also the Krylov columns, the start block and
the degree of the Chebyshev filter the run applied (krylov_filter_degree,
1 for an unfiltered run; see spectra.iterative_count_above).  For the flow
it records flow_count_method (krylov, or ldl-inertia when a count fell
back), flow_certificate_min (flow.CrossingResult) and flow_krylov_columns,
and flow_factor_dim and inertia_residual_max when a fallback factored.  It
records the seconds spent in each stage (Birman-Schwinger count and flow
cross-check for weyl and theorem2; box counts; crossterm counts), the
process's peak RSS and the thread count of each bundled OpenBLAS pool.
The weyl and theorem2 law (and the oracle study's lines) come from the
config, which evaluated the law once when it was built; their
oracle_seconds is the time that took, and is spent before run_study
starts.  It includes the QUADPACK import only for theorem 2, whose J is
the one law evaluated by adaptive quadrature; the Weyl coefficient is a
closed form.  The weyl and theorem2 run_meta.txt also records
lattice_cutoff, pi n / L, and max_allowed_momentum, ((lambda + alpha_max
max V)^2 - m^2)_+^(1/4) with max V on the grid, and the study raises
LatticeCutoffWarning when the cutoff is the lower.
"""

from __future__ import annotations

import os
import resource
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .asymptotic import box_coefficient
from .config import ConfigError, ExperimentConfig
from .flow import DegenerateThresholdWarning, branch_trace, crossing_count_detailed
from .operators import (
    BoxSpec,
    DenseCapExceededError,
    LocalizationSpec,
    assemble_dense,  # noqa: F401 -- unused; bench/selftest.py checks its traced binding
    birman_schwinger,
    box_mask,
    resolvent,
    restricted_block,
    zone_masks,
)
from .spectra import (
    DEGENERACY_TOL,
    TIE_GUARD,
    CountResult,
    blas_threads,
    gram_matrix,
    inertia,
    inertia_bracket,
    iterative_count_above,
    nested_complements,
)


class NonMonotoneRatioWarning(UserWarning):
    """The measured ratio sequence is not monotone toward the prediction."""


class LatticeCutoffWarning(UserWarning):
    """The lattice cutoff lies below the largest classically allowed momentum."""


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


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------

def _bs_counts(config: ExperimentConfig, alphas: list[float]) -> CountResult:
    """n_+(1/alpha, W R W) for every alpha from one Krylov run (dense fallback)."""
    op = birman_schwinger(config.grid, config.model, config.potential)
    result = iterative_count_above(op, [1.0 / a for a in alphas],
                                   dense_cap=config.dense_cap)
    if not result.conclusive:
        raise DenseCapExceededError(
            f"Birman-Schwinger counts are not certified after {result.columns} "
            f"Krylov columns, and the dense fallback at dimension {op.dimension} "
            f"exceeds dense_cap = {config.dense_cap}")
    return result


def _max_residual(residuals) -> float:
    """Largest probe residual; nan ones (exactly singular pivots) are skipped."""
    return float(np.fmax.reduce([float("nan"), *residuals]))


def _law_rows(study: str, xs, counts, prediction) -> list[tuple]:
    """Rows (x, *count, prediction(x), ratio), the ratio being the first count
    over the prediction (None when the prediction is 0).

    NonMonotoneRatioWarning if |ratio - 1| grows anywhere along the rows.
    """
    rows = []
    for x, count in zip(xs, counts):
        pred = prediction(x)
        rows.append((x, *count, pred, count[0] / pred if pred > 0 else None))
    ratios = [row[-1] for row in rows if row[-1] is not None]
    if len(ratios) >= 2 and np.any(np.diff(np.abs(np.asarray(ratios) - 1.0)) > 0):
        warnings.warn(
            f"{study} ratio sequence is not monotone toward 1: "
            f"{[float(r) for r in ratios]}",
            NonMonotoneRatioWarning,
            stacklevel=3,
        )
    return rows


def _momentum_bounds(config: ExperimentConfig) -> tuple[float, float]:
    """The lattice cutoff pi n / L and the largest classically allowed
    momentum ((lambda + alpha_max max V)^2 - m^2)_+^(1/4), max V on the grid."""
    grid, model = config.grid, config.model
    top = model.gap_point + float(config.alphas[-1]) * config.potential_max
    allowed = max(top * top - model.mass ** 2, 0.0) ** 0.25
    return np.pi * grid.n_points / grid.box_side, allowed


def _counting_study(config: ExperimentConfig, prediction_of_alpha) -> CountingReport:
    """Birman-Schwinger counts (and flow counts) against the config's law,
    whose oracle values and seconds go to the metadata.

    The metadata also records the lattice cutoff and the largest classically
    allowed momentum at the largest coupling; LatticeCutoffWarning says when
    the cutoff is the lower, as then the grid, not the law, can limit the
    counts there.
    """
    alphas = [float(a) for a in config.alphas]
    t_bs = time.perf_counter()
    bs = _bs_counts(config, alphas)
    bs_seconds = time.perf_counter() - t_bs
    # a dense certificate is 0 exactly when its bracket holds an eigenvalue;
    # a Krylov one is at least its 1e-8 floor
    degenerate = False
    for a, cert in zip(alphas, bs.certificates):
        if cert == 0.0:
            degenerate = True
            warnings.warn(
                f"Birman-Schwinger count at alpha = {a:.17g} is degenerate: "
                f"1/alpha lies within {DEGENERACY_TOL:.0e} of an eigenvalue",
                DegenerateThresholdWarning,
                stacklevel=3,
            )
    n_flow: list[int | None] = [None] * len(alphas)
    flow_meta = {}
    if config.with_flow:
        t_flow = time.perf_counter()
        flows = [crossing_count_detailed(config.grid, config.model, config.potential,
                                         a, config.dense_cap) for a in alphas]
        n_flow = [res.count for res in flows]
        degenerate = degenerate or any(res.degenerate for res in flows)
        factored = [res.residual for res in flows if res.residual is not None]
        flow_meta = {
            "flow_count_method": "ldl-inertia" if factored else "krylov",
            "flow_certificate_min": min(res.certificate for res in flows),
            "flow_krylov_columns": sum(res.columns for res in flows),
            **({"flow_factor_dim": config.grid.dimension,
                "inertia_residual_max": _max_residual(factored)} if factored else {}),
            "flow_seconds": time.perf_counter() - t_flow,
        }
    rows = _law_rows(config.study, alphas, zip(bs.counts, n_flow), prediction_of_alpha)
    cutoff, allowed = _momentum_bounds(config)
    if cutoff < allowed:
        warnings.warn(
            f"{config.study} lattice cutoff pi n / L = {cutoff:.4g} is below the largest "
            f"classically allowed momentum {allowed:.4g} at alpha_max = {alphas[-1]:.17g}: "
            f"the grid, not the law, may limit the counts",
            LatticeCutoffWarning,
            stacklevel=3,
        )
    return CountingReport(
        study=config.study,
        header=("alpha", "n_bs", "n_flow", "prediction", "ratio"),
        rows=rows,
        metadata={
            "bs_count_method": bs.method,
            "bs_certificate_min": bs.certificate,
            "bs_count_seconds": bs_seconds,
            "krylov_columns": bs.columns,
            "krylov_block": bs.block,
            "krylov_filter_degree": bs.filter_degree,
            **flow_meta,
            "lattice_cutoff": cutoff,
            "max_allowed_momentum": allowed,
            "oracle_seconds": config.law_seconds,
            **{name: pred.value for name, pred in config.law.items()},
        },
        degenerate=degenerate,
    )


def _weyl_study(config: ExperimentConfig) -> CountingReport:
    """First counting law: N(lambda, alpha) against alpha/(4pi) * int V."""
    coeff = config.law["weyl_coefficient"].value
    return _counting_study(config, lambda a: a * coeff)


def _theorem2_study(config: ExperimentConfig) -> CountingReport:
    """Second counting law: N against alpha^(2/p) * J(lambda, m)."""
    j = config.law["j_integral"].value
    p = config.potential.exponent
    return _counting_study(config, lambda a: a ** (2.0 / p) * j)


def _crossterm_study(config: ExperimentConfig) -> CountingReport:
    """Normalized counts of the off-diagonal localized pieces.

    The piece between zones i and j is the (zone-i rows) x (zone-j columns)
    block P of the sandwich, whose singular values are exactly those of the
    full localized piece; restricted_block gathers each block without
    building the full matrix, all from one handle and its one kernel.  The
    count of sigma(P) > t = epsilon/alpha is the positive inertia of the
    Gram matrix G on P's smaller side (spectra.gram_matrix) at
    (t (1 + 1e-12))^2, bracketed in sigma-space by the shifts
    max(t - 1e-10, 0)^2 and (t + 1e-10)^2 (spectra.inertia_bracket); each
    factorization consumes a copy of G, and P is freed once G is built.
    The (j, i) block is exactly the conjugate transpose of the (i, j)
    block, because the kernel is made Hermitian and the weights are real,
    so one count serves both rows.  A threshold within 1e-10 of a singular
    value is flagged, naming alpha and the zone pair.  run_meta.txt records the method, the largest probe
    residual, the seconds spent on the Gram matrices and their
    factorizations (crossterm_count_seconds), and svd_certificate_min, the
    least half-width of a bracket's singular-value-free window: 1e-10, or
    0 when a singular value lies inside one.
    """
    p = config.potential.exponent
    op = birman_schwinger(config.grid, config.model, config.potential)
    rows = []
    previous: dict[tuple[int, int], float] = {}
    monotone = True
    degenerate = False
    certificate = np.inf
    residuals = []
    count_seconds = 0.0
    for a in (float(a) for a in config.alphas):
        loc = LocalizationSpec(config.eps1, config.eps2, a, p)
        zones = [np.flatnonzero(mask) for mask in zone_masks(config.grid, loc)]
        t = config.epsilon / a
        for i, j in ((1, 2), (1, 3), (2, 3)):
            block = restricted_block(op, zones[i - 1], zones[j - 1])
            t_count = time.perf_counter()
            gram = gram_matrix(block)
            del block
            bracket = inertia_bracket(lambda shift: inertia(gram.copy(), shift),
                                      max(t - DEGENERACY_TOL, 0.0) ** 2,
                                      (t + DEGENERACY_TOL) ** 2, (t * (1.0 + TIE_GUARD)) ** 2)
            del gram
            count_seconds += time.perf_counter() - t_count
            count = bracket.strict.positive
            residuals.append(bracket.residual)
            certificate = min(certificate, 0.0 if bracket.degenerate else DEGENERACY_TOL)
            if bracket.degenerate:
                degenerate = True
                warnings.warn(f"crossterm count at alpha = {a:.17g}, zones ({i}, {j}) is "
                              f"degenerate: epsilon/alpha lies within {DEGENERACY_TOL:.0e} "
                              f"of a singular value", DegenerateThresholdWarning,
                              stacklevel=2)
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
            "epsilon": config.epsilon,
            "crossterm_count_method": "ldl-inertia",
            "crossterm_count_seconds": count_seconds,
            "inertia_residual_max": _max_residual(residuals),
            "svd_certificate_min": certificate,
        },
        degenerate=degenerate,
    )


def _box_counts(op, boxes, tau) -> tuple[list[tuple[int, float, int]], int]:
    """Per box, eigenvalues of its block above tau, probe residual and
    dimension factored; and the number of eliminations made.

    boxes come in increasing scale.  A box's block is the resolvent op
    compressed to the N nodes of the box on both spinor components,
    A = [[A00, A01], [A10, A11]] in component-block order.  The count is
    the positive inertia of A - tau' with tau' = tau*(1 + 1e-12), the
    strict, tie-guarded count of eigenvalues above tau, with no eigenvalue
    computed.  It is read from an N x N complement onto the first component
    (spectra.nested_complements), by Haynsworth's inertia additivity.
    R11 = (m - lambda)/det is negative for every mode, as det = lambda^2 -
    m^2 - |xi|^4 < 0 for |lambda| < m, so A11 is negative definite and
    M = tau' - A11 >= tau'.  Then positive(A - tau') = positive(S' - tau')
    with S' = A00 + A01 M^-1 A10, and inertia(S', tau') gives the count.  M
    is well conditioned, cond(M) <= 1 + 1/(tau'(m + lambda)) since
    ||R11|| <= 1/(m + lambda): 3 at m = 1, lambda = 0, tau = 0.5.

    The boxes fall into maximal chains of consecutive boxes whose node sets
    are nested, each one's within the next's; boxes that are not nested
    form chains of one.  A chain is eliminated once, on its largest box,
    whose nodes are ordered by the first box of the chain that holds them
    (row-major within each ring), so that every box of the chain is a
    leading set.  restricted_block(op, nodes, nodes, (a, b)) gathers A_ab
    of the largest box, three gathers per chain, and each smaller box's
    complement is a downdate of the next larger one's.  Two N x N arrays
    are live at once (the solve and the complement), N the nodes of the
    largest box, half of its 2N x 2N block, and inertia factors each
    complement in place.  A chain without nodes is counted as empty and
    makes no elimination.
    """
    masks = [box_mask(op.grid, box).ravel() for box in boxes]
    shift = tau * (1.0 + TIE_GUARD)
    results = []
    eliminations = 0
    first = 0
    for last in range(len(masks)):
        if last + 1 < len(masks) and np.all(masks[last] <= masks[last + 1]):
            continue
        chain = masks[first:last + 1]
        first = last + 1
        depth = np.sum(chain, axis=0)  # boxes of the chain that hold each node
        nodes = np.flatnonzero(depth)
        if nodes.size == 0:
            results += [(0, 0.0, 0)] * len(chain)
            continue
        nodes = nodes[np.argsort(-depth[nodes], kind="stable")]
        eliminations += 1
        counted = []
        for complement in nested_complements(
                lambda a, b: restricted_block(op, nodes, nodes, (a, b)),
                [int(np.count_nonzero(mask)) for mask in chain], shift):
            res = inertia(complement, shift)
            counted.append((res.positive, res.residual, complement.shape[0]))
        results += counted[::-1]
    return results, eliminations


def _box_study(config: ExperimentConfig) -> CountingReport:
    """Box-localized resolvent counts against the (4pi)^-1 coefficient law.

    Counts use the compression of the resolvent to the nodes inside the
    dilated box: the complementary modes contribute eigenvalue 0 < tau,
    so the block count equals the count of the full localized operator.
    Each block count is the Sylvester inertia of block - tau, read from its
    complement onto the first spinor component (see _box_counts).  Every
    block is gathered from one resolvent handle and its one kernel.  When
    the boxes contain the origin they are nested, and the whole sweep is
    one chain: one elimination of the largest box serves every beta.
    run_meta.txt records the method, the largest probe residual, the
    largest dimension factored (box_factor_dim, the N nodes of the largest
    box), the number of eliminations (box_eliminations, one per chain of
    nested boxes) and the seconds spent gathering and counting the blocks.
    That every dilated box fits the grid, and that its two-component block
    is within dense_cap, is checked when the config is built.
    """
    tau = float(config.tau)
    area = config.box_side ** 2
    coeff = box_coefficient(tau, config.model, area)
    boxes = [BoxSpec(config.box_corner, config.box_side, float(b))
             for b in config.betas]
    t_count = time.perf_counter()
    op = resolvent(config.grid, config.model)
    results, eliminations = _box_counts(op, boxes, tau)
    count_seconds = time.perf_counter() - t_count
    return CountingReport(
        study="box",
        header=("beta", "count", "prediction", "ratio"),
        rows=_law_rows("box", [box.scale for box in boxes],
                       [(count,) for count, _, _ in results], lambda b: b ** 2 * coeff),
        metadata={
            "tau": tau,
            "coefficient_per_beta2": coeff,
            "box_count_method": "ldl-inertia",
            "box_count_seconds": count_seconds,
            "box_factor_dim": max(dim for _, _, dim in results),
            "box_eliminations": eliminations,
            "inertia_residual_max": _max_residual(r for _, r, _ in results),
        },
    )


def _flow_trace_study(config: ExperimentConfig) -> CountingReport:
    """Gap eigenvalues along the coupling grid, one row per (t, branch)."""
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
        metadata={"crossing_count": trace.crossing_count},
        degenerate=trace.degenerate,
    )


# study -> runner; run_study looks the runner up at call time, so a binding
# replaced here (a tracing wrapper, say) takes effect on the next study
RUNNERS = {
    "weyl": _weyl_study,
    "theorem2": _theorem2_study,
    "crossterm": _crossterm_study,
    "box": _box_study,
    "flow-trace": _flow_trace_study,
}


def run_study(config: ExperimentConfig) -> CountingReport:
    """The count table of config's study.

    The config was validated when it was built.  Next to the study's own
    metadata, the report records the grid and the study's wall
    time in seconds.
    """
    runner = RUNNERS.get(config.study)
    if runner is None:
        raise ConfigError(f"study {config.study!r} has no count table")
    t0 = time.perf_counter()
    report = runner(config)
    report.metadata.update(
        grid=f"{config.grid.n_points}x{config.grid.n_points}, L={config.grid.box_side:g}",
        runtime_seconds=time.perf_counter() - t0,
    )
    return report


def oracle_lines(config: ExperimentConfig) -> list[str]:
    """The law's predictions for a config, no spectra computed.

    They were evaluated when the config was built: the closed-form Weyl
    coefficient and the phase-space volume for an integrable potential, the
    theorem-2 integral J, by QUADPACK, for a power decay.  The box
    coefficient, a closed form, is evaluated here when the config sets
    box.tau.
    """
    lines = [f"{name} = {pred.value:.17g} (error {pred.error:.3g})"
             for name, pred in config.law.items()]
    if config.tau is not None:
        coeff = box_coefficient(config.tau, config.model, config.box_side ** 2)
        lines.append(f"box_coefficient_per_beta2 = {coeff:.17g}")
    return lines


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
    if report.study in ("weyl", "theorem2", "box"):
        # the law studies end every row with the ratio
        xs = [row[0] for row in report.rows]
        ys = [row[-1] for row in report.rows]
        xlabel = "beta" if report.study == "box" else "alpha"
        return [("ratio", xs, ys)], xlabel, "count / prediction", True
    if report.study == "crossterm":
        series = []
        pairs = sorted({(row[1], row[2]) for row in report.rows})
        for i, j in pairs:
            xs = [row[0] for row in report.rows if (row[1], row[2]) == (i, j)]
            ys = [row[4] for row in report.rows if (row[1], row[2]) == (i, j)]
            series.append((f"({i},{j})", xs, ys))
        return series, "alpha", "normalized count", True
    # flow-trace: one series per branch index
    series = []
    indices = sorted({row[1] for row in report.rows})
    for k in indices:
        xs = [row[0] for row in report.rows if row[1] == k]
        ys = [row[2] for row in report.rows if row[1] == k]
        series.append(("", xs, ys))
    return series, "t", "gap eigenvalue", False


def emit_outputs(report: CountingReport, directory, config: ExperimentConfig) -> dict:
    """Write report.csv, config.echo, plot.svg (and run_meta.txt) to directory.

    CSV and SVG bytes depend only on the report contents; runtime metadata
    goes to run_meta.txt, which is outside the determinism contract.  Report
    contents that are eigenvalues (the flow-trace CSV and plot) repeat byte
    for byte only under the same BLAS build and thread count.  Next to
    the report's metadata it records the process's peak RSS so far, the
    thread count of each bundled OpenBLAS pool ("unknown" when none is
    found) and the OPENBLAS_THREAD_TIMEOUT of the process environment
    (blas_thread_timeout; "unset" when it is absent), which the pools read
    when they load.
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
    threads = ", ".join(f"{package}={n}" for package, n in blas_threads().items())
    meta = {**report.metadata, "blas_threads": threads or "unknown",
            "blas_thread_timeout": os.environ.get("OPENBLAS_THREAD_TIMEOUT", "unset"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    meta_lines = [f"{k} = {v}" for k, v in sorted(meta.items())]
    meta_path.write_text("\n".join(meta_lines) + "\n", encoding="utf-8")
    paths["meta"] = meta_path
    return paths
