"""Study workloads of the benchmark and the correctness gate on their reports.

Each workload is one gapcount study config.  The workload seed moves only
what keeps matrix dimensions fixed: the Gaussian center, a small jitter of
the couplings and a small shift of the box corner.  The program sees only
the generated config file.

Standard library only: run.py imports this module without numpy.
"""

from __future__ import annotations

import random
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# study name passed to the CLI, per workload
STUDY = {
    "weyl-flow": "weyl",
    "theorem2-dense": "theorem2",
    "box-localized": "box",
}
WORKLOADS = tuple(STUDY)

_COMMON = """model.mass = 1.0
model.gap_point = 0.0
"""


def _fmt(values) -> str:
    return ", ".join(f"{v:.4f}" for v in values)


def make_config(workload: str, seed: int, tiny: bool = False) -> str:
    """Config text for a workload and seed.

    tiny=True shrinks the grid to n = 12 (and the box study to two betas)
    for the benchmark's self-test; everything the seed picks stays the same.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "weyl-flow":
        # off-center, so the potential has no D4 symmetry
        cx = 1.5 + rng.uniform(-0.25, 0.25)
        cy = 0.5 + rng.uniform(-0.25, 0.25)
        alphas = [a * (1.0 + rng.uniform(-0.02, 0.02)) for a in (5, 10, 20, 40)]
        n, side = (12, 12.0) if tiny else (24, 24.0)
        return f"""study = weyl
grid.n_points = {n}
grid.box_side = {side}
{_COMMON}potential.kind = gaussian
potential.amplitude = 4.0
potential.width = 1.0
potential.center_x = {cx:.4f}
potential.center_y = {cy:.4f}
alpha.values = {_fmt(alphas)}
study.with_flow = true
"""
    if workload == "theorem2-dense":
        # config.validate needs box_side >= 4 * eps2 * alpha_max^(1/p) = 24,
        # so the jitter only lowers the couplings
        alphas = [a * (1.0 - rng.uniform(0.0, 0.03)) for a in (2, 3, 4, 6)]
        n = 12 if tiny else 40
        return f"""study = theorem2
grid.n_points = {n}
grid.box_side = 24.0
{_COMMON}potential.kind = powerdecay
potential.exponent = 1.0
potential.psi_constant = 2.0
alpha.values = {_fmt(alphas)}
localization.eps2 = 1.0
"""
    if workload == "box-localized":
        # corner -u with 0 < u < 1/28: every dilated box contains the origin
        # (so the boxes are nested and counts cannot drop as beta grows), and
        # beta*u stays off the half-spacing node lattice for every even
        # beta <= 14, so each block keeps exactly (2*beta)^2 nodes.
        cx = -rng.uniform(0.005, 0.03)
        cy = -rng.uniform(0.005, 0.03)
        n, side, betas = (12, 12.0, (2, 4)) if tiny else (
            64, 32.0, (2, 4, 6, 8, 10, 12, 14))
        return f"""study = box
grid.n_points = {n}
grid.box_side = {side}
{_COMMON}box.corner_x = {cx:.4f}
box.corner_y = {cy:.4f}
box.side = 1.0
box.tau = 0.5
box.betas = {", ".join(str(b) for b in betas)}
"""
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / workload / f"seed-{seed}.csv"


def _table(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.strip("\n").split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_report(workload: str, csv_text: str, reference_text: str | None) -> list[str]:
    """Problems found in a study's report.csv; an empty list means it passes.

    With a reference, every reference column must be present and equal cell
    by cell as text (extra columns are allowed).  Always: n_bs == n_flow on
    every row when the study ran the flow cross-check, and counts do not
    decrease along the increasing coupling/dilation column.
    """
    problems = []
    header, rows = _table(csv_text)
    if any(len(row) != len(header) for row in rows):
        return ["report.csv has rows of the wrong width"]
    col = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    if reference_text is not None:
        ref_header, ref_rows = _table(reference_text)
        if len(ref_rows) != len(rows):
            problems.append(f"{len(rows)} rows, reference has {len(ref_rows)}")
        for i, name in enumerate(ref_header):
            if name not in col:
                problems.append(f"column {name!r} missing")
                continue
            expected = [row[i] for row in ref_rows]
            if col[name] != expected:
                problems.append(f"column {name!r} is {col[name]}, reference {expected}")
    count_col = "count" if STUDY[workload] == "box" else "n_bs"
    if count_col not in col:
        return problems + [f"column {count_col!r} missing"]
    if workload == "weyl-flow":
        if col.get("n_flow") != col[count_col]:
            problems.append(f"n_flow {col.get('n_flow')} differs from n_bs {col[count_col]}")
    try:
        counts = [int(c) for c in col[count_col]]
    except ValueError:
        return problems + [f"column {count_col!r} holds a non-integer"]
    if any(b < a for a, b in zip(counts, counts[1:])):
        problems.append(f"counts decrease along the sweep: {counts}")
    return problems
