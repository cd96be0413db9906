"""Span tracing of gapcount layers from outside the package, and the
per-layer metrics computed from the spans.

The study modules import functions by name (``from .operators import
assemble_dense``), so a wrapper only takes effect where the caller looks the
name up.  Tracer.install therefore rebinds every name in every loaded
gapcount module that is bound to a traced function, and Tracer.restore puts
each original back.

Only the install/restore half imports gapcount; the aggregation half is
standard library so run.py can use it without numpy.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from pathlib import Path

# (defining module, function) -> span name.  Asymptotic oracles share one span.
TARGETS = (
    ("config", "load_config", "config.load_config"),
    ("lattice", "forward_array", "lattice.fft"),
    ("lattice", "inverse_array", "lattice.fft"),
    ("symbol", "dirac_symbol", "symbol.multiplier"),
    ("symbol", "resolvent_symbol", "symbol.multiplier"),
    ("potential", "eval_potential", "potential.eval"),
    ("potential", "sqrt_potential", "potential.eval"),
    ("operators", "assemble_dense", "operators.assemble_dense"),
    ("operators", "restricted_block", "operators.restricted_block"),
    ("spectra", "hermitian_eigenvalues", "spectra.hermitian_eigenvalues"),
    ("spectra", "iterative_count_above", "spectra.iterative_count_above"),
    ("flow", "crossing_count_detailed", "flow.crossing_count_detailed"),
    ("asymptotic", "weyl_coefficient", "asymptotic"),
    ("asymptotic", "phase_space_volume", "asymptotic"),
    ("asymptotic", "j_integral", "asymptotic"),
    ("asymptotic", "box_coefficient", "asymptotic"),
    ("harness", "emit_outputs", "harness.emit_outputs"),
)
RUNNER_SPAN = "harness.run"  # the study runners, reached through harness.RUNNERS

# Per-layer metrics: (name, unit, better, kind).  "computed" values are counts
# or sizes derived from arguments and results; they must repeat exactly
# between two traced runs.  "timed" values are measured.
PER_LAYER = (
    ("config.load_config.s", "s", "lower", "timed"),
    ("lattice.fft.calls", "count", "lower", "computed"),
    ("lattice.fft.fields", "count", "lower", "computed"),
    ("lattice.fft.s", "s", "lower", "timed"),
    ("symbol.multiplier.s", "s", "lower", "timed"),
    ("potential.eval.s", "s", "lower", "timed"),
    ("operators.assemble_dense.calls", "count", "lower", "computed"),
    ("operators.assemble_dense.s", "s", "lower", "timed"),
    ("operators.assemble_dense.self_s", "s", "lower", "timed"),
    ("operators.assemble_dense.bytes", "bytes", "lower", "computed"),
    ("operators.assemble_dense.peak_alloc_mb", "MB", "lower", "timed"),
    ("operators.restricted_block.calls", "count", "lower", "computed"),
    ("operators.restricted_block.s", "s", "lower", "timed"),
    ("operators.restricted_block.self_s", "s", "lower", "timed"),
    ("spectra.hermitian_eigenvalues.calls", "count", "lower", "computed"),
    ("spectra.hermitian_eigenvalues.s", "s", "lower", "timed"),
    ("spectra.hermitian_eigenvalues.dim_max", "dim", "lower", "computed"),
    ("spectra.hermitian_eigenvalues.dim3_g", "dim3/1e9", "lower", "computed"),
    ("spectra.iterative_count_above.calls", "count", "lower", "computed"),
    ("spectra.iterative_count_above.s", "s", "lower", "timed"),
    ("spectra.iterative_count_above.conclusive_frac", "ratio", "higher", "computed"),
    ("spectra.iterative_count_above.dense_fallback_frac", "ratio", "lower", "computed"),
    ("flow.crossing_count_detailed.calls", "count", "lower", "computed"),
    ("flow.crossing_count_detailed.s", "s", "lower", "timed"),
    ("flow.crossing_count_detailed.self_s", "s", "lower", "timed"),
    ("flow.endpoint_solves", "count", "lower", "computed"),
    ("flow.degenerate", "count", "lower", "computed"),
    ("asymptotic.calls", "count", "lower", "computed"),
    ("asymptotic.s", "s", "lower", "timed"),
    ("harness.run.s", "s", "lower", "timed"),
    ("harness.self_s", "s", "lower", "timed"),
    ("harness.emit_outputs.s", "s", "lower", "timed"),
    ("harness.csv_bytes", "bytes", "lower", "computed"),
    ("trace.overhead_s", "s", "lower", "timed"),
)
COMPUTED = tuple(name for name, _, _, kind in PER_LAYER if kind == "computed")


# ---------------------------------------------------------------------------
# recording (runs inside the study process)
# ---------------------------------------------------------------------------

def _batch(values) -> int:
    size = 1
    for extent in values.shape[:-3]:
        size *= int(extent)
    return size


def _attrs(name, args, result) -> dict:
    """Counters a span records from its call's arguments and result."""
    if name == "lattice.fft":
        return {"fields": _batch(args[0])}
    if name == "operators.assemble_dense":
        return {"dim": int(args[0].dimension)}
    if name == "spectra.hermitian_eigenvalues":
        return {"dim": int(args[0].shape[0])}
    if name == "spectra.iterative_count_above":
        return {"conclusive": bool(result.conclusive),
                "dense": result.method == "dense"}
    if name == "flow.crossing_count_detailed":
        return {"degenerate": bool(result.degenerate)}
    if name == "harness.emit_outputs":
        return {"csv_bytes": Path(result["csv"]).stat().st_size}
    return {}


class Tracer:
    """In-memory spans of one study run: name, start, end, parent, run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []
        self._runners: dict | None = None

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = {"name": name, "run": self.run_id,
                    "parent": self._stack[-1] if self._stack else None, "attrs": {}}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            measure_alloc = (name == "operators.assemble_dense"
                             and not tracemalloc.is_tracing())
            if measure_alloc:
                tracemalloc.start()
            span["start"] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                if measure_alloc:
                    span["attrs"]["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
            span["attrs"].update(_attrs(name, args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every binding of each target in the loaded gapcount modules."""
        from gapcount import cli, harness  # noqa: F401  (loads every study module)

        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "gapcount" or key.startswith("gapcount."))]
        for module_name, attr, span_name in TARGETS:
            original = getattr(sys.modules.get(f"gapcount.{module_name}"), attr, None)
            if original is None:
                continue  # a later version dropped the function: the metric reads 0
            wrapper = self.wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._rebound.append((module, key, original))
        self._runners = dict(harness.RUNNERS)
        for study, runner in self._runners.items():
            harness.RUNNERS[study] = self.wrap(RUNNER_SPAN, runner)

    def restore(self) -> list[str]:
        """Undo install; returns the bindings that are still not original."""
        from gapcount import harness

        for module, key, original in reversed(self._rebound):
            setattr(module, key, original)
        if self._runners is not None:
            harness.RUNNERS.clear()
            harness.RUNNERS.update(self._runners)
        leftovers = [f"{module.__name__}.{key}" for module, key, original in self._rebound
                     if getattr(module, key) is not original]
        if self._runners is not None:
            leftovers += [f"gapcount.harness.RUNNERS[{study!r}]"
                          for study, runner in harness.RUNNERS.items()
                          if runner is not self._runners.get(study)]
        return leftovers

    @property
    def rebound(self) -> int:
        """Number of bindings install replaced, runners included."""
        return len(self._rebound) + len(self._runners or ())


# ---------------------------------------------------------------------------
# aggregation (runs in run.py)
# ---------------------------------------------------------------------------

def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced study run (trace.overhead_s excluded).

    A layer's time counts only its outermost spans, so a traced function that
    calls another traced function of the same layer is not counted twice.
    Self time is a span's duration minus the durations of its direct
    children; calls within one process run one at a time, so children never
    overlap.
    """
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(i)

    def ancestors(i):
        parent = spans[i]["parent"]
        while parent is not None:
            yield spans[parent]["name"]
            parent = spans[parent]["parent"]

    def dur(i):
        return spans[i]["end"] - spans[i]["start"]

    outer: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        if span["name"] not in ancestors(i):
            outer.setdefault(span["name"], []).append(i)

    def calls(name):
        return len(outer.get(name, ()))

    def total(name):
        return sum(dur(i) for i in outer.get(name, ()))

    def self_time(name):
        return sum(dur(i) - sum(dur(c) for c in children.get(i, ()))
                   for i in outer.get(name, ()))

    def attr_values(name, key):
        return [spans[i]["attrs"][key] for i in outer.get(name, ())
                if key in spans[i]["attrs"]]

    def frac(name, key):
        values = attr_values(name, key)
        return sum(values) / len(values) if values else 0.0

    dense_dims = attr_values("operators.assemble_dense", "dim")
    eig_dims = attr_values("spectra.hermitian_eigenvalues", "dim")
    flow_solves = sum(1 for i, span in enumerate(spans)
                      if span["name"] == "spectra.hermitian_eigenvalues"
                      and "flow.crossing_count_detailed" in ancestors(i))
    return {
        "config.load_config.s": total("config.load_config"),
        "lattice.fft.calls": calls("lattice.fft"),
        "lattice.fft.fields": sum(attr_values("lattice.fft", "fields")),
        "lattice.fft.s": total("lattice.fft"),
        "symbol.multiplier.s": total("symbol.multiplier"),
        "potential.eval.s": total("potential.eval"),
        "operators.assemble_dense.calls": calls("operators.assemble_dense"),
        "operators.assemble_dense.s": total("operators.assemble_dense"),
        "operators.assemble_dense.self_s": self_time("operators.assemble_dense"),
        "operators.assemble_dense.bytes": sum(16 * d * d for d in dense_dims),
        "operators.assemble_dense.peak_alloc_mb": max(
            attr_values("operators.assemble_dense", "peak_alloc"), default=0) / 2 ** 20,
        "operators.restricted_block.calls": calls("operators.restricted_block"),
        "operators.restricted_block.s": total("operators.restricted_block"),
        "operators.restricted_block.self_s": self_time("operators.restricted_block"),
        "spectra.hermitian_eigenvalues.calls": calls("spectra.hermitian_eigenvalues"),
        "spectra.hermitian_eigenvalues.s": total("spectra.hermitian_eigenvalues"),
        "spectra.hermitian_eigenvalues.dim_max": max(eig_dims, default=0),
        "spectra.hermitian_eigenvalues.dim3_g": sum(d ** 3 for d in eig_dims) / 1e9,
        "spectra.iterative_count_above.calls": calls("spectra.iterative_count_above"),
        "spectra.iterative_count_above.s": total("spectra.iterative_count_above"),
        "spectra.iterative_count_above.conclusive_frac": frac(
            "spectra.iterative_count_above", "conclusive"),
        "spectra.iterative_count_above.dense_fallback_frac": frac(
            "spectra.iterative_count_above", "dense"),
        "flow.crossing_count_detailed.calls": calls("flow.crossing_count_detailed"),
        "flow.crossing_count_detailed.s": total("flow.crossing_count_detailed"),
        "flow.crossing_count_detailed.self_s": self_time("flow.crossing_count_detailed"),
        "flow.endpoint_solves": flow_solves,
        "flow.degenerate": sum(attr_values("flow.crossing_count_detailed", "degenerate")),
        "asymptotic.calls": calls("asymptotic"),
        "asymptotic.s": total("asymptotic"),
        "harness.run.s": total(RUNNER_SPAN),
        "harness.self_s": self_time(RUNNER_SPAN),
        "harness.emit_outputs.s": total("harness.emit_outputs"),
        "harness.csv_bytes": sum(attr_values("harness.emit_outputs", "csv_bytes")),
    }
