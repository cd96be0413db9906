"""Fast self-test of the benchmark itself, at tiny grids (n = 12).

    python3 bench/selftest.py

Runs every workload untraced and traced through the same code as a real
run, the correctness gate on good and broken reports, tracer install and
restore inside this process, and checks that BENCHMARK.json lists exactly the
metrics the benchmark prints.  Takes about twenty seconds on two cores.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import warnings

import run
import tracer
import workloads

failures: list[str] = []


def check(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        failures.append(what)


def check_gate() -> None:
    good = "alpha,n_bs,n_flow,prediction,ratio\n5,3,3,5,0.6\n10,5,5,10,0.5\n"
    gate = workloads.check_report
    check(gate("weyl-flow", good, good) == [], "gate: a report equal to its reference passes")
    extra = "alpha,n_bs,n_flow,prediction,ratio,extra\n5,3,3,5,0.6,1\n10,5,5,10,0.5,2\n"
    check(gate("weyl-flow", extra, good) == [], "gate: an extra column is allowed")
    check(gate("weyl-flow", good.replace("10,5,5", "10,6,6"), good) != [],
          "gate: a changed count fails against the reference")
    check(gate("weyl-flow", good.replace(",0.5\n", ",0.50000000000000001\n"), good) != [],
          "gate: cells compare exactly")
    check(gate("weyl-flow", good, good + "20,8,8,20,0.4\n") != [],
          "gate: a missing row fails")
    check(gate("weyl-flow", good.replace("ratio", "quotient"), good) != [],
          "gate: a missing reference column fails")
    check(gate("weyl-flow", good.replace("10,5,5", "10,5,4"), None) != [],
          "gate: n_flow != n_bs fails without a reference")
    box = "beta,count,prediction,ratio\n2,3,1,3\n4,2,4,0.5\n"
    check(gate("box-localized", box, None) != [], "gate: counts that decrease fail")
    t2 = "alpha,n_bs,n_flow,prediction,ratio\n2,4,,6,0.6\n3,12,,14,0.8\n"
    check(gate("theorem2-dense", t2, None) == [], "gate: theorem2 needs no flow column")
    for path in sorted(workloads.REFERENCE_DIR.glob("*/seed-*.csv")):
        text = path.read_text()
        if gate(path.parent.name, text, text):
            check(False, f"gate: reference {path.name} of {path.parent.name} passes")
    check(any(workloads.REFERENCE_DIR.glob("*/seed-*.csv")), "references are shipped")


def check_install_restore() -> None:
    sys.path.insert(0, str(run.SRC))
    from gapcount import cli, flow, harness, operators, spectra
    from gapcount.config import ExperimentConfig

    def bindings():
        return {(name, key): value for name, module in sys.modules.items()
                if name.startswith("gapcount") and module is not None
                for key, value in vars(module).items()}

    before, runners = bindings(), dict(harness.RUNNERS)
    t = tracer.Tracer("selftest")
    t.install()
    for module, name in ((harness, "assemble_dense"), (flow, "assemble_dense"),
                         (flow, "hermitian_eigenvalues"), (spectra, "hermitian_eigenvalues"),
                         (harness, "restricted_block"), (harness, "crossing_count_detailed"),
                         (operators, "forward_array"), (operators, "eval_potential"),
                         (cli, "load_config"), (cli, "emit_outputs")):
        check(hasattr(getattr(module, name), "__wrapped__"),
              f"install: {module.__name__}.{name} is wrapped where it is called")
    check(all(hasattr(r, "__wrapped__") for r in harness.RUNNERS.values()),
          "install: every study runner is wrapped")
    config = ExperimentConfig.from_text(workloads.make_config("weyl-flow", 0, tiny=True))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the ratio warning of a coarse grid
        harness.RUNNERS["weyl"](config)
    metrics = tracer.layer_metrics(t.spans)
    check(metrics["flow.crossing_count_detailed.calls"] == 4
          and metrics["flow.endpoint_solves"] == 8
          and metrics["operators.assemble_dense.calls"] == 9,
          "trace: a tiny weyl study with flow records 4 crossings, 8 endpoint "
          "solves and 9 dense assemblies")
    check(t.restore() == [], "restore: reports no leftover bindings")
    after = bindings()
    check(all(after.get(key) is value for key, value in before.items())
          and harness.RUNNERS == runners
          and all(harness.RUNNERS[k] is v for k, v in runners.items()),
          "restore: every gapcount binding is the original object again")


def check_runs() -> None:
    e2e = [name for name, _ in run.END_TO_END]
    per_layer = [name for name, _, _, _ in tracer.PER_LAYER]
    for name in workloads.WORKLOADS:
        with contextlib.redirect_stdout(io.StringIO()):
            plain = run.run_workload(name, 3, 0, False, tiny=True, probes=1)
            traced = run.run_workload(name, 3, 0, True, tiny=True)
        check(plain is not None and plain["correct"] and plain["failed"] == 0
              and list(plain["metrics"]) == e2e
              and all(m["value"] > 0 for m in plain["metrics"].values()),
              f"{name}: untraced run is correct and prints every end-to-end metric")
        check(traced is not None and traced["correct"] and traced["failed"] == 0
              and list(traced["metrics"]) == per_layer,
              f"{name}: traced run is correct, prints every per-layer metric, and its "
              f"computed counters repeat")
        if traced is None:
            continue
        value = {k: m["value"] for k, m in traced["metrics"].items()}
        flow_values = [v for k, v in value.items() if k.startswith("flow.")]
        if name == "weyl-flow":
            check(value["flow.crossing_count_detailed.calls"] > 0,
                  f"{name}: flow layer is traced")
        else:
            check(all(v == 0 for v in flow_values), f"{name}: flow.* reads 0")
        check((value["operators.restricted_block.calls"] > 0) == (name == "box-localized"),
              f"{name}: restricted_block runs only on box-localized")
        check(value["lattice.fft.calls"] > 0 and value["spectra.hermitian_eigenvalues.calls"] > 0,
              f"{name}: fft and eigensolve layers are traced")


def check_manifest() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json lists the workloads")
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
          "BENCHMARK.json lists the end-to-end metrics")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
          == [(n, u, b) for n, u, b, _ in tracer.PER_LAYER],
          "BENCHMARK.json lists the per-layer metrics")


def check_bare_directory() -> None:
    src, run.SRC = run.SRC, run.WORK / "no-such-src"
    try:
        with contextlib.redirect_stderr(io.StringIO()), \
                contextlib.redirect_stdout(io.StringIO()) as out:
            code = run.main(["--workload", "box-localized", "--seconds", "1"])
    finally:
        run.SRC = src
    check(code != 0 and out.getvalue() == "",
          "without src/ the benchmark exits non-zero and prints no result")


def main() -> int:
    check_gate()
    check_manifest()
    check_bare_directory()
    check_install_restore()
    check_runs()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
