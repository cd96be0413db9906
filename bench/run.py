"""Study benchmark of gapcount: end-to-end study metrics and a traced
per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is weyl-flow, theorem2-dense, box-localized, or all.  Every study runs
in its own process (child.py) through ``gapcount.cli.main`` with
``--workers 1``, with ``src`` on PYTHONPATH and the BLAS thread count left at
its default.  Study runs repeat, one after another, for S seconds: another starts only if it should end within the window.  Each
run's report.csv is checked against the reference for the
workload and seed (see workloads.py); a run that raises, exits non-zero or
fails the check counts as failed.

--trace 0 reports the end-to-end metrics (medians over the run's studies):
  setup_s      spawn of the process until load_config returns a validated
               config; also sampled by extra set-up-only processes
  study_s      validated config until cli.main returns with outputs written
  cpu_s        user + system CPU time of the study process
  peak_rss_mb  ru_maxrss of the study process
--trace 1 runs traced studies (at least two) and one untraced study, and
reports the per-layer metrics of tracer.PER_LAYER.  Computed counters must
repeat exactly across the traced studies.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Each run's samples, environment and spans
stay under .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as layers
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 165.0  # children still running then are killed; a run ends within 180 s
SETUP_PROBES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("study_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap proc with its resource usage; kill it at the deadline."""
    killed = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage, killed
        if time.monotonic() > deadline and not killed:
            proc.kill()
            killed = True
        time.sleep(0.01)


def spawn(run_dir: Path, tag: str, study: str, config: Path, deadline: float,
          run_id: str | None = None, setup_only: bool = False) -> dict:
    """Run one child process; returns its samples and any problems."""
    d = run_dir / tag
    d.mkdir()
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--study", study,
           "--config", str(config), "--out", str(d / "out"),
           "--stamps", str(d / "stamps.json")]
    if run_id is not None:
        cmd += ["--spans", str(d / "spans.json"), "--run-id", run_id]
    if setup_only:
        cmd.append("--setup-only")
    pythonpath = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    with open(d / "stdout.txt", "wb") as out, open(d / "stderr.txt", "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=env, cwd=ROOT)
        usage, killed = _wait(proc, deadline)
    rec = {"tag": tag, "traced": run_id is not None, "setup_only": setup_only,
           "problems": []}
    if killed:
        rec["problems"].append(f"killed after the run's {RUN_LIMIT_S:g} s limit")
    elif proc.returncode != 0:
        tail = (d / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
        rec["problems"].append(f"exit code {proc.returncode}: {' | '.join(tail)}")
    stamps_path = d / "stamps.json"
    if rec["problems"] or not stamps_path.is_file():
        if not rec["problems"]:
            rec["problems"].append("the child wrote no stamps")
        return rec
    child = json.loads(stamps_path.read_text())
    rec["env"] = child["env"]
    if "config_loaded" not in child["stamps"]:
        rec["problems"].append("load_config never returned")
        return rec
    rec["setup_s"] = child["stamps"]["config_loaded"] - t_spawn
    if setup_only:
        return rec
    rec["study_s"] = child["stamps"]["main_returned"] - child["stamps"]["config_loaded"]
    rec["cpu_s"] = usage.ru_utime + usage.ru_stime
    rec["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    missing = [name for name in ("report.csv", "plot.svg", "run_meta.txt")
               if not (d / "out" / name).is_file()]
    if missing:
        rec["problems"].append(f"outputs missing: {', '.join(missing)}")
    if run_id is not None:
        if child["not_restored"]:
            rec["problems"].append(f"bindings not restored: {child['not_restored']}")
        if not child["rebound"]:
            rec["problems"].append("the tracer wrapped nothing")
        rec["layers"] = layers.layer_metrics(json.loads((d / "spans.json").read_text()))
    return rec


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _environment(children: list[dict], seed: int) -> dict:
    env = next((c["env"] for c in children if "env" in c), {})
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "commit": _git_commit(), "seed": seed, **env}


def _print_env(env: dict) -> None:
    blas = "; ".join(f"{b['library']} threads={b['threads']}" for b in env.get("blas", ()))
    threads = ", ".join(f"{k}={v}" for k, v in env.get("thread_env", {}).items())
    print(f"env: nproc {env['nproc']}, python {env.get('python')}, numpy {env.get('numpy')}, "
          f"scipy {env.get('scipy')}, commit {env['commit']}, seed {env['seed']}")
    print(f"env: BLAS {blas or 'unknown'} ({threads})")


def _print_child(rec: dict) -> None:
    if rec["problems"]:
        print(f"  {rec['tag']:<9} FAILED  {'; '.join(rec['problems'])}")
    elif rec["setup_only"]:
        print(f"  {rec['tag']:<9} ok      setup {rec['setup_s']:.3f} s")
    else:
        print(f"  {rec['tag']:<9} ok      setup {rec['setup_s']:.3f} s  "
              f"study {rec['study_s']:.3f} s  cpu {rec['cpu_s']:.3f} s  "
              f"peak rss {rec['peak_rss_mb']:.1f} MB" + ("  (traced)" if rec["traced"] else ""))


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, probes: int = SETUP_PROBES) -> dict | None:
    """One benchmark run of a workload; None when no study succeeded.

    tiny=True runs the n = 12 versions of the configs (for the self-test);
    they have no references, so only the seedless checks apply.
    """
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    study = workloads.STUDY[workload]
    run_dir = WORK / f"{workload}-seed{seed}-trace{int(trace)}{'-tiny' if tiny else ''}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = run_dir / "config.cfg"
    config.write_text(workloads.make_config(workload, seed, tiny), encoding="utf-8")
    ref_path = workloads.reference_path(workload, seed)
    reference = ref_path.read_text() if ref_path.is_file() and not tiny else None
    print(f"== {workload}  seed {seed}  trace {int(trace)}  seconds {seconds:g}  "
          f"reference {'yes' if reference is not None else 'none (seedless checks only)'}")

    children = []

    def run_child(tag, run_id=None, setup_only=False):
        rec = spawn(run_dir, tag, study, config, deadline, run_id, setup_only)
        if not rec["problems"] and not setup_only:
            csv_text = (run_dir / tag / "out" / "report.csv").read_text()
            rec["problems"] += workloads.check_report(workload, csv_text, reference)
        children.append(rec)
        _print_child(rec)

    # Start another study only if it should end within the window, judged by
    # the median wall time of the studies so far; a traced run keeps room
    # for its closing untraced study.
    walls = []
    least, reserve = (2, 2) if trace else (1, 1)
    while True:
        k = len(walls)
        if k >= least and (time.monotonic() - start
                           + reserve * statistics.median(walls) > seconds):
            break
        t0 = time.monotonic()
        run_child(f"study-{k}", f"{workload}/seed{seed}/study-{k}" if trace else None)
        walls.append(time.monotonic() - t0)
    if trace:
        run_child(f"study-{len(walls)}")
    else:
        for i in range(probes):
            run_child(f"probe-{i}", setup_only=True)

    ok = [c for c in children if not c["problems"]]
    studies = [c for c in ok if not c["setup_only"]]
    if trace:
        traced = [c for c in studies if c["traced"]]
        for rec in traced[1:]:
            differs = [name for name in layers.COMPUTED
                       if rec["layers"][name] != traced[0]["layers"][name]]
            if differs:
                rec["problems"].append(f"computed counters differ from the first "
                                       f"traced run: {differs}")
        traced = [c for c in traced if not c["problems"]]
        untraced = [c for c in studies if not c["traced"]]
        if not traced or not untraced:
            return None
        metrics = {}
        for name, unit, _, kind in layers.PER_LAYER:
            if name == "trace.overhead_s":
                value = (statistics.median(c["study_s"] for c in traced)
                         - statistics.median(c["study_s"] for c in untraced))
            elif kind == "computed":
                value = traced[0]["layers"][name]
            else:
                value = statistics.median(c["layers"][name] for c in traced)
            metrics[name] = {"value": value, "unit": unit}
    else:
        if not studies:
            return None
        metrics = {"setup_s": {"value": statistics.median(c["setup_s"] for c in ok),
                               "unit": "s"}}
        for name, unit in END_TO_END[1:]:
            metrics[name] = {"value": statistics.median(c[name] for c in studies),
                             "unit": unit}

    failed = sum(1 for c in children if c["problems"])
    result = {"correct": failed == 0, "attempted": len(children), "failed": failed,
              "metrics": metrics}
    env = _environment(children, seed)
    _print_env(env)
    kinds = {name: kind for name, _, _, kind in layers.PER_LAYER}
    for name, m in metrics.items():
        label = f"  [{kinds[name]}]" if name in kinds else ""
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6f}"
        print(f"  {name:<50} {value:>16} {m['unit']}{label}")
    print(f"  runs attempted {result['attempted']}  failed {failed}  "
          f"(attempted counts every child process: studies and set-up probes)")
    (run_dir / "result.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
         "env": env, "children": children, **result}, indent=1), encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gapcount" / "cli.py").is_file():
        print(f"error: {SRC / 'gapcount'} not found; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if result is None:
            print(f"error: no {name} study finished successfully; see "
                  f"{WORK.relative_to(ROOT)}/", file=sys.stderr)
            return 1
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
