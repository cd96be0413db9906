"""Write the reference report.csv of each workload for a range of seeds.

    python3 bench/make_reference.py --seeds 0-31 [--workload NAME]

Each reference is the report of one untraced study run that passed the
seedless checks (n_bs == n_flow, counts nondecreasing).  References fix the
counts of the commit they were made at; regenerate them only when a change
to the counts is intended, and say so in the change.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    names = (args.workload,) if args.workload else workloads.WORKLOADS
    status = 0
    for name in names:
        for seed in seeds:
            run_dir = run.WORK / f"reference-{name}-seed{seed}"
            shutil.rmtree(run_dir, ignore_errors=True)
            run_dir.mkdir(parents=True)
            config = run_dir / "config.cfg"
            config.write_text(workloads.make_config(name, seed), encoding="utf-8")
            rec = run.spawn(run_dir, "study", workloads.STUDY[name], config,
                            time.monotonic() + run.RUN_LIMIT_S)
            csv_path = run_dir / "study" / "out" / "report.csv"
            if not rec["problems"]:
                rec["problems"] = workloads.check_report(name, csv_path.read_text(), None)
            if rec["problems"]:
                print(f"{name} seed {seed}: FAILED {'; '.join(rec['problems'])}")
                status = 1
                continue
            target = workloads.reference_path(name, seed)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(csv_path, target)
            print(f"{name} seed {seed}: wrote {target.relative_to(run.ROOT)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
