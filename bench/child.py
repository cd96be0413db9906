"""One study run in its own process, through the real entry point.

    python3 child.py --study S --config FILE --out DIR --stamps FILE
                     [--spans FILE --run-id ID] [--setup-only]

Runs ``gapcount.cli.main`` with ``--workers 1`` and writes a JSON file of
CLOCK_MONOTONIC stamps (taken when load_config returns and when main
returns), the exit code and the environment.  run.py takes the spawn
time on the same clock, so set-up time includes interpreter start and the
numpy/scipy imports.  --setup-only stops as soon as the config is loaded.
--spans records a trace of the layers (see tracer.py) and writes it out at
the end.  Exits with the CLI's exit code.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
import time
from pathlib import Path


class _SetupDone(BaseException):
    """Ends a --setup-only run; BaseException so the CLI does not catch it."""


def blas_info() -> list[dict]:
    """The OpenBLAS builds bundled with numpy and scipy and their thread counts."""
    import numpy
    import scipy

    found = []
    for package in (numpy, scipy):
        libdir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            entry = {"package": package.__name__, "library": path.name, "threads": None}
            for prefix in ("scipy_openblas_", "openblas_"):
                for suffix in ("64_", ""):
                    get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                    get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                    if get_threads is None:
                        continue
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    entry["threads"] = get_threads()
                    if get_config is not None:
                        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                        entry["config"] = get_config().decode()
                    break
                if entry["threads"] is not None:
                    break
            found.append(entry)
    return found


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--study", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--stamps", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from gapcount import cli

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer(args.run_id)
        tracer.install()

    stamps = {}
    load_config = cli.load_config

    def timed_load_config(*a, **kw):
        config = load_config(*a, **kw)
        stamps["config_loaded"] = time.monotonic()
        if args.setup_only:
            raise _SetupDone
        return config

    cli.load_config = timed_load_config
    try:
        rc = cli.main([args.study, "--config", args.config, "--out", args.out,
                       "--workers", "1"])
    except _SetupDone:
        rc = 0
    finally:
        cli.load_config = load_config
    stamps["main_returned"] = time.monotonic()

    record = {"rc": rc, "stamps": stamps, "env": environment()}
    if tracer is not None:
        record["rebound"] = tracer.rebound
        record["not_restored"] = tracer.restore()
        Path(args.spans).write_text(json.dumps(tracer.spans), encoding="utf-8")
    Path(args.stamps).write_text(json.dumps(record), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main())
