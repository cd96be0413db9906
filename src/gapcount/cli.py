"""Command-line front end.

    gapcount <study> --config <file> --out <dir>

Studies: weyl, theorem2, crossterm, box, flow-trace, oracle.  Exit codes:
0 success, 2 configuration error, 3 cap/resource error, 4 the run finished
but hit a degenerate counting threshold.  main maps the errors to exit codes
in one place; the config is validated once, when load_config builds it.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import warnings

from .config import STUDIES, ConfigError, load_config
from .harness import emit_outputs, oracle_lines, run_study
from .operators import DenseCapExceededError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_DEGENERATE = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapcount",
        description="Eigenvalue counting studies in the spectral gap",
    )
    parser.add_argument("study", choices=STUDIES)
    parser.add_argument("--config", required=True, help="flat key=value config file")
    parser.add_argument("--out", help="output directory (required except for oracle)")
    # every study runs serially; bench/child.py still passes --workers 1
    parser.add_argument("--workers", type=int, default=1, choices=(1,),
                        help=argparse.SUPPRESS)
    return parser


def _run(args) -> int:
    config = load_config(args.config)
    if config.study != args.study:
        raise ConfigError(f"config declares study {config.study!r}, "
                          f"command requested {args.study!r}")
    if args.study == "oracle":
        lines = oracle_lines(config)
        for line in lines:
            print(line)
        if args.out:
            out = pathlib.Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            (out / "oracle.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        return EXIT_OK
    if not args.out:
        raise ConfigError("--out is required for counting studies")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_study(config)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    paths = emit_outputs(report, args.out, config)
    print(f"wrote {paths['csv']}")
    if report.degenerate:
        print("degenerate counting threshold encountered; see warnings", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (FileNotFoundError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DenseCapExceededError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource error: out of memory", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
