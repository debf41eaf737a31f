"""Command-line entry point for running sweeps and summarizing results."""

import argparse
import sys
from dataclasses import replace

from .errors import ParseError, RsmaSimError, ValidationError
from .harness import (
    load_spec,
    read_csv,
    run_experiment,
    summarize,
    write_csv,
    write_summary_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rsma-sim",
        description="Quantization-aware RSMA/SDMA precoding Monte Carlo simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a sweep described by a JSON config")
    run_p.add_argument("--config", required=True, help="path to the JSON experiment spec")
    run_p.add_argument("--out", required=True, help="path of the CSV to write")
    run_p.add_argument("--workers", type=int, default=1,
                       help="parallel trial workers, at least 1 (default: 1)")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config's base_seed")

    sum_p = sub.add_parser("summarize", help="aggregate a results CSV")
    sum_p.add_argument("--in", dest="in_path", required=True, help="results CSV to read")
    sum_p.add_argument("--out", required=True, help="path of the summary CSV to write")
    return parser


def _cmd_run(args):
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            document = handle.read()
    except OSError as exc:
        print(f"rsma-sim: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        spec = load_spec(document)
        if args.seed is not None:
            spec = replace(spec, base_seed=args.seed)
        records = run_experiment(spec, workers=args.workers)
    except (ParseError, ValidationError) as exc:
        print(f"rsma-sim: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RsmaSimError as exc:
        print(f"rsma-sim: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        write_csv(records, args.out)
    except OSError as exc:
        print(f"rsma-sim: cannot write results: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _cmd_summarize(args):
    try:
        records = read_csv(args.in_path)
    except OSError as exc:
        print(f"rsma-sim: cannot read results: {exc}", file=sys.stderr)
        return EXIT_IO
    except ParseError as exc:
        print(f"rsma-sim: bad results file: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        rows = summarize(records)
        write_summary_csv(rows, args.out)
    except OSError as exc:
        print(f"rsma-sim: cannot write summary: {exc}", file=sys.stderr)
        return EXIT_IO
    except ParseError as exc:
        print(f"rsma-sim: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_summarize(args)


if __name__ == "__main__":
    sys.exit(main())
