"""Command-line entry point for grid experiments and diagnostics.

Exit codes: 0 on success, 2 on flag/config errors, 3 when an output path
cannot be written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

from .harness import (
    ExperimentConfig,
    aggregate,
    expansion_residuals,
    run_grid,
    write_manifest,
    write_residuals_csv,
    write_rows_csv,
    write_summary_csv,
)
from .model import CovarianceKind, ModelKind
from .optim import ALGORITHM_NAMES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNWRITABLE = 3


def default_c_grid(algo: str, model: str, d: int) -> list[float]:
    """Packaged default step-constant grid for (algorithm, model, d).

    ASGD has per-dimension grids keyed 5/20/100; other algorithms share one
    grid per model. Unlisted dimensions fall back to the d=5 grid.
    """
    with resources.files("streamci.data").joinpath("c_grids.json").open() as handle:
        grids = json.load(handle)
    if algo == "asgd":
        by_d = grids["asgd"][model]
        return list(by_d.get(str(d), by_d["5"]))
    return list(grids["other"][model])


def _comma_list(convert, noun):
    """argparse type: a non-empty comma list of convert(value)s."""

    def parse(text: str) -> list:
        try:
            values = [convert(v) for v in text.split(",") if v.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected a comma list of {noun}, got {text!r}") from exc
        if not values:
            raise argparse.ArgumentTypeError("expected at least one value")
        return values

    return parse


def build_parser() -> argparse.ArgumentParser:
    default = {field.name: field.default for field in dataclasses.fields(ExperimentConfig)}
    parser = argparse.ArgumentParser(
        prog="streamci",
        description="Coverage/width experiments for streaming estimators.",
    )
    parser.add_argument("--model", required=True, choices=[m.value for m in ModelKind])
    parser.add_argument("--d", required=True, type=int, help="number of coordinates incl. intercept")
    parser.add_argument("--t", required=True, type=_comma_list(int, "integers"), help="stream length(s), comma list")
    parser.add_argument("--cov", required=True, choices=[c.value for c in CovarianceKind])
    parser.add_argument("--algo", required=True, choices=list(ALGORITHM_NAMES))
    parser.add_argument("--c", type=_comma_list(float, "numbers"), default=None, help="step constants, comma list (default: packaged grid)")
    parser.add_argument("--gamma", type=float, default=default["gamma"])
    parser.add_argument("--alpha", type=float, default=default["alpha"])
    parser.add_argument("--reps", type=int, default=default["reps"])
    parser.add_argument("--seed", type=int, default=default["base_seed"], help="base seed (uint64)")
    parser.add_argument("--methods", type=_comma_list(str.strip, "method names"), default=default["methods"])
    parser.add_argument("--no-warm-start", action="store_true")
    parser.add_argument("--out", required=True, help="raw result CSV path")
    parser.add_argument("--summary", default=None, help="summary CSV path (default: <out stem>_summary.csv)")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--diagnostic", choices=["expansion-residual"], default=None)
    return parser


def _build_configs(args) -> list[ExperimentConfig]:
    if len(set(args.t)) < len(args.t):
        raise ValueError(f"--t must not repeat a value, got {args.t}")
    c_grid = args.c if args.c is not None else default_c_grid(args.algo, args.model, args.d)
    shared = dict(model=args.model, d=args.d, cov=args.cov, algorithm=args.algo, c_grid=c_grid, gamma=args.gamma,
                  alpha=args.alpha, reps=args.reps, base_seed=args.seed, methods=args.methods,
                  warm_start=not args.no_warm_start)
    return [ExperimentConfig(t=t, **shared) for t in args.t]


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK

    if args.threads < 1:
        print(f"error: --threads must be at least 1, got {args.threads}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfgs = _build_configs(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    summary_path = args.summary or str(Path(args.out).with_name(Path(args.out).stem + "_summary.csv"))
    manifest_path = args.out + ".manifest.json"
    if args.diagnostic is None and len({Path(p).resolve() for p in (args.out, summary_path, manifest_path)}) < 3:
        print(f"error: the raw CSV {args.out}, the summary {summary_path} and the manifest {manifest_path} "
              "must be three different files", file=sys.stderr)
        return EXIT_CONFIG

    started = time.monotonic()
    if args.diagnostic == "expansion-residual":
        try:
            residuals = [expansion_residuals(cfg) for cfg in cfgs]
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        try:
            write_residuals_csv(cfgs, residuals, args.out)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_UNWRITABLE
        return EXIT_OK

    rows = run_grid(cfgs, threads=args.threads)
    summaries = aggregate(rows)
    elapsed = time.monotonic() - started
    try:
        write_rows_csv(rows, args.out)
        write_summary_csv(summaries, summary_path)
        write_manifest(cfgs, manifest_path, threads=args.threads, wall_clock_seconds=elapsed, rows=rows)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    return EXIT_OK


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
