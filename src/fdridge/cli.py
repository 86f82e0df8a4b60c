"""Command-line entry point.

    fdridge sweep --config sweep.cfg [--out table.csv] [--raw] [--jobs 1]
    fdridge iterate --config iter.cfg --t 10 [--out table.csv] [--jobs 1]
    fdridge sketch-acc --config acc.cfg [--out table.csv]

Any config key can be overridden with repeated --set key=value flags.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiments import (ConfigError, load_config, run_bias_variance_sweep,
                          run_iterative_experiment, run_sketch_accuracy)


def _add_common(sub):
    sub.add_argument("--config", required=True, help="path to a key=value config file")
    sub.add_argument("--out", default=None, help="output CSV path")
    sub.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE", help="override a config entry")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdridge",
        description="Sketched ridge regression experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="bias/variance sweep over a gamma grid")
    _add_common(sweep)
    sweep.add_argument("--raw", action="store_true",
                       help="also write per-trial rows to <out>.raw.csv")

    iterate = sub.add_parser("iterate", help="error per iteration of iterative solvers")
    _add_common(iterate)
    iterate.add_argument("--t", type=int, required=True, help="iteration count")

    # Kept, with its one value, so that command lines passing --jobs 1 parse.
    for gridded in (sweep, iterate):
        gridded.add_argument("--jobs", type=int, choices=(1,),
                             help="cells run one at a time; only 1 is accepted")

    acc = sub.add_parser("sketch-acc", help="sketch covariance error vs bounds")
    _add_common(acc)
    return parser


def _gather_overrides(args) -> dict:
    overrides: dict = {}
    for item in args.overrides:
        key, eq, value = item.partition("=")
        if not eq:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key = key.strip()
        if key in overrides:
            raise ConfigError(f"--set gives {key!r} twice")
        overrides[key] = value.strip()
    return overrides


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config, _gather_overrides(args))
        out = args.out or f"fdridge-{args.command}.csv"
        if out.endswith("/") or Path(out).is_dir():
            raise OSError(f"--out {out!r} names a directory, not a file")
        if not (folder := Path(out).parent).is_dir():
            raise OSError(f"no directory {str(folder)!r} for --out {out}")
        if args.command == "sweep":
            rows = run_bias_variance_sweep(config, raw=args.raw, out=out)
        elif args.command == "iterate":
            rows = run_iterative_experiment(config, args.t, out=out)
        else:
            rows = run_sketch_accuracy(config, out=out)
    except (OSError, ValueError) as err:  # ConfigError is a ValueError
        print(f"fdridge: error: {err}", file=sys.stderr)
        return 2
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
