"""Command-line entry point.

Three subcommands, each driven by a YAML config file with optional flag
overrides (flags win over config values):

    powertrack run      <config> [--preset NAME] [--seed N] [--paths N] [--out-dir DIR]
    powertrack converge <config> --dtup a,b,c [--preset ...] [...]
    powertrack bands    <config> --levels 0.5,0.9,0.975 [--preset ...] [...]

On success the exit code is 0.  On failure a single JSON error line is
printed to stderr and the exit code is 2 for a usage or config error, 1
for a run that failed.  The line always carries ``error`` (the message)
and ``field`` (the config field at fault, or null); an artifact that would
hold a non-finite number is not written, and its line also names the
``artifact`` file and the ``column``.  Floating-point warnings are
silenced, so stderr carries nothing but that line.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .costopt import ConvergenceError
from .experiments import (
    ArtifactError,
    ConfigError,
    load_config,
    run_scenario,
    scenario_from_config,
    write_bands,
    write_convergence,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("config", help="YAML scenario file (may be empty when --preset is given)")
    parser.add_argument("--preset", default=None,
                        help="built-in scenario: PS1, PS2, PS3 or deterministic-fig5")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--paths", type=int, default=None,
                        help="Monte-Carlo path budget override")
    parser.add_argument("--out-dir", default="out", help="directory for CSV artifacts")


def _csv_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


class _Parser(argparse.ArgumentParser):
    """Raises a usage error, so that :func:`main` reports it as the one JSON
    line; subparsers inherit the class."""

    def error(self, message: str):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="powertrack",
        description="Optimal electricity injection under uncertain demand",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write its CSV artifacts")
    _add_common(run_p)

    conv_p = sub.add_parser("converge",
                            help="update-interval convergence study on a fixed path")
    _add_common(conv_p)
    conv_p.add_argument("--dtup", type=_csv_floats, required=True,
                        help="comma-separated update intervals, e.g. 0.125,0.05,0.025")

    bands_p = sub.add_parser("bands", help="demand confidence bands")
    _add_common(bands_p)
    bands_p.add_argument("--levels", type=_csv_floats, default=None,
                         help="comma-separated confidence levels in (0, 1)")

    return parser


def _fail(code: int, err: Exception, field: str | None, **extra) -> int:
    import json  # only a failure writes JSON, so a run does not import it

    print(json.dumps({"error": str(err) or type(err).__name__, "field": field,
                      **extra}), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(all="ignore"):
            return _run(args)
    except argparse.ArgumentError as err:
        return _fail(2, err, None)
    except ConfigError as err:
        return _fail(2, err, err.field)
    except ArtifactError as err:
        return _fail(1, err, None, artifact=err.artifact, column=err.column)
    except (ArithmeticError, ConvergenceError, MemoryError, OSError, ValueError) as err:
        # overflow, stopped optimizer, failed allocation, unreadable file, bad value
        return _fail(1, err, None)


def _run(args: argparse.Namespace) -> int:
    scenario = scenario_from_config(load_config(args.config), preset_name=args.preset,
                                    seed=args.seed, paths=args.paths)
    if args.command == "run":
        written = run_scenario(scenario, args.out_dir)
        for name, path in written.items():
            print(f"{name}: {path}")
    elif args.command == "converge":
        path = write_convergence(scenario, args.dtup, args.out_dir)
        print(f"convergence: {path}")
    elif args.command == "bands":
        if args.levels is not None:
            scenario = replace(scenario, levels=tuple(args.levels))
        path = write_bands(scenario, args.out_dir)
        print(f"bands: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
