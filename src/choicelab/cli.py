"""Command-line front end: ``choicelab <mode> [flags]``.

An optional JSON config file holds flags by name: each key is a flag
without its dashes (``{"n": 9, "ell": 2, "format": "json"}``), a list
value is joined by commas (``{"pi": [0.2, 0.3, 0.5]}``) and a null value
leaves the flag unset. The file is parsed as those flags, ahead of the
command line, so flags given on the command line override it. The master
seed falls back to the CHOICELAB_SEED environment variable. Flags must be
spelled in full. Exit codes: 0 success, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .distance import AmbiguousDistancesError
from .harness import MODES, PASSIVE_EPSILON, ExperimentConfig, emit, run


def _float_list(text: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"could not parse pi list: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    """The one parser of run parameters: each flag's dest is an
    ExperimentConfig field, and an unset flag keeps the field's default."""
    parser = argparse.ArgumentParser(
        prog="choicelab",
        description=(
            "Run seeded experiments for comparison-based choice inference: "
            "active/passive/mixture recovery, type classification, and "
            "distance-comparison procedures."
        ),
        argument_default=argparse.SUPPRESS,
        allow_abbrev=False,  # a config key names its flag in full
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", help="JSON file of flags by name; flags override it")
    parser.add_argument("--n", type=int, help="universe size (or point count)")
    parser.add_argument("--k", type=int, help="choice-set size")
    parser.add_argument("--ell", dest="position", type=int, metavar="ELL",
                        help="selected position, 1..k from the minimum")
    parser.add_argument("--pi", type=_float_list, help="comma-separated mixture probabilities")
    parser.add_argument("--gamma", type=float, help="mixture separation parameter")
    parser.add_argument("--epsilon", type=float,
                        help=f"failure budget (recover-passive default {PASSIVE_EPSILON})")
    parser.add_argument("--delta", type=float, help="estimation precision")
    parser.add_argument("--b", type=float, help="passive coverage parameter")
    parser.add_argument("--dim", type=int, help="embedding dimension for distance modes")
    parser.add_argument("--alpha", type=float, help="stream rate (with --t1/--t2)")
    parser.add_argument("--t1", type=float, help="phase-1 duration")
    parser.add_argument("--t2", type=float, help="phase-2 duration")
    parser.add_argument("--p1", type=float, help="phase-1 appearance probability")
    parser.add_argument("--p2", type=float, help="phase-2 appearance probability")
    parser.add_argument("--trials", type=int, help="independent trials")
    # argparse runs a string default through type=int, so a bad value exits 2
    parser.add_argument("--seed", type=int,
                        default=os.environ.get("CHOICELAB_SEED", argparse.SUPPRESS),
                        help="master seed, else $CHOICELAB_SEED")
    parser.add_argument("--out", help="report path; omit to print to stdout")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"), help="report format")
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    for action in parser._actions:
        if action.option_strings and defaults.get(action.dest) is not None:
            action.help += f" (default {defaults[action.dest]})"
    return parser


def _flag_text(value) -> str:
    if isinstance(value, list):
        return ",".join(map(_flag_text, value))
    return value if isinstance(value, str) else json.dumps(value)


def _config_flags(path: str) -> list:
    """The config file's entries as ``--key=value`` flags."""
    with open(path) as fp:
        data = json.load(fp)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return [f"--{key}={_flag_text(value)}" for key, value in data.items() if value is not None]


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if "config" in args:
        try:
            flags = _config_flags(args.config)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 3
        except ValueError as exc:  # JSONDecodeError is a ValueError
            parser.error(str(exc))
        args = parser.parse_args([*flags, *argv])  # the command line comes last and wins
        del args.config

    try:
        config = ExperimentConfig(**vars(args))
        config.validate()
    except ValueError as exc:
        parser.error(str(exc))

    try:
        report = run(config)
    except AmbiguousDistancesError as exc:  # no draw of the points was in general position
        parser.error(str(exc))

    try:
        emit(report, config.fmt, config.out)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 3

    agg = report.aggregate
    print(
        f"{config.mode}: {agg['successes']}/{agg['trials']} successful trials, "
        f"mean queries {agg['mean_queries']:.1f}"
        + (f" -> {config.out}" if config.out else ""),
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
