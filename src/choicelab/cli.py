"""Command-line front end: ``choicelab <mode> [flags]``.

Flags override values from an optional JSON config file; the master seed
falls back to the CHOICELAB_SEED environment variable. Exit codes:
0 success, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .harness import MODES, ExperimentConfig, emit, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="choicelab",
        description=(
            "Run seeded experiments for comparison-based choice inference: "
            "active/passive/mixture recovery, type classification, and "
            "distance-comparison procedures."
        ),
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", help="JSON file of parameters; flags override it")
    parser.add_argument("--n", type=int, help="universe size (or point count)")
    parser.add_argument("--k", type=int, help="choice-set size")
    parser.add_argument("--ell", type=int, help="selected position, 1..k from the minimum")
    parser.add_argument("--pi", help="comma-separated mixture probabilities")
    parser.add_argument("--gamma", type=float, help="mixture separation parameter")
    parser.add_argument("--epsilon", type=float, help="failure budget")
    parser.add_argument("--delta", type=float, help="estimation precision")
    parser.add_argument("--b", type=float, help="passive coverage parameter (default 8)")
    parser.add_argument("--dim", type=int, help="embedding dimension for distance modes")
    parser.add_argument("--alpha", type=float, help="stream rate (with --t1/--t2)")
    parser.add_argument("--t1", type=float, help="phase-1 duration")
    parser.add_argument("--t2", type=float, help="phase-2 duration")
    parser.add_argument("--p1", type=float, help="phase-1 appearance probability")
    parser.add_argument("--p2", type=float, help="phase-2 appearance probability")
    parser.add_argument("--trials", type=int, help="independent trials (default 1)")
    parser.add_argument("--seed", type=int, help="master seed (default: $CHOICELAB_SEED or 0)")
    parser.add_argument("--out", help="report path; omit to print to stdout")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"), help="report format")
    return parser


_CONFIG_KEYS = {
    "n", "k", "ell", "pi", "gamma", "epsilon", "delta", "b", "dim",
    "alpha", "t1", "t2", "p1", "p2", "trials", "seed", "out", "format",
}


def _parse_pi(text):
    try:
        return tuple(float(x) for x in str(text).split(","))
    except ValueError:
        raise ValueError(f"could not parse pi list: {text!r}")


def _load_config_file(path: str) -> dict:
    with open(path) as fp:
        data = json.load(fp)
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return data


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    merged: dict = {}
    try:
        if args.config:
            merged.update(_load_config_file(args.config))
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 3
    except (ValueError, json.JSONDecodeError) as exc:
        parser.error(str(exc))

    for key in _CONFIG_KEYS:
        attr = {"ell": "ell", "format": "fmt"}.get(key, key)
        value = getattr(args, attr, None)
        if value is not None:
            merged[key] = value

    if "seed" not in merged or merged["seed"] is None:
        merged["seed"] = int(os.environ.get("CHOICELAB_SEED", "0"))

    try:
        pi = _parse_pi(merged["pi"]) if merged.get("pi") is not None else None
        config = ExperimentConfig(
            mode=args.mode,
            n=merged.get("n"),
            k=merged.get("k"),
            position=merged.get("ell"),
            pi=pi,
            gamma=merged.get("gamma"),
            epsilon=merged.get("epsilon"),
            delta=merged.get("delta"),
            b=merged.get("b", 8.0),
            dim=merged.get("dim", 2),
            alpha=merged.get("alpha"),
            t1=merged.get("t1"),
            t2=merged.get("t2"),
            p1=merged.get("p1"),
            p2=merged.get("p2"),
            trials=merged.get("trials", 1),
            seed=merged["seed"],
            out=merged.get("out"),
            fmt=merged.get("format", "csv"),
        )
        config.validate()
    except ValueError as exc:
        parser.error(str(exc))

    report = run(config)

    try:
        if config.out:
            emit(report, config.fmt, config.out)
        else:
            text = report.to_csv() if config.fmt == "csv" else report.to_json()
            sys.stdout.write(text)
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
