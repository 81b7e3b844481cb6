"""Batch front end: run named scenarios or config files, list the catalogue,
validate configs.  Exit codes: 0 all checks pass, 1 check failure, 2 usage or
config error, 3 numerical failure.

    python -m vortexlab.cli run <scenario|config.json> [--out DIR] [--seed S]
    python -m vortexlab.cli list [--json] [--section N]
    python -m vortexlab.cli validate <config.json>
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .scenarios import REGISTRY, ScenarioSpec, catalog, read_config, run_scenario, validate_config
from .solver import ConfigError, NumericalError

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vortexlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario by name or from a config file")
    p_run.add_argument("target", help="scenario name or path to a JSON config")
    p_run.add_argument("--out", default="out", help="output directory (default: out)")
    p_run.add_argument("--seed", type=int, default=0, help="seed for randomized suites")

    p_list = sub.add_parser("list", help="list scenarios with their claims and defaults")
    p_list.add_argument("--json", action="store_true", dest="as_json")
    p_list.add_argument("--section", type=int, default=None, help="filter by topic section number")

    p_val = sub.add_parser("validate", help="validate a config file without running it")
    p_val.add_argument("path")
    return parser


def _load_target(target: str):
    path = Path(target)
    if path.suffix == ".json" or path.exists():
        return read_config(path)  # run_scenario checks the params by building them
    if target in REGISTRY:
        return target, {}, []
    return None, None, [f"unknown scenario or missing config file: '{target}'"]


def _cmd_run(args) -> int:
    name, params, errors = _load_target(args.target)
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    spec = ScenarioSpec(name=name, params=params, outdir=args.out, seed=args.seed)
    try:
        result = run_scenario(spec)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(result.to_text(), end="")
    print(f"report: {Path(args.out) / name / 'report.json'}")
    return EXIT_PASS if result.passed else EXIT_CHECK_FAILURE


def _cmd_list(args) -> int:
    entries = catalog(args.section)
    if args.as_json:
        print(json.dumps(entries, indent=2))
        return EXIT_PASS
    for e in entries:
        print(f"{e['name']} (section {e['section']}): {e['summary']}")
        print(f"    defaults: {json.dumps(e['defaults'])}")
    return EXIT_PASS


def _cmd_validate(args) -> int:
    errors = validate_config(args.path)
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    print("ok")
    return EXIT_PASS


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the config-error code
        return int(exc.code) if exc.code else EXIT_PASS
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "list":
        return _cmd_list(args)
    return _cmd_validate(args)


if __name__ == "__main__":
    sys.exit(main())
