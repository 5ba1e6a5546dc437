"""Command-line driver.

Exit codes: 0 success, 2 config error, 3 numerical failure (deflation,
positivity, ...), 4 validation failure on an imported quadrature rule.  A
config file that cannot be read or is not UTF-8 JSON, or an output file that
cannot be written, is a config error; a rule file that cannot be read or
parsed fails validation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .driver import dump_quadrature, import_quadrature, read_json, rule_document, run_solve, run_sweep
from .errors import ConfigError, NumericalError, RuleValidationError, SorfError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sorf",
        description="Recurrence pencils for Sobolev orthonormal rational functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one configuration and print the report")
    p.add_argument("config", help="path to a JSON config document")
    p.add_argument("-o", "--output", default=None, help="write the report here instead of stdout")

    p = sub.add_parser("sweep", help="run an N-range sweep and print CSV")
    p.add_argument("config", help="path to a JSON config document with an N_range field")
    p.add_argument("-o", "--output", default=None, help="write the CSV here instead of stdout")

    p = sub.add_parser("dump-quadrature", help="emit the configured rational Gauss rule")
    p.add_argument("config", help="path to a JSON config document")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("import-quadrature", help="validate a rule document and re-emit it")
    p.add_argument("rule", help="path to a JSON rule document")
    p.add_argument("-o", "--output", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            report = run_solve(read_json(args.config))
            _write(json.dumps(report, indent=2), args.output)
        elif args.command == "sweep":
            _write(run_sweep(read_json(args.config)), args.output)
        elif args.command == "dump-quadrature":
            _write(json.dumps(dump_quadrature(read_json(args.config)), indent=2), args.output)
        elif args.command == "import-quadrature":
            rule = import_quadrature(read_json(args.rule, RuleValidationError, RuleValidationError))
            _write(json.dumps(rule_document(rule), indent=2), args.output)
    except RuleValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SorfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
