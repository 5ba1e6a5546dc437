"""Command-line driver.

Exit codes: 0 success, 2 config error, 3 numerical failure (deflation,
positivity, ...), 4 validation failure on an imported quadrature rule.  A
config file that cannot be read or is not UTF-8 JSON, or an output (file or
stdout) that cannot be written, is a config error; a rule file that cannot be
read or parsed fails validation.  The output file is created or truncated
once the input document is read, before any work.

`solve` writes its report straight from the solvers' arrays: H and K go out
row by row, to the same bytes as `json.dumps(run_solve(doc))`, and no
per-entry `[re, im]` list is built; those lists exist only for library
callers of `run_solve`.  The argument parser is built once per process.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

import numpy as np

from .driver import dump_quadrature, import_quadrature, read_json, rule_document, run_solve, run_sweep
from .errors import ConfigError, NumericalError, RuleValidationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4


def _output(out: str | None):
    """The stream the result goes to: stdout, or the file `out`, opened now."""
    if out is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(out, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {out!r}: {exc}") from exc


def _write(text: str, fh) -> None:
    if not text.endswith("\n"):
        text += "\n"
    try:
        fh.write(text)
        fh.flush()
    except OSError as exc:
        if fh is not sys.stdout:
            raise ConfigError(f"cannot write {fh.name!r}: {exc}") from exc
        # mostly a reader that closed the pipe: point stdout at devnull, so the
        # flush at exit cannot fail again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        raise ConfigError(f"cannot write to stdout: {exc}") from None


def _report_json(report: dict) -> str:
    """`json.dumps` of `run_solve`'s report, for one whose H and K are still
    the solvers' arrays: `json.dumps` writes the rest and a NUL string where
    each array stands (no report holds one), and `_matrix_json`'s text of
    the array replaces it."""
    matrices = []
    parts = json.dumps(report, default=lambda M: matrices.append(_matrix_json(M)) or "\0").split(r'"\u0000"')
    return "".join(part + matrix for part, matrix in zip(parts, matrices + [""]))


def _matrix_json(M: np.ndarray) -> str:
    """`json.dumps(driver._encode_matrix(M))`, the same bytes, without one
    list per entry.  Every row goes through the matrix's one `%r` row
    template, `[x, 0.0]` per entry for real data and `[re, im]` for
    complex, so each float is written as `json.dumps` writes it, the
    signed zeros below a Hessenberg subdiagonal included."""
    M = np.ascontiguousarray(M)
    row = "[" + ", ".join(["[%r, %r]" if np.iscomplexobj(M) else "[%r, 0.0]"] * M.shape[1]) + "]"
    return "[" + ", ".join([row % tuple(r) for r in M.view(float).tolist()]) + "]"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser; each `parse_args` call makes a new namespace."""
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
        if args.command == "import-quadrature":
            doc = read_json(args.rule, RuleValidationError, RuleValidationError)
        else:
            doc = read_json(args.config)
        with _output(args.output) as fh:
            if args.command == "solve":
                text = _report_json(run_solve(doc, _keep_arrays=True))
            elif args.command == "sweep":
                text = run_sweep(doc)
            elif args.command == "dump-quadrature":
                text = json.dumps(dump_quadrature(doc))
            else:
                text = json.dumps(rule_document(import_quadrature(doc)))
            _write(text, fh)
    except RuleValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
