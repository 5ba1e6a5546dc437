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
callers of `run_solve`.  Each subcommand is one entry of `COMMANDS`, from which
the argument parser is built, once per process, and `main` dispatches.
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


# subcommand: (help, positional argument, its help, the error of a file that
# cannot be read or parsed, the output text of the document it reads); each
# entry looks up its driver function at call time, so a wrapper installed on
# this module under that name takes effect
COMMANDS = {
    "solve": (
        "solve one configuration and print the report",
        "config", "path to a JSON config document",
        ConfigError, lambda doc: _report_json(run_solve(doc, _keep_arrays=True)),
    ),
    "sweep": (
        "run an N-range sweep and print CSV",
        "config", "path to a JSON config document with an N_range field",
        ConfigError, lambda doc: run_sweep(doc),
    ),
    "dump-quadrature": (
        "emit the configured rational Gauss rule",
        "config", "path to a JSON config document",
        ConfigError, lambda doc: json.dumps(dump_quadrature(doc)),
    ),
    "import-quadrature": (
        "validate a rule document and re-emit it",
        "rule", "path to a JSON rule document",
        RuleValidationError, lambda doc: json.dumps(rule_document(import_quadrature(doc))),
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser; each `parse_args` call makes a new namespace."""
    parser = argparse.ArgumentParser(
        prog="sorf",
        description="Recurrence pencils for Sobolev orthonormal rational functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, arg, arg_help, _, _) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument(arg, help=arg_help)
        p.add_argument("-o", "--output", default=None, help="write the output here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _, arg, _, file_error, text = COMMANDS[args.command]
    try:
        doc = read_json(getattr(args, arg), file_error, file_error)
        with _output(args.output) as fh:
            _write(text(doc), fh)
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
