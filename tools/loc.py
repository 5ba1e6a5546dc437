"""Code lines of a package, per module and in total.

    python3 tools/loc.py [package directory, default src/sorf] [--at-most N]

A code line is a non-blank line that carries a token of a statement: the
lines a docstring spans (the string that opens a module, class or function
body) and lines holding only a comment do not count; every physical line a
statement spans does.  Prints one `<count> <module>` line per module, then
`<count> total`, so that "src/ should not grow" reads as one number.
With `--at-most N` it also exits 1, with a message on stderr, when that
total exceeds N: CI passes the current total, so a change that grows the
package raises N in its own diff.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sorf"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """Numbers of the lines the docstrings of `source` span."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Code lines of a package, per module and in total.")
    parser.add_argument("package", nargs="?", type=Path, default=PACKAGE)
    parser.add_argument("--at-most", type=int, metavar="N", help="exit 1 when the total exceeds N")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:5d} {path.name}")
    print(f"{total:5d} total")
    if args.at_most is not None and total > args.at_most:
        print(f"{total} code lines exceed the allowed {args.at_most}; raise --at-most only with a capability that needs them", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
