"""Code lines and tokens of a package, per module and in total.

    python3 tools/loc.py [package directory, default src/sorf] [--at-most N]

A code line is a non-blank line that carries a token of a statement: the
lines a docstring spans (the string that opens a module, class or function
body) and lines holding only a comment do not count; every physical line a
statement spans does.  A code token is a `tokenize` token other than a
comment, a docstring or a layout token (NL, NEWLINE, INDENT, DEDENT,
ENDMARKER); an f-string counts as one, as Python 3.11 reads it, although
Python 3.12 and later split it into parts.  Packing statements onto fewer
lines moves the line count, not the token count.  Prints one
`<lines> <tokens> <module>` line per module under a header, then
`<lines> <tokens> total`, so that "src/ should not grow" reads as one
number.  With `--at-most N` it also exits 1, with a message on stderr, when
the token total exceeds N: CI passes the current total, so a change that
grows the package raises N in its own diff.
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
# Python >= 3.12 tokenizes an f-string as FSTRING_START ... FSTRING_END
FSTRING_START, FSTRING_END = getattr(tokenize, "FSTRING_START", None), getattr(tokenize, "FSTRING_END", None)


def docstring_lines(source: str) -> set[int]:
    """Numbers of the lines the docstrings of `source` span."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def tokens(source: str):
    return tokenize.generate_tokens(io.StringIO(source).readline)


def code_lines(source: str) -> int:
    lines: set[int] = set()
    for token in tokens(source):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def code_tokens(source: str) -> int:
    docstrings = docstring_lines(source)
    count = depth = 0  # depth: f-strings open around the token
    for token in tokens(source):
        if token.type == FSTRING_START:
            count += depth == 0
            depth += 1
        elif token.type == FSTRING_END:
            depth -= 1
        elif depth == 0 and token.type not in NOT_CODE:
            count += token.type != tokenize.STRING or token.start[0] not in docstrings
    return count


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Code lines and tokens of a package, per module and in total.")
    parser.add_argument("package", nargs="?", type=Path, default=PACKAGE)
    parser.add_argument("--at-most", type=int, metavar="N", help="exit 1 when the token total exceeds N")
    args = parser.parse_args(argv)
    lines = count = 0
    print(f"{'lines':>5} {'tokens':>6} module")
    for path in sorted(args.package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        module_lines, module_tokens = code_lines(source), code_tokens(source)
        lines, count = lines + module_lines, count + module_tokens
        print(f"{module_lines:5d} {module_tokens:6d} {path.name}")
    print(f"{lines:5d} {count:6d} total")
    if args.at_most is not None and count > args.at_most:
        print(f"{count} code tokens exceed the allowed {args.at_most}; raise --at-most only with a capability that needs them", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
