"""`tools/loc.py` counts the code lines and tokens that "src/ should not grow"
refers to, and `src/sorf` keeps its lines short enough to read."""

import importlib.util
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LOC = ROOT / "tools" / "loc.py"
LINE_CAP = 110

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code


def f(x):
    """Docstring."""
    # a comment alone
    y = (x +
         1)
    return "a string, not a docstring"


class C:
    """Class docstring."""

    z = 1
'''


def load_loc_tool():
    spec = importlib.util.spec_from_file_location("sorf_loc_tool", LOC)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # import, def, both lines of the assignment, return, class, z
    assert load_loc_tool().code_lines(SOURCE) == 7


def test_code_tokens_skip_docstrings_comments_and_layout():
    # import os (2); def f ( x ) : (6); y = ( x + (5); 1 ) (2); return and
    # the string (2); class C : (3); z = 1 (3)
    assert load_loc_tool().code_tokens(SOURCE) == 23


def test_an_f_string_counts_as_one_token():
    # Python >= 3.12 splits an f-string into parts, a nested one too
    loc = load_loc_tool()
    assert loc.code_tokens('s = f"{a!r} and {f\'{b:>{w}}\'}"\n') == loc.code_tokens('s = "a and b"\n') == 3
    assert loc.code_tokens('print(f"{x}", f"y")\n') == 6


def test_split_f_string_tokens_count_once(monkeypatch):
    # the stream Python >= 3.12 makes of `s = f"a{b}"`, on any version:
    # FSTRING_START, the literal part, the replacement field, FSTRING_END
    loc = load_loc_tool()
    start, middle, end = -1, -2, -3
    monkeypatch.setattr(loc, "FSTRING_START", start)
    monkeypatch.setattr(loc, "FSTRING_END", end)
    N, O = tokenize.NAME, tokenize.OP
    parts = [(N, "s"), (O, "="), (start, 'f"'), (middle, "a"), (O, "{"), (N, "b"), (O, "}"), (end, '"'), (tokenize.NEWLINE, "")]
    stream = [tokenize.TokenInfo(kind, text, (1, 0), (1, 0), "") for kind, text in parts]
    monkeypatch.setattr(loc, "tokens", lambda source: stream)
    assert loc.code_tokens('s = f"a{b}"\n') == 3


def test_the_total_is_the_sum_over_the_modules(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n", encoding="utf-8")
    assert load_loc_tool().main([str(tmp_path)]) == 0
    lines = ["lines tokens module", "    7     23 a.py", "    1      3 b.py", "    8     26 total", ""]
    assert capsys.readouterr().out.split("\n") == lines


def test_at_most_gates_the_total(tmp_path, capsys):
    # 8 lines and 26 tokens: allowed at 26, refused with a message at 25 and
    # at the line total
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
    loc = load_loc_tool()
    assert loc.main([str(tmp_path), "--at-most", "26"]) == 0
    assert capsys.readouterr().err == ""
    for at_most in (25, 8):
        assert loc.main([str(tmp_path), "--at-most", str(at_most)]) == 1
        out, err = capsys.readouterr()
        assert out.endswith("    8     26 total\n") and err.startswith(f"26 code tokens exceed the allowed {at_most};")


def test_no_source_line_exceeds_the_cap():
    long = [
        f"{path.name}:{number}: {len(line)}"
        for path in sorted((ROOT / "src" / "sorf").glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > LINE_CAP
    ]
    assert not long, f"lines over {LINE_CAP} characters: {long}"
