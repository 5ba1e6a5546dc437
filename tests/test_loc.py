"""`tools/loc.py` counts the code lines that "src/ should not grow" refers to."""

import importlib.util
from pathlib import Path

LOC = Path(__file__).resolve().parents[1] / "tools" / "loc.py"

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


def test_the_total_is_the_sum_over_the_modules(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n", encoding="utf-8")
    assert load_loc_tool().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == ["    7 a.py", "    1 b.py", "    8 total", ""]


def test_at_most_gates_the_total(tmp_path, capsys):
    # the total here is 8: allowed at 8, refused with a message at 7
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
    loc = load_loc_tool()
    assert loc.main([str(tmp_path), "--at-most", "8"]) == 0
    assert capsys.readouterr().err == ""
    assert loc.main([str(tmp_path), "--at-most", "7"]) == 1
    out, err = capsys.readouterr()
    assert out.endswith("    8 total\n") and err.startswith("8 code lines exceed the allowed 7")
