"""tools/code_lines.py, the package's line counter."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

_SOURCE = '''"""Module docstring,
on two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string that is
        not a docstring"""
        return (text,
                os)
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    # import, class, def, the two lines of the string and the two of the return
    assert code_lines.code_lines(_SOURCE) == 7


def test_code_lines_prints_a_row_per_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(_SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0][:2] == ["17", "7"] and rows[1][:2] == ["2", "1"]
    assert rows[2] == ["19", "8", "total"]
