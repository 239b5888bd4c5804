"""The rules of ``tools/code_lines.py``, which states every code-line count of the package."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("code_lines", REPO / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Docstrings, comments and blank lines are not counted.  A string that
# is no docstring and a continued statement count every line they span.
_MODULE = '''"""A module docstring,
over two lines."""

# A comment.
import math  # 1


class Shape:  # 2
    """A class docstring."""

    def area(self):  # 3
        """A function docstring,
        over two lines."""
        # A comment in a body.
        label = """a string
that is no
docstring"""  # 4-6
        total = (math.pi +  # 7
                 1.0 +  # 8
                 2.0)  # 9

        return label, total  # 10


def side():  # 11
    """A function docstring."""
    return 1  # 12
'''


def test_counts_code_lines_and_skips_docstrings_comments_and_blanks(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(_MODULE, encoding="utf-8")
    assert code_lines.code_lines(path) == 12


def test_main_prints_each_module_and_their_sum(capsys):
    package = REPO / "src" / "ordercalc"
    assert code_lines.main(["code_lines.py", str(package)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    *modules, (total, label) = rows
    assert label == "total"
    assert [name for _, name in modules] == sorted(path.name for path in package.glob("*.py"))
    for count, name in modules:
        assert int(count) == code_lines.code_lines(package / name), name
    assert int(total) == sum(int(count) for count, _ in modules)
