"""The code-line counter of tools/code_lines.py."""
import importlib.util
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""
import math

# a comment line


class A:
    """Class docstring."""

    def f(self, x):
        """Function docstring."""
        y = (x +  # a trailing comment keeps its line
             1)
        return math.sqrt(y)
'''


def test_only_lines_of_code_count():
    # import, class, def, the two lines of the assignment and the return
    assert code_lines.code_lines(SOURCE) == 6


def test_a_string_that_is_no_docstring_counts():
    # only a module's, class's or function's first statement is its docstring
    assert code_lines.code_lines('x = """a\nb"""\n') == 2
    assert code_lines.code_lines('x = 1\n"""not first"""\n') == 2


def test_the_script_prints_each_module_and_the_total():
    out = subprocess.run([sys.executable, str(SCRIPT), str(ROOT / "src" / "extkit")],
                         capture_output=True, text=True, check=True).stdout
    counts = json.loads(out)
    assert counts.pop("total") == sum(counts.values())
    assert sorted(counts) == sorted(p.name for p in (ROOT / "src" / "extkit").glob("*.py"))
