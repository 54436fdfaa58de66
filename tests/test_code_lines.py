import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools/code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# every scope's docstring, comment lines and blank lines are not counted;
# the nine lines marked "counted" are
_SOURCE = '''"""The module's docstring,
over two lines."""

# a comment line
import os  # counted, its trailing comment notwithstanding


class Thing:  # counted
    """The class's docstring."""

    def method(self):  # counted
        """The method's docstring."""
        "counted: a string statement, but not the first of its scope"
        return os.sep  # counted


async def run():  # counted
    """The coroutine's
    docstring."""

    text = """counted,
    both lines"""
    return text  # counted
'''


def test_code_lines_counts_code_only():
    assert code_lines.code_lines(_SOURCE) == 9


def test_code_lines_total_is_the_sum_of_the_modules(capsys):
    code_lines.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    modules = {name: int(count) for name, count in rows[:-1]}
    assert rows[-1][0] == "total" and int(rows[-1][1]) == sum(modules.values())
    source = ROOT / "src/rmrec"
    assert modules == {module.name: code_lines.code_lines(module.read_text())
                       for module in source.glob("*.py")}
