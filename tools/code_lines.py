"""Print the code lines of each rmrec module and their total.

A code line is a non-blank line that is neither a `#` comment nor part of
a docstring; docstrings are the leading string statements of the module,
its classes and its functions, found through `ast`.

    python3 tools/code_lines.py
"""

from __future__ import annotations

import ast
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers that the tree's docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    return sum(1 for number, line in enumerate(source.splitlines(), start=1)
               if number not in skip and line.strip() and not line.lstrip().startswith("#"))


def main() -> None:
    root = Path(__file__).resolve().parents[1] / "src/rmrec"
    total = 0
    for module in sorted(root.glob("*.py")):
        count = code_lines(module.read_text())
        total += count
        print(f"{module.name:16} {count:5}")
    print(f"{'total':16} {total:5}")


if __name__ == "__main__":
    main()
