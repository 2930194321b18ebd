"""Count the code lines of each ``src/jacstab`` module and their total.

A code line is a non-blank line that is not a comment and not part of a
docstring (of a module, a class or a function).  Run it from anywhere:

    python tests/code_lines.py

pytest does not collect this file: its name does not match ``test_*``.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "jacstab"


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers a docstring spans, over every module, class and function."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The code lines of one module."""
    source = path.read_text()
    docstrings = _docstring_lines(ast.parse(source))
    return sum(1 for number, line in enumerate(source.splitlines(), start=1)
               if line.strip() and not line.strip().startswith("#") and number not in docstrings)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
