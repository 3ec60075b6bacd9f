"""Code lines per module of src/hyprec: no blank lines, comments or docstrings.

The counts ROADMAP.md quotes for its leanness aim.  Run from the repository
root:

    python tools/code_lines.py
"""

import ast
from pathlib import Path

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold code, outside module, class and function docstrings."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if number not in docstrings and line.strip() and not line.lstrip().startswith("#")
    )


if __name__ == "__main__":
    package = Path(__file__).resolve().parent.parent / "src" / "hyprec"
    counts = {path.name: code_lines(path.read_text()) for path in sorted(package.glob("*.py"))}
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
