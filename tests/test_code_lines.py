"""The code-line counter behind ROADMAP.md's leanness figures."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


class Box:
    """One line."""

    def area(self):
        """Two
        lines."""
        text = """a string that is
        not a docstring"""
        return math.pi
'''


def test_counts_code_and_skips_docstrings_comments_and_blanks():
    # import, class, def, the two-line string and return.
    assert code_lines.code_lines(SAMPLE) == 6


def test_a_module_without_docstrings():
    assert code_lines.code_lines("x = 1\n\n# note\ny = '''\n'''\n") == 3
