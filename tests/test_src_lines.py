"""tools/src_lines.py counts the code lines that the project's change notes
quote: no docstring, comment or blank line, and each line of a statement."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "src_lines", Path(__file__).resolve().parent.parent / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

SNIPPET = '''"""A module docstring
on two lines."""
# a comment

total = (1 +
         2)
'''


def test_code_lines_of_a_fixed_snippet():
    assert src_lines.code_lines(SNIPPET) == 2
