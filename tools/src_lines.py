"""Physical lines and code lines of each module of src/orbifold_index.

Code lines are the lines that hold a token of the program, by tokenize, less
the lines of docstrings (the leading string of a module, class or function,
by ast): no docstring, comment or blank line counts, and a statement or a
string literal that spans several lines counts each of them.  Standard
library only.  Run from anywhere:

    python tools/src_lines.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orbifold_index"

# tokens that are no code: layout, comments and the stream's ends
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(source: str) -> set[int]:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of a module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(source))


def main() -> int:
    rows = [(path.stem, len(text.splitlines()), code_lines(text))
            for path in sorted(PACKAGE.glob("*.py")) for text in [path.read_text()]]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<14}{'physical':>10}{'code':>8}")
    for name, physical, code in rows:
        print(f"{name:<14}{physical:>10}{code:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
