"""Count the lines of a Python file, or of the Python source under a directory,
three ways.

    python tools/sloc.py [PATH]       # PATH defaults to src

Prints, over one Python file or every ``*.py`` file under a directory:

- all lines;
- code lines: lines that hold a token other than a comment, a newline or
  indentation (a string spanning lines counts on each of its lines);
- the code lines left when module, class and function docstrings are
  dropped too.

Standard library only, so it runs in any checkout.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path):
    """(all lines, code lines, code lines outside docstrings) of one file."""
    text = Path(path).read_text(encoding="utf-8")
    code = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _LAYOUT:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code), len(code - _docstring_lines(ast.parse(text)))


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src")
    files = [root] if root.is_file() else sorted(root.rglob("*.py"))
    if not files:
        raise SystemExit(f"no Python files under {root}")
    totals = [sum(col) for col in zip(*map(count, files))]
    print(f"{root}: {len(files)} files, {totals[0]:,} lines, {totals[1]:,} code, "
          f"{totals[2]:,} code without docstrings")


if __name__ == "__main__":
    main(sys.argv)
