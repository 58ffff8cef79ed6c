"""Count the code lines of each module of a package.

    python3 tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/extkit``.  A code line is a physical line
that holds a token of code: blank lines, comment lines and the lines of
docstrings (module, class and function) do not count, and a statement
that spans several lines counts each of them.  Prints one JSON object,
module file name to count, with the sum as ``total``: the shape of
``src_code_lines`` in the ``BENCH_<pr>.json`` files.
"""
import ast
import io
import json
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def package_counts(root: Path) -> dict:
    counts = {p.name: code_lines(p.read_text()) for p in sorted(root.glob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("src/extkit")
    print(json.dumps(package_counts(root), indent=2))
