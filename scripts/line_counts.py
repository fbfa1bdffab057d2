#!/usr/bin/env python3
"""Print the line count and the code-line count of each package module,
and the number of names in the package's __all__.

A code line is a non-blank line that lies outside every docstring (module,
class and function docstrings, located with ast) and holds at least one
token other than a comment (located with tokenize).  So blank lines,
docstrings and comment-only lines are not code; a line that ends in a
comment after code is.  __all__ is read from __init__.py with ast too.

It reads the modules of src/lehmerdefect next to this script, or the
directory given as the only argument.

Example:
    python scripts/line_counts.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def counts(source: str) -> tuple[int, int]:
    """(all lines, code lines) of one module's source."""
    text = source.splitlines()
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= _docstring_lines(ast.parse(source))
    return len(text), sum(1 for i in code if text[i - 1].strip())


def public_names(source: str) -> int:
    """Length of the module's top-level __all__ list or tuple (0 when it has none)."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return len(node.value.elts)
    return 0


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "lehmerdefect"
    rows = [(path.name, *counts(path.read_text())) for path in sorted(root.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'lines':>5}  {'code':>5}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>5}  {code:>5}")
    init = root / "__init__.py"
    if init.exists():
        print(f"__all__: {public_names(init.read_text())} names")


if __name__ == "__main__":
    main(sys.argv[1:])
