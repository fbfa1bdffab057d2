#!/usr/bin/env python3
"""Print the line count and the code-line count of each package module,
the number of names in the package's __all__, the number of the CLI's
options and the number of environment variables the package reads.

A code line is a non-blank line that lies outside every docstring (module,
class and function docstrings, located with ast) and holds at least one
token other than a comment (located with tokenize).  So blank lines,
docstrings and comment-only lines are not code; a line that ends in a
comment after code is.  __all__ is read from __init__.py with ast too.

The options are the optional arguments of every subcommand of the
package's cli.build_parser(), -h aside, counted once per subcommand that
takes them.  The environment variables are the distinct names the modules
read through os.environ or os.getenv, found with ast.

It reads the modules of src/lehmerdefect next to this script, or the
directory given as the only argument, and imports the package's cli from
that directory's parent.

Example:
    python scripts/line_counts.py
"""

import argparse
import ast
import importlib
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


def options(root: Path) -> int:
    """Optional arguments, -h aside, summed over the subcommands of the
    cli.build_parser() of the package at root."""
    sys.path.insert(0, str(root.parent))
    parser = importlib.import_module(f"{root.name}.cli").build_parser()
    subcommands = [
        sub
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
        for sub in action.choices.values()
    ]
    return sum(
        1
        for sub in subcommands
        for action in sub._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    )


def _is(node: ast.AST, name: str) -> bool:
    """node is the name, bare or as an attribute (os.environ, environ)."""
    return getattr(node, "attr", getattr(node, "id", None)) == name


def environment_names(source: str) -> set[str]:
    """Names the module reads as os.environ[...], os.environ.get(...) (or
    any other environ method) or os.getenv(...); a key that is not a string
    constant is named by its source text."""
    keys = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and _is(node.value, "environ"):
            keys.append(node.slice)
        elif isinstance(node, ast.Call) and node.args and (
            _is(node.func, "getenv") or _is(getattr(node.func, "value", None), "environ")
        ):
            keys.append(node.args[0])
    return {k.value if isinstance(k, ast.Constant) else ast.unparse(k) for k in keys}


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "lehmerdefect"
    sources = {path.name: path.read_text() for path in sorted(root.glob("*.py"))}
    rows = [(name, *counts(source)) for name, source in sources.items()]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'lines':>5}  {'code':>5}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>5}  {code:>5}")
    if "__init__.py" in sources:
        print(f"__all__: {public_names(sources['__init__.py'])} names")
    if "cli.py" in sources:
        print(f"options: {options(root)}")
    print(f"environment: {len(set().union(*map(environment_names, sources.values())))}")


if __name__ == "__main__":
    main(sys.argv[1:])
