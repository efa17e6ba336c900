"""Print the code lines of ``src/entpow``, per module and in total.

A line counts when a token other than a comment sits on it outside a
docstring: blank lines, comment lines and the lines of module, class and
function docstrings do not count, and a string or bracket that spans lines
counts every line it spans.  Run it from anywhere::

    python3 tests/code_lines.py
    python3 tests/code_lines.py --against /path/to/parent-clone

``--against PATH`` also counts the tree at ``PATH`` and prints both totals and
their difference.  The file name has no ``test_`` prefix, so pytest does not
collect it.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: tokens that put no code on a line
_SILENT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of the module's, the classes' and the functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SILENT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def count(root: Path) -> dict[str, int]:
    """Code lines per module of ``root/src/entpow``, largest first."""
    counts = {path.stem: code_lines(path.read_text())
              for path in sorted((root / "src" / "entpow").glob("*.py"))}
    return dict(sorted(counts.items(), key=lambda item: (-item[1], item[0])))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="PATH", help="another tree to compare totals with")
    args = parser.parse_args()
    here = count(ROOT)
    for module, lines in here.items():
        print(f"{lines:6}  {module}")
    print(f"{sum(here.values()):6}  total")
    if args.against:
        there = sum(count(Path(args.against)).values())
        print(f"{there:6}  total in {args.against}")
        print(f"{sum(here.values()) - there:+6}  difference")


if __name__ == "__main__":
    main()
