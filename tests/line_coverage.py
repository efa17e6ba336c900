"""Print each statement of ``src/entpow`` that the test suite never runs.

It runs the suite in this interpreter under ``sys.settrace`` and
``threading.settrace``, so ``dist``'s worker threads are traced too, and
records every line of ``src/entpow`` that starts to run.  A statement ran if
any of its own lines did: its lines outside its nested statements, such as
an ``if``'s test or a ``try``'s ``except`` clauses.  Statements with no
bytecode of their own, such as a function's docstring, are left out.  The
suite runs with the cache provider off, without writing bytecode, and from a
temporary working directory, so nothing is written to the tree; code run in
child processes is not traced.  Run it from anywhere::

    python3 tests/line_coverage.py

It prints one line per statement that never ran, ``module:line`` and the
line's text, then their count, and exits with pytest's status.  The file name
has no ``test_`` prefix, so pytest does not collect it.
"""

import ast
import os
import sys
import tempfile
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "entpow"


def _executable_lines(code: types.CodeType) -> set[int]:
    """The lines that ``code`` and the code objects nested in it have bytecode on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _executable_lines(const)
    return lines


def _span(node: ast.stmt) -> set[int]:
    """The lines of a statement, its decorators included."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return set(range(first, node.end_lineno + 1))


def _statements(tree: ast.Module):
    """Yield each statement with its own lines, those outside the statements nested in it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            yield node, _span(node).difference(*(_span(child) for child in ast.walk(node)
                                                 if child is not node and isinstance(child, ast.stmt)))


def never_ran(path: Path, ran: set[int]) -> list[tuple[int, str]]:
    """``(line, text)`` of each statement of the module at ``path`` none of whose own lines ran."""
    source = path.read_text()
    executable = _executable_lines(compile(source, str(path), "exec"))
    lines = source.splitlines()
    return sorted((node.lineno, lines[node.lineno - 1].strip())
                  for node, own in _statements(ast.parse(source))
                  if own & executable and not own & ran)


def main() -> int:
    ran: dict[str, set[int]] = {str(path): set() for path in PACKAGE.glob("*.py")}

    def trace(frame, event, arg):
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    sys.path.insert(0, str(ROOT / "src"))
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        threading.settrace(trace)
        sys.settrace(trace)
        try:
            status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                                  str(ROOT / "tests")])
        finally:
            sys.settrace(None)
            threading.settrace(None)
            os.chdir(cwd)
    missing = [(path.name, line, text) for path in sorted(PACKAGE.glob("*.py"))
               for line, text in never_ran(path, ran[str(path)])]
    for name, line, text in missing:
        print(f"{name}:{line}  {text}")
    print(f"{len(missing)} statements of src/entpow never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
