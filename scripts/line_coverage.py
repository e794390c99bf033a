#!/usr/bin/env python3
"""List the lines of ``src/layermerge`` that no test runs.

Runs pytest in this process, with this script's arguments, under a line
tracer (``sys.settrace``, and ``threading.settrace`` for the threads the
tests start) that records only the lines of ``src/layermerge``. Then it
prints every executable line that did not run, as ``path:line: source``,
and a total. Lines that only define or import, and so run when a module is
imported, are left out: ``def`` and ``class`` headers, decorators, imports
and docstrings. CLI children that a test starts as subprocesses are not
traced, so a line that only they reach is listed. Standard library only.

    python scripts/line_coverage.py tests/ -q

Exits 0 once pytest has run the tests, whether or not they passed (the
tier-1 run gates them), and with pytest's code when it could not run them.
Tracing about doubles the suite's time.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "layermerge"


def executable_lines(code) -> set[int]:
    """The lines of the code object ``code`` and of every one nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def definition_lines(tree) -> set[int]:
    """The lines of ``def`` and ``class`` headers, decorators, imports and
    docstrings of the module ``tree``."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            skip.update(range(node.lineno, node.end_lineno + 1))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for decorator in node.decorator_list:
                skip.update(range(decorator.lineno, decorator.end_lineno + 1))
            skip.update(range(node.lineno, node.body[0].lineno))
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                skip.update(range(first.lineno, first.end_lineno + 1))
    return skip


def tracer(hits: dict):
    """A global trace function that adds the lines run in the package's
    files to ``hits``, a set per file's real path."""
    files = {}  # code file name -> the set of its lines run, None outside the package

    def lines(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = os.path.realpath(name)
            files[name] = hits.setdefault(path, set()) if Path(path).is_relative_to(PACKAGE) else None
        return None if files[name] is None else lines

    return calls


def report(hits: dict) -> None:
    missed = total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = executable_lines(compile(text, str(path), "exec")) - definition_lines(ast.parse(text))
        source = text.splitlines()
        not_run = sorted(lines - hits.get(str(path), set()))
        for n in not_run:
            print(f"{path.relative_to(ROOT)}:{n}: {source[n - 1].strip()}")
        missed, total = missed + len(not_run), total + len(lines)
    print(f"{missed} of {total} executable lines of src/layermerge ran in no test")


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))  # this checkout's package, not an installed one
    import pytest

    hits = {}
    trace = tracer(hits)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    report(hits)
    return 0 if code in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED) else int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
