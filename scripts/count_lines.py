#!/usr/bin/env python3
"""Print the size of the package source under ``src/``.

Two figures per file and in total: all lines, and code lines, which are the
lines that are not blank, not a comment and not part of a docstring (the
string that opens a module, class or function body, located with ``ast``).

    python scripts/count_lines.py
"""

import ast
import sys
from pathlib import Path


def count(text: str) -> tuple[int, int]:
    """``(lines, code_lines)`` of the Python source ``text``."""
    lines = text.splitlines()
    skip = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                skip.update(range(first.lineno, first.end_lineno + 1))
    code = sum(1 for n, line in enumerate(lines, 1)
               if n not in skip and line.strip() and not line.strip().startswith("#"))
    return len(lines), code


def main() -> int:
    root = Path(__file__).resolve().parents[1] / "src"
    total = code = 0
    for path in sorted(root.rglob("*.py")):
        lines, code_lines = count(path.read_text(encoding="utf-8"))
        total, code = total + lines, code + code_lines
        print(f"{lines:6d} {code_lines:6d}  {path.relative_to(root)}")
    print(f"{total:6d} {code:6d}  total (lines, code lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
