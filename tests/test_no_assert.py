"""Invariant checks must survive ``python -O``, which strips assert statements."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_no_assert_statements_in_src():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
