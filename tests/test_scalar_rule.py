"""Scalars are reduced into their field only by the matrix constructor."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CONSTRUCTORS = {("SparseMatrix", "__init__")}
FIELD_ARITHMETIC = {"add", "sub", "neg", "mul", "inv", "zero", "one"}


def _trees():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    return [ast.parse(path.read_text(encoding="utf-8")) for path in modules]


def _coerce_callers(tree):
    """(enclosing class, enclosing function) of every ``<x>.coerce(...)`` call."""
    out = set()

    def visit(node, cls, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, fn)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls, child.name)
            else:
                if isinstance(child, ast.Call) and getattr(child.func, "attr", None) == "coerce":
                    out.add((cls, fn))
                visit(child, cls, fn)

    visit(tree, None, None)
    return out


def test_only_the_container_constructors_coerce():
    callers = set().union(*(_coerce_callers(tree) for tree in _trees()))
    assert callers == CONSTRUCTORS


def test_field_has_no_per_operation_arithmetic():
    fields = [
        node
        for tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "Field"
    ]
    assert len(fields) == 1
    methods = {n.name for n in fields[0].body if isinstance(n, ast.FunctionDef)}
    assert "coerce" in methods
    assert methods & FIELD_ARITHMETIC == set()
