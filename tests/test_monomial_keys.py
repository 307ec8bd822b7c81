"""A monomial is its sorted factor tuple from basis to matrix: no module
names an object wrapper for it, and no frozenset is left on the path."""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "src" / "spectral_knots"
OBJECT_ALGEBRA = {"Monomial", "AlgebraElement"}
REWRITE = {"_reduce_cached"}


def _tree(module):
    return ast.parse((PKG / module).read_text(encoding="utf-8"))


def _names(node):
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def _identifiers(tree):
    """Every name a module binds, reads, imports or looks up as an attribute."""
    out = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            out.add(sub.name)
        elif isinstance(sub, ast.alias):
            out.update(filter(None, (sub.name, sub.asname)))
    return out


def test_no_module_names_the_object_algebra():
    modules = sorted(PKG.glob("*.py"))
    assert modules
    for path in modules:
        assert not _identifiers(_tree(path.name)) & OBJECT_ALGEBRA, path.name


def test_no_frozenset_in_sinha_or_the_rewrite():
    assert "frozenset" not in _names(_tree("sinha.py"))
    rewrite = [n for n in _tree("conf_algebra.py").body if isinstance(n, ast.FunctionDef) and n.name in REWRITE]
    assert {n.name for n in rewrite} == REWRITE
    for fn in rewrite:
        assert "frozenset" not in _names(fn), fn.name
