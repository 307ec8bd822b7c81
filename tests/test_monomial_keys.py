"""The Sinha pipeline keys a monomial by its sorted factor tuple from basis to
matrix: ``Monomial`` wraps the tuple only at the algebra API, and no
frozenset is left on the path."""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "src" / "spectral_knots"
PULLBACKS = {"face_pullback", "degeneracy_pullback"}
REWRITE = {"_reduce_cached", "_reduce", "_rewrite_step", "reduce_squarefree", "_reduce_product"}


def _tree(module):
    return ast.parse((PKG / module).read_text(encoding="utf-8"))


def _calls_by_function(tree, name):
    """Enclosing top-level function (None at module level) of every ``name(...)`` call."""
    out = set()
    for node in tree.body:
        fn = node.name if isinstance(node, ast.FunctionDef) else None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == name:
                out.add(fn)
    return out


def _names(node):
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def test_sinha_wraps_monomials_only_in_the_pullbacks():
    assert _calls_by_function(_tree("sinha.py"), "Monomial") == PULLBACKS


def test_no_frozenset_in_sinha_or_the_rewrite():
    assert "frozenset" not in _names(_tree("sinha.py"))
    rewrite = [n for n in _tree("conf_algebra.py").body if isinstance(n, ast.FunctionDef) and n.name in REWRITE]
    assert {n.name for n in rewrite} == REWRITE
    for fn in rewrite:
        assert "frozenset" not in _names(fn), fn.name
