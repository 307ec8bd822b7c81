"""A monomial is its strand word from basis to matrix, and its sorted
factor tuple in the library's answers: no module names an object wrapper
for it, and no frozenset is left on the path.  Each normalized column is
enumerated once, as strand words, by the one memo in ``sinha``, which
``d1_matrix`` reads without encoding or decoding a monomial, and that
search writes each word at one place.  One face walk writes all l + 1 faces
of every Sinha complex, and it alone deletes strand 1."""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "src" / "spectral_knots"
OBJECT_ALGEBRA = {"Monomial", "AlgebraElement"}
REWRITE = {"_reduce_cached"}
FACE_WALK = "_face_words"
# d1, the kept matchings of the diagonal entry, and the expanded complex of kancheck
FACE_SUMS = {"d1_matrix", "_kept_face_matrix", "_expanded_column_homology"}
BASIS_MEMO = "_basis_words"


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


def _face_walk_users(tree):
    """The top-level defs of a module that name the face walk."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and FACE_WALK in _identifiers(node) - {node.name}:
            out.add(node.name)
    return out


def test_the_face_walk_is_the_only_face_map():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PKG.glob("*.py"))]
    face_maps = {node.name for tree in trees for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.lstrip("_").startswith("face")}
    assert face_maps == {FACE_WALK}
    assert set().union(*map(_face_walk_users, trees)) == FACE_SUMS


def _is_lru_cache(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)) == "lru_cache"


def test_the_word_search_is_the_one_memo_in_sinha():
    tree = _tree("sinha.py")
    cached = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and any(map(_is_lru_cache, node.decorator_list))}
    assert cached == {BASIS_MEMO}


def test_d1_reads_the_basis_words_as_they_are():
    (d1,) = [n for n in _tree("sinha.py").body if isinstance(n, ast.FunctionDef) and n.name == "d1_matrix"]
    names = _identifiers(d1)
    assert BASIS_MEMO in names
    assert not names & {"_word", "_monomial", "normalized_basis"}


def _top_level_defs(tree):
    return [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_only_the_face_walk_deletes_strand_1():
    # _SHRINK[0] lowers every neighbour once strand 1 is gone: face 0's relabel
    sites = [fn.name for path in sorted(PKG.glob("*.py")) for fn in _top_level_defs(_tree(path.name))
             for sub in ast.walk(fn) if isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
             and sub.value.id == "_SHRINK" and isinstance(sub.slice, ast.Constant) and sub.slice.value == 0]
    assert sites == [FACE_WALK]


def test_the_basis_search_emits_at_one_site():
    (search,) = [fn for fn in _top_level_defs(_tree("sinha.py")) if fn.name == BASIS_MEMO]
    emits = [sub for sub in ast.walk(search)
             if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == "emit"]
    assert len(emits) == 1
