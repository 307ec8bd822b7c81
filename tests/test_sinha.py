import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    default_choice,
    degeneracy_quotient_dim,
    face,
    face_monomial_d1,
    face_sum,
    face_sum_d1,
    from_entries,
    inclusion_exclusion_dim,
    is_basic,
    linear_relation_matrix,
    rewrite_step,
    shared_larger,
)
from spectral_knots.conf_algebra import _reduce_cached, basis_monomials
from spectral_knots import conf_algebra, sinha
from spectral_knots.linalg import CAPACITY_LIMIT, ComplexError, Field, SparseMatrix
from spectral_knots.sinha import (
    CapacityError,
    ConsistencyError,
    _face_monomial,
    d1_matrix,
    e2_diagonal,
    e2_page,
    column_homology,
    kan_unit_check,
    normalized_basis,
    normalized_dim_formula,
    vassiliev_e1_view,
)

Q = Field()
F2 = Field(2)


def apply_face(i, l, x):
    """Face i of a combination {factor tuple: int} on l strands."""
    out = {}
    for mono, c in x.items():
        for m, k in _face_monomial(i, l, mono):
            out[m] = out.get(m, 0) + c * k
    return {m: c for m, c in out.items() if c}


# ---------------------------------------------------------------------------
# face maps


def test_inner_face_merges_to_diagonal():
    # shrinking strands 1, 2 sends the separation class to the tangent class
    assert _face_monomial(1, 2, ((1, 2),)) == ((((1, 1),), 1),)


def test_inner_face_relabels():
    assert _face_monomial(2, 3, ((1, 3),)) == ((((1, 2),), 1),)
    assert _face_monomial(2, 3, ((2, 3),)) == ((((2, 2),), 1),)


def test_outer_face_kills_boundary_strand():
    assert _face_monomial(0, 2, ((1, 2),)) == ()
    assert _face_monomial(0, 1, ((1, 1),)) == ()
    assert _face_monomial(2, 2, ((1, 2),)) == ()
    assert _face_monomial(0, 3, ((2, 3),)) == ((((1, 2),), 1),)


def test_basic_face_image_leaves_the_rewrite_memo_alone():
    # shrinking strands 1, 2 of g(1,2) g(2,3) gives g(1,1) g(1,2), already basic
    before = _reduce_cached.cache_info()
    assert _face_monomial(1, 3, ((1, 2), (2, 3))) == ((((1, 1), (1, 2)), 1),)
    # shrinking strands 2, 3 of g(1,2) g(1,3) squares g(1,2): it vanishes
    assert _face_monomial(2, 3, ((1, 2), (1, 3))) == ()
    # shrinking strands 3, 4 of g(1,4) g(2,3) gives g(1,3) g(2,3), which is
    # not: the face map, which serves at most three strands, refuses it
    with pytest.raises(ValueError, match=re.escape("face 3 of ((1, 4), (2, 3)) is not basic")):
        _face_monomial(3, 4, ((1, 4), (2, 3)))
    assert _reduce_cached.cache_info() == before


def test_face_index_range():
    with pytest.raises(ValueError):
        _face_monomial(3, 2, ((1, 2),))
    with pytest.raises(ValueError):
        _face_monomial(-1, 2, ((1, 2),))


def test_simplicial_face_identity():
    # d_i d_j = d_{j-1} d_i for i < j, exercised on every generator
    rng = random.Random(3)
    for _ in range(40):
        l = rng.randint(2, 5)
        i, j = sorted(rng.sample(range(0, l + 1), 2))
        a, b = sorted((rng.randint(1, l), rng.randint(1, l)))
        x = {((a, b),): 1}
        lhs = apply_face(i, l - 1, apply_face(j, l, x))
        rhs = apply_face(j - 1, l - 1, apply_face(i, l, x))
        assert lhs == rhs, (l, i, j, a, b)


# ---------------------------------------------------------------------------
# normalized columns and the differential


def test_normalized_basis_examples():
    assert list(normalized_basis(2, 1)) == [((1, 2),)]
    assert list(normalized_basis(1, 1)) == [((1, 1),)]
    # spec lists 8 here via inclusion-exclusion with dim_Y(1,2)=1, but the
    # closed form gives dim_Y(1,2)=0 (the single tangent class squares to
    # zero); all three independent routes agree on 5.
    assert len(normalized_basis(3, 2)) == 5
    assert inclusion_exclusion_dim(3, 2) == 5
    assert degeneracy_quotient_dim(3, 2, Q) == 5


def test_normalized_basis_empty_above_two_k():
    for k in range(0, 3):
        for l in range(2 * k + 1, 2 * k + 3):
            if l >= 1:
                assert normalized_basis(l, k) == ()


def test_normalized_basis_is_filtered_full_basis():
    # the pruned forest search enumerates exactly the basic monomials in
    # which every strand occurs, in the same order
    for l in range(0, 8):
        for k in range(0, 5):
            every_strand = set(range(1, l + 1))
            expected = [m for m in basis_monomials(l, k) if {s for p in m for s in p} == every_strand]
            assert list(normalized_basis(l, k)) == expected, (l, k)


def test_normalized_triple_agreement_small():
    for l in range(1, 5):
        for k in range(0, 4):
            combinatorial = len(normalized_basis(l, k))
            assert combinatorial == inclusion_exclusion_dim(l, k), (l, k)
            assert combinatorial == degeneracy_quotient_dim(l, k, Q), (l, k)


def test_normalized_dimension_field_independent():
    for (l, k) in [(2, 1), (3, 2), (4, 2), (4, 3)]:
        over_q = degeneracy_quotient_dim(l, k, Q)
        over_f2 = degeneracy_quotient_dim(l, k, F2)
        assert over_q == over_f2 == len(normalized_basis(l, k))


def test_d1_raises_on_a_face_term_outside_the_basis(monkeypatch):
    # every term of an inner face image covers all l - 1 strands, so a term
    # the target rows lack is a broken face map, not something to project away
    walk = sinha._face_words
    leaked = ((1, 2), (2, 3))  # face 2 of ((1, 2), (3, 4)), among others
    assert leaked in normalized_basis(3, 2)

    def leaky(l, sources, words, rows):
        return walk(l, sources, words, {w: r for w, r in rows.items() if w != sinha._word(leaked, l - 1)})

    monkeypatch.setattr(sinha, "_face_words", leaky)
    with pytest.raises(ConsistencyError, match=re.escape(f"face image term {leaked!r} of ((")):
        d1_matrix(4, 2, Q)


@pytest.mark.parametrize("source", [((2, 2), (3, 4)), ((1, 3), (2, 2))], ids=["no-strand-1", "no-strand-l"])
def test_d1_raises_on_a_source_missing_an_outer_strand(monkeypatch, source):
    # a source missing strand 1 has a nonzero face 0, one missing strand l a
    # nonzero face l: neither is a normalized monomial
    real = sinha.normalized_basis
    monkeypatch.setattr(sinha, "normalized_basis", lambda l, k: real(l, k) + (source,) if (l, k) == (4, 2) else real(l, k))
    with pytest.raises(ConsistencyError, match=re.escape(f"normalized monomial {source!r} misses strand 1 or 4")):
        d1_matrix(4, 2, Q)


def test_d1_two_one_is_minus_one():
    m = d1_matrix(2, 1, Q)
    assert (m.rows, m.cols) == (1, 1)
    assert m.entries == {(0, 0): -1}


def test_d1_empty_source():
    m = d1_matrix(3, 1, Q)
    assert (m.rows, m.cols) == (1, 0)
    assert m.is_zero()
    # past 127 strands no neighbour fits a strand word's byte, and no column
    # there is both nonempty and within reach
    assert d1_matrix(200, 1, Q) == SparseMatrix(0, 0, Q)


@pytest.mark.parametrize("field", [Q, F2, Field(3)])
def test_d1_squares_to_zero_small(field):
    for k in range(0, 4):
        for l in range(2, 7):
            a = d1_matrix(l - 1, k, field)
            b = d1_matrix(l, k, field)
            assert a.compose(b).is_zero(), (l, k, field)


@pytest.mark.parametrize("field", [Q, Field(3)])
def test_d1_matches_face_pullback(field):
    for l in range(1, 9):
        for k in range(0, 5):
            assert d1_matrix(l, k, field) == face_sum_d1(l, k, field), (l, k, field)


def monomial(word):
    """The sorted factor tuple of a strand word: byte v - 1 is 2 * (the
    smaller neighbour of strand v, 0 if none) + (1 if g(v, v) is a factor)."""
    edges = [(x >> 1, v) for v, x in enumerate(word, 1) if x >> 1]
    return tuple(sorted(edges + [(v, v) for v, x in enumerate(word, 1) if x & 1]))


def rewrite_steps(i, l, mono):
    """Length of the longest rewrite chain of inner face i of a basic
    monomial, 0 when the face is basic or vanishes."""
    def steps(m):
        if is_basic(m):
            return 0
        return 1 + max([steps(t) for t, _ in rewrite_step(m, *default_choice(shared_larger(m)))], default=0)

    raw = sorted({(a - (a > i), b - (b > i)) for (a, b) in mono})
    return 0 if len(raw) < len(mono) else steps(tuple(raw))


@st.composite
def normalized_monomials(draw):
    """(l, m): up to six distinct factors on strands 1..12, relabelled onto
    the strands they touch, so that every strand occurs; basic ones only."""
    pairs = st.tuples(st.integers(1, 12), st.integers(1, 12)).map(lambda p: tuple(sorted(p)))
    factors = draw(st.lists(pairs, min_size=1, max_size=6, unique=True))
    label = {s: i for i, s in enumerate(sorted({s for f in factors for s in f}), 1)}
    mono = tuple(sorted((label[a], label[b]) for a, b in factors))
    assume(is_basic(mono))
    return len(label), mono


# staircases: face l - 1 takes a chain of l - 3 rewrite steps
STAIRS = [(l, tuple((a, a + 2) for a in range(1, l - 1))) for l in (5, 6, 7)]
# the first two with a factor (1, 2): their chains vanish at step two and three
VANISHING_STAIRS = [(l, ((1, 2),) + mono) for l, mono in STAIRS[:2]]


def test_staircase_faces_take_chains_of_two_to_four_steps():
    assert [rewrite_steps(l - 1, l, mono) for l, mono in STAIRS] == [2, 3, 4]
    assert all(face(l - 1, l, mono) for l, mono in STAIRS)


def test_staircases_with_a_first_step_vanish_at_the_second_and_third():
    assert [rewrite_steps(l - 1, l, mono) for l, mono in VANISHING_STAIRS] == [2, 3]
    assert [face(l - 1, l, mono) for l, mono in VANISHING_STAIRS] == [{}, {}]


class Numbering(dict):
    """{strand word: row} that numbers each word on its first lookup."""

    def __missing__(self, word):
        self[word] = len(self)
        return self[word]


@settings(max_examples=300, deadline=None)
@given(normalized_monomials())
@example(STAIRS[0])
@example(STAIRS[1])
@example(STAIRS[2])
@example(VANISHING_STAIRS[0])
@example(VANISHING_STAIRS[1])
def test_word_walk_is_the_face_sum(case):
    # the word walk's closed forms and chains against the literal faces and
    # the reference rewrite of tests/oracles.py, over Z
    l, mono = case
    assert monomial(sinha._word(mono, l)) == mono
    rows = Numbering()
    (col,) = sinha._face_words(l, [mono], [sinha._word(mono, l)], rows)
    words = list(rows)
    assert {monomial(words[r]): c for r, c in col.items() if c} == face_sum(l, mono)


def test_e2_page_leaves_the_rewrite_memo_empty():
    # in a fresh interpreter, so that no earlier test has filled the memo
    code = ("from spectral_knots import conf_algebra, sinha\n"
            "from spectral_knots.linalg import Field\n"
            "sinha.e2_page(8, 4, Field())\n"
            "print(conf_algebra._reduce_cached.cache_info().currsize)\n")
    src = os.path.dirname(os.path.dirname(sinha.__file__))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out == "0\n"


# every (l, k) with k <= 6 whose d1 has both dimensions <= 15000
SMALL_D1 = [(l, k) for k in range(7) for l in range(1, 2 * k + 2)
            if max(normalized_dim_formula(l, k), normalized_dim_formula(l - 1, k)) <= 15000]


def test_d1_is_the_face_monomial_matrix():
    # entry for entry, as dicts, the matrix of one literal oracle face per face,
    # rows looked up by factor tuple, over Q, F_2 and F_3; the literal
    # face_sum_d1 above is three times slower over this range
    assert len(SMALL_D1) == 43
    for l, k in SMALL_D1:
        want = face_monomial_d1(l, k, Q)
        for field in (Q, F2, Field(3)):
            assert d1_matrix(l, k, field) == SparseMatrix(want.rows, want.cols, field, want.columns), (l, k, field)


def test_d1_enters_neither_the_face_map_nor_the_rewrite_memo(monkeypatch):
    # every face is written in closed form, chains included: on the matrices
    # of e2 --n 8 --k-max 4, 164 of the 6142 inner faces take two or more
    # rewrite steps
    pairs = [(l, k) for k in range(5) for l in range(1, min(8, 2 * k + 1) + 1)]
    faces = [(i, l, m) for l, k in pairs for m in normalized_basis(l, k) for i in range(1, l)]
    assert len(faces) == 6142 and sum(rewrite_steps(*face) >= 2 for face in faces) == 164

    def refuse(*args):
        raise AssertionError(f"entered with {args!r}")

    monkeypatch.setattr(conf_algebra, "_reduce_cached", refuse)
    monkeypatch.setattr(sinha, "_face_monomial", refuse)
    assert set(pairs) <= set(SMALL_D1)
    for l, k in SMALL_D1:
        d1_matrix(l, k, Q)


# ---------------------------------------------------------------------------
# page tables


def test_e2_hand_entries():
    page = e2_page(2, 1, Q)
    assert page[(-2, 2)] == 0
    assert page[(-1, 2)] == 0


def test_e2_diagonal_matches_chord_dimension():
    from spectral_knots.chords import dim_A

    page = e2_page(4, 2, Q)
    assert page[(-4, 4)] == dim_A(2, Q) == 1


def test_e2_diagonal_shortcut_matches_full_page():
    for field in (Q, F2):
        page = e2_page(6, 3, field)
        for i in (1, 2, 3):
            assert e2_diagonal(i, field) == page[(-2 * i, 2 * i)], (i, field)


@pytest.mark.parametrize("field, dims, rank", [(Q, (2, 0), 211), (F2, (3, 1), 210), (Field(3), (2, 0), 211)])
def test_e2_page_shows_the_f2_torsion_of_d1(field, dims, rank):
    # d1 from column 7 to column 6 at k = 4 loses one rank over F_2 alone, so
    # the kernel at (-7, 8) and the cokernel at (-6, 8) each gain one
    page = e2_page(8, 4, field)
    assert (page[(-7, 8)], page[(-6, 8)]) == dims
    assert d1_matrix(7, 4, field).rank() == rank


def adjacent(mono):
    """True when a perfect matching has a factor (i, i+1)."""
    return any(b == a + 1 for (a, b) in mono)


@pytest.mark.parametrize("field", [Q, F2, Field(3)])
@pytest.mark.parametrize("n", range(1, 6))
def test_e2_diagonal_is_the_kernel_of_the_full_d1(n, field):
    d = d1_matrix(2 * n, n, field)
    assert e2_diagonal(n, field) == d.cols - d.rank()


@pytest.mark.parametrize("n", range(1, 6))
def test_adjacent_sources_own_a_private_tangent_row(n):
    # the argument e2_diagonal rests on, checked on the full d1 over Q
    d = d1_matrix(2 * n, n, Q)
    src, tgt = normalized_basis(2 * n, n), normalized_basis(2 * n - 1, n)
    rows = {}
    for (r, c), v in d.entries.items():
        rows.setdefault(r, {})[c] = v
    tangent = {r for r, m in enumerate(tgt) if any(a == b for (a, b) in m)}
    owned = {c for r in tangent for c, v in rows.get(r, {}).items() if len(rows[r]) == 1 and v in (1, -1)}
    dropped = {c for c, m in enumerate(src) if adjacent(m)}
    assert len(dropped) == [1, 2, 10, 69, 616][n - 1]
    assert owned == dropped
    assert all(c in dropped for r in tangent for c in rows.get(r, {}))


@pytest.mark.parametrize("n", range(1, 7))
def test_kept_sources_are_the_one_term_columns(n):
    # a test-side cross-check only: the Sinha side never reads the chord
    # side, which ranks rotation orbits; the kept sources are the columns of
    # the oracle's linear one-term quotient
    from spectral_knots.chords import enumerate_diagrams, one_term_relations

    kept = [m for m in normalized_basis(2 * n, n) if not adjacent(m)]
    assert sinha._kept_matchings(2 * n) == kept
    killed = set(one_term_relations(n))
    assert kept == [d for i, d in enumerate(enumerate_diagrams(n)) if i not in killed]
    # d1's orientation: column j, the linear oracle's column j, is the face sum
    # of kept[j], and the rows are the face terms in sorted order
    sums = [face_sum(2 * n, m) for m in kept]
    row = {t: r for r, t in enumerate(sorted({t for s in sums for t in s}))}
    for field in (F2, Q):
        m = sinha._kept_face_matrix(2 * n, field)
        assert m.cols == linear_relation_matrix(n, field).cols == len(kept)
        entries = {(row[t], j): c for j, s in enumerate(sums) for t, c in s.items()}
        assert m == from_entries(len(row), len(kept), field, entries)
        if (n, field) != (6, Q):  # ranked in tests/test_frontier.py: it takes seconds
            assert e2_diagonal(n, field) == m.cols - m.rank()


def crossings(mono):
    """The number of crossing chord pairs of a perfect matching."""
    return sum(a < c < b < d for (a, b) in mono for (c, d) in mono)


def normalized_rows(m):
    """The distinct rows of m, each as sorted (column, entry) pairs scaled so
    that its first entry is 1."""
    rows = {}
    for (r, c), v in m.entries.items():
        rows.setdefault(r, {})[c] = v
    out = set()
    for row in rows.values():
        lead = row[min(row)]
        out.add(tuple(sorted(m.field.coerce({c: Fraction(v, lead) for c, v in row.items()}).items())))
    return out


@pytest.mark.parametrize("field", [Q, Field(3)])
@pytest.mark.parametrize("n", range(1, 6))
def test_twisted_sinha_rows_are_chord_rows(n, field):
    """Twist column j of the Sinha diagonal matrix by (-1)^cr of the j-th
    kept matching, cr its number of crossing chord pairs: then every row is,
    up to a scalar, a row of the linear chord relation matrix of the oracle,
    whose columns are the same matchings in the same order.  The sign is an
    empirical finding, not yet derived from the paper's map; without it
    only 1, 2 and 8 of the 5, 67 and 844 distinct rows at n = 3, 4, 5
    match."""
    sign = [(-1) ** crossings(m) for m in sinha._kept_matchings(2 * n)]
    m = sinha._kept_face_matrix(2 * n, field)
    twisted = SparseMatrix(m.rows, m.cols, field, [{r: v * sign[c] for r, v in col.items()} for c, col in enumerate(m.columns)])
    sinha_rows = normalized_rows(twisted)
    assert sinha_rows <= normalized_rows(linear_relation_matrix(n, field))
    assert len(sinha_rows) == [0, 0, 5, 67, 844][n - 1]


def test_e2_diagonal_never_enumerates_the_target_column(monkeypatch):
    real = sinha.normalized_basis

    def guarded(l, k):
        if (l, k) in ((7, 4), (8, 4)):
            raise AssertionError(f"enumerated the column ({l}, {k})")
        return real(l, k)

    monkeypatch.setattr(sinha, "normalized_basis", guarded)
    monkeypatch.setattr(sinha, "d1_matrix", None)
    assert e2_diagonal(4, F2) == 3


def test_e2_diagonal_refuses_a_huge_degree_at_once():
    start = time.perf_counter()
    with pytest.raises(CapacityError, match=re.escape(f"diagonal column (l={2 * 10**9}, k={10**9}) exceeds")):
        e2_diagonal(10**9, F2)
    assert time.perf_counter() - start < 1


def test_e2_diagonal_refuses_degree_eight_before_any_basis(monkeypatch):
    # 13!! = 135135 matchings are admitted, 15!! = 2027025 are not
    entered = []

    def record(*args):
        entered.append(args)
        raise LookupError("entered")

    monkeypatch.setattr(sinha, "_kept_face_matrix", record)
    monkeypatch.setattr(sinha, "normalized_basis", record)
    with pytest.raises(CapacityError, match=re.escape("diagonal column (l=16, k=8) exceeds")):
        e2_diagonal(8, F2)
    assert entered == []
    with pytest.raises(LookupError):
        e2_diagonal(7, F2)
    assert entered == [(15, 7)]


def test_e2_diagonal_raises_on_a_tangent_term_of_a_kept_source(monkeypatch):
    # g(1,3) g(2,4) is the one kept source at n = 2; a source with a factor
    # (i, i+1) has a tangent class in face i, and the private rows of the
    # dropped sources rest on no kept source having one
    for source in (((1, 2), (3, 4)), ((1, 4), (2, 3))):
        monkeypatch.setattr(sinha, "_kept_matchings", lambda l: [((1, 3), (2, 4)), source])
        with pytest.raises(ConsistencyError, match=re.escape(repr(source))):
            e2_diagonal(2, Q)


def kept_matchings(l):
    """Perfect matchings of strands 1..l with no factor (i, i+1), as sorted
    factor tuples, paired off from a random permutation."""
    def pair(perm):
        return tuple(sorted(tuple(sorted(perm[j:j + 2])) for j in range(0, l, 2)))

    return st.permutations(range(1, l + 1)).map(pair).filter(lambda m: not adjacent(m))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([14, 16]).flatmap(kept_matchings))
def test_face_walk_is_the_generic_face_sum_past_n_six(src):
    # the byte-word walk against the literal faces and the reference rewrite, over Z
    l = 2 * len(src)
    (col,) = sinha._face_columns(l, [src])
    assert {tuple(zip(w[::2], w[1::2])): c for w, c in col.items()} == face_sum(l, src)


@pytest.mark.parametrize("field", [Q, F2])
def test_e2_diagonal_leaves_the_rewrite_memo_alone(field):
    before = _reduce_cached.cache_info()
    assert [e2_diagonal(n, field) for n in range(1, 6)] == [0, 1, 1, 3, 4]
    assert _reduce_cached.cache_info() == before


def test_e2_diagonal_rejects_a_nonempty_column_above_the_diagonal(monkeypatch):
    real = sinha.normalized_basis
    monkeypatch.setattr(sinha, "normalized_basis", lambda l, k: (((1, 5),),) if (l, k) == (5, 2) else real(l, k))
    with pytest.raises(ConsistencyError, match="above the diagonal"):
        e2_diagonal(2, F2)


def test_e2_truncation_boundary_kernel():
    # with truncation 1 the single column reports a kernel dimension
    page = e2_page(1, 1, Q)
    assert page[(-1, 2)] == 1
    # a deeper truncation kills it with the incoming differential
    assert e2_page(2, 1, Q)[(-1, 2)] == 0


def test_e2_monotone_below_truncation():
    small = e2_page(3, 2, Q)
    large = e2_page(4, 2, Q)
    for (col, row), dim in small.items():
        if -col < 3:  # below the truncation of the smaller table
            assert large[(col, row)] == dim, (col, row)


def test_e2_vanishing_off_support():
    page = e2_page(5, 2, Q)
    for (col, row), dim in page.items():
        l, k = -col, row // 2
        if l > 2 * k:
            assert dim == 0, (col, row)


def test_e2_deterministic():
    assert e2_page(3, 2, Q) == e2_page(3, 2, Q)


def test_e2_validates_arguments():
    with pytest.raises(ValueError):
        e2_page(0, 1, Q)
    with pytest.raises(ValueError):
        e2_page(1, -1, Q)


def test_column_complex_structure():
    from spectral_knots.sinha import column_homology

    assert [len(normalized_basis(l, 2)) for l in range(0, 5)] == [0, 0, 3, 5, 3]
    h = column_homology(4, 2, Q)
    assert len(h) == 5
    assert h[4] == 1  # the diagonal entry at complexity 2
    assert h[1] == 0


# ---------------------------------------------------------------------------
# degree-shifted view


def test_vassiliev_shift_examples():
    view = vassiliev_e1_view({(-2, 2): 7, (-4, 4): 5, (-5, 6): 3})
    assert view == {(-1, 1): 7, (-2, 2): 5, (-3, 4): 3}


def test_vassiliev_off_lattice_zero_is_dropped():
    view = vassiliev_e1_view({(-2, 3): 0, (-2, 2): 1})
    assert view == {(-1, 1): 1}


def test_vassiliev_off_lattice_nonzero_raises():
    for bad in [{(-2, 3): 4}, {(-2, -2): 1}, {(1, 2): 2}]:
        with pytest.raises(ConsistencyError):
            vassiliev_e1_view(bad)


def test_normalized_dim_formula_vanishes_above_two_k():
    for k in range(0, 8):
        for l in range(2 * k + 1, 2 * k + 30):
            assert normalized_dim_formula(l, k) == 0, (l, k)


def test_normalized_dim_formula_vanishes_above_two_l_minus_one():
    # l - 1 forest edges and l diagonals at most
    for l in range(1, 10):
        for k in range(2 * l, 2 * l + 30):
            assert normalized_dim_formula(l, k) == 0, (l, k)


@pytest.mark.parametrize("n", range(1, 9))
def test_diagonal_column_is_the_perfect_matchings(n):
    # n edges covering 2n strands form a perfect matching: (2n-1)!! of them
    assert normalized_dim_formula(2 * n, n) == math.prod(range(1, 2 * n, 2))


@pytest.mark.parametrize("field", [Q, F2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_e2_rows_above_two_n_minus_one_are_zero(n, field):
    top = e2_page(n, 2 * n - 1, field)
    beyond = e2_page(n, 2 * n + 3, field)
    zeros = {(-l, 2 * k): 0 for l in range(1, n + 1) for k in range(2 * n, 2 * n + 4)}
    assert beyond == {**top, **zeros}


def test_e2_capacity_loop_skips_empty_columns(monkeypatch):
    real = sinha.normalized_dim_formula

    def guarded(l, k):
        if l > 2 * k:
            raise AssertionError(f"estimated the empty column (l={l}, k={k})")
        return real(l, k)

    monkeypatch.setattr(sinha, "normalized_dim_formula", guarded)
    page = e2_page(30, 1, F2)
    # the table computed when every column was estimated: 60 zero entries
    assert page == {(-l, 2 * k): 0 for l in range(1, 31) for k in (0, 1)}


def test_e2_table_over_capacity_fails_before_any_column(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a column before the table bound")

    monkeypatch.setattr(sinha, "column_homology", refuse)
    with pytest.raises(CapacityError, match="table of 2 columns"):
        e2_page(2, CAPACITY_LIMIT // 2, F2)


def test_e2_builds_no_column_above_two_k_plus_one(monkeypatch):
    want = e2_page(40, 2, F2)
    real = sinha.d1_matrix

    def guarded(l, k, f):
        if l > 2 * k + 1:
            raise AssertionError(f"built the empty column (l={l}, k={k})")
        return real(l, k, f)

    monkeypatch.setattr(sinha, "d1_matrix", guarded)
    assert e2_page(40, 2, F2) == want


def test_column_homology_rejects_a_nonempty_column_above_two_k(monkeypatch):
    real = sinha.normalized_basis
    fake = (((1, 3),),)  # touches both boundary strands
    monkeypatch.setattr(sinha, "normalized_basis", lambda l, k: fake if (l, k) == (3, 1) else real(l, k))
    with pytest.raises(ConsistencyError, match="should be empty"):
        column_homology(3, 1, F2)


def test_real_page_is_on_lattice():
    page = e2_page(4, 2, F2)
    view = vassiliev_e1_view(page)  # must not raise
    assert all(row >= 0 for (_, row) in page)
    assert sum(view.values()) == sum(page.values())


# ---------------------------------------------------------------------------
# brute-force comparison of the expanded complex


def nonzero(dims):
    """A {total degree: dim} dict without its zero dimensions."""
    return {t: d for t, d in dims.items() if d}


@pytest.mark.parametrize("field", [Q, F2])
def test_kan_unit_check_n1(field):
    lhs, rhs = kan_unit_check(1, 2, field)
    assert nonzero(lhs) == nonzero(rhs)
    assert rhs.get(0) == 1  # one class in total degree 0
    assert rhs.get(1) == 1  # the tangent class at the boundary column


@pytest.mark.parametrize("field", [Q, F2])
def test_kan_unit_check_n2(field):
    lhs, rhs = kan_unit_check(2, 2, field)
    assert nonzero(lhs) == nonzero(rhs)


def test_kan_corrupted_sign_detected(monkeypatch):
    # cancel the alternating sign of the odd faces: d * d no longer vanishes
    face = sinha._face_monomial

    def unsigned(i, l, factors):
        img = face(i, l, factors)
        return tuple((m, -c) for m, c in img) if i % 2 else img

    monkeypatch.setattr(sinha, "_face_monomial", unsigned)
    with pytest.raises(ComplexError):
        kan_unit_check(2, 2, Q)


@pytest.mark.parametrize("field", [Q, F2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_kan_degrees_above_two_n_minus_one_are_empty(n, field):
    top = kan_unit_check(n, 2 * n - 1, field)
    beyond = kan_unit_check(n, 2 * n + 3, field)
    assert beyond == top


def test_kan_capacity():
    with pytest.raises(CapacityError):
        kan_unit_check(4, 1, Q)
