import pytest

from oracles import (
    dense_rows,
    isolated,
    literal_relations,
    literal_slides,
    naive_rank,
    quotient_slide_rows,
    slide_four_term_relations,
    unquotiented_relation_matrix,
)
from spectral_knots import CapacityError, chords
from spectral_knots.chords import (
    RelationVector,
    dim_A,
    enumerate_diagrams,
    four_term_relations,
    one_term_relations,
    relation_matrix,
)
from spectral_knots.linalg import ConsistencyError, Field, SparseMatrix

Q = Field()
F2 = Field(2)


def double_factorial(n):
    out = 1
    for i in range(2 * n - 1, 0, -2):
        out *= i
    return out


def test_enumerate_counts():
    assert len(enumerate_diagrams(1)) == 1
    assert len(enumerate_diagrams(2)) == 3
    assert len(enumerate_diagrams(4)) == 105
    for n in range(0, 5):
        assert len(enumerate_diagrams(n)) == double_factorial(n)


def test_enumerate_two_chords_contents():
    assert enumerate_diagrams(2) == (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3)))


def test_enumerate_deterministic():
    first = enumerate_diagrams(3)
    enumerate_diagrams(2)  # evict the memoized degree
    assert enumerate_diagrams(3) == first


def test_enumerated_diagrams_are_sorted_perfect_matchings():
    for n in range(0, 6):
        diagrams = enumerate_diagrams(n)
        assert len(set(diagrams)) == len(diagrams) == double_factorial(n)
        for d in diagrams:
            assert all(a < b for (a, b) in d)
            assert list(d) == sorted(d)
            assert sorted(x for chord in d for x in chord) == list(range(1, 2 * n + 1))


def test_one_term_single_chord():
    assert one_term_relations(1) == [0]


def test_one_term_two_chords():
    # indices of the killed diagrams, in enumeration order
    assert one_term_relations(2) == [0, 2]
    killed = [enumerate_diagrams(2)[i] for i in one_term_relations(2)]
    assert killed == [((1, 2), (3, 4)), ((1, 4), (2, 3))]


def test_one_term_is_the_isolated_chord_test():
    for n in range(0, 7):
        assert one_term_relations(n) == [i for i, d in enumerate(enumerate_diagrams(n)) if isolated(d)]


def test_four_term_vector_shape():
    for n in (2, 3, 4, 5):
        cols = relation_matrix(n, Q).cols
        for rel in four_term_relations(n):
            assert type(rel) is RelationVector
            assert 1 <= len(rel.terms) <= 4
            assert set(rel.terms) <= set(range(cols))
            assert set(rel.terms.values()) <= {-1, 1}


@pytest.mark.parametrize("n", [2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_four_term_matches_literal_slides(n):
    # the literal vectors over the quotient, renumbered by column, empty
    # ones dropped: same rows, same order, same term order
    got = [list(v.terms.items()) for v in four_term_relations(n)]
    assert got == quotient_slide_rows(n)
    # every (anchor, skeleton, chord) gives a literal vector but those with
    # the anchor alone between the chord's ends, (2n-3) (2n-5)!! of them
    chords_placed = (2 * n - 1) * double_factorial(n - 1) * (n - 1)
    assert len(slide_four_term_relations(n)) + (2 * n - 3) * double_factorial(n - 2) == chords_placed


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_skeleton_with_an_isolated_chord_lies_on_the_one_term_relations(n):
    # why four_term_relations walks no skeleton with a chord (a, a+1)
    diagrams = enumerate_diagrams(n)
    killed = {diagrams[i] for i in one_term_relations(n)}
    pruned = 0
    for skeleton, terms in literal_slides(n):
        if isolated(skeleton):
            pruned += 1
            assert set(terms) <= killed, (skeleton, terms)
    # n - 1 vectors from each skeleton that is not walked
    walked = {2: 1, 3: 6, 4: 41, 5: 365}[n]
    assert pruned == (n - 1) * ((2 * n - 1) * double_factorial(n - 1) - walked)


def test_four_term_slide_outside_the_basis_raises(monkeypatch):
    basis = chords.enumerate_diagrams(3)
    for dropped, chords_isolated in (
        (4, 0),  # ((1, 3), (2, 5), (4, 6)), a column of the quotient
        (1, 1),  # ((1, 2), (3, 5), (4, 6)), killed, reached at an anchor slot
    ):
        assert sum(b == a + 1 for (a, b) in basis[dropped]) == chords_isolated
        monkeypatch.setattr(chords, "enumerate_diagrams", lambda n: basis[:dropped] + basis[dropped + 1:])
        with pytest.raises(ConsistencyError, match="is not a diagram with 3 chords"):
            four_term_relations(3)


def test_four_term_below_two_chords_is_empty():
    # no skeleton has a chord to slide along, so the walk yields nothing
    assert four_term_relations(0) == four_term_relations(1) == []


def test_four_term_three_chords_ambient_space():
    rels = four_term_relations(3)
    assert len(enumerate_diagrams(3)) == 15
    # keyed by column: the 5 diagrams with no isolated chord, all reached
    assert set().union(*(rel.terms for rel in rels)) == set(range(5))


@pytest.mark.parametrize("n", [2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_four_term_deduplicated(n):
    # four_term_relations keeps no dedupe set: no literal vector repeats,
    # and the few rows that repeat once restricted to the quotient could
    # not change a rank
    literal = [tuple(sorted(terms.items())) for _, terms in literal_slides(n) if terms]
    assert len(literal) == len(set(literal))
    rels = four_term_relations(n)
    keys = [tuple(sorted(r.terms.items())) for r in rels]
    assert (len(keys), len(set(keys))) == {2: (0, 0), 3: (11, 9), 4: (117, 115), 5: (1419, 1407), 6: (19555, 19473)}[n]


def test_relation_vector_keeps_its_dict():
    terms = {0: 1, 2: -1}
    assert RelationVector(terms).terms is terms


def test_dim_A_one():
    assert dim_A(1, Q) == 0


def test_dim_A_two():
    assert dim_A(2, Q) == 1
    # one of the three diagrams survives the one-term quotient, and the
    # four-term rows add nothing on its single column
    m = relation_matrix(2, Q)
    assert m.cols == 1
    assert m.rank() == 0


def test_dim_A_three_exhaustive_rank():
    # freeze the value produced by exhaustive rank over all 15 diagrams,
    # cross-checked by the dense textbook elimination
    full = unquotiented_relation_matrix(3, Q)
    assert full.cols == 15
    rank = naive_rank(dense_rows(full))
    assert full.rank() == rank
    m = relation_matrix(3, Q)
    assert 15 - rank == m.cols - m.rank() == 1
    assert dim_A(3, Q) == 1


@pytest.mark.parametrize("field", [Q, F2, Field(3)])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_relation_matrix_columns_are_the_one_term_quotient(n, field):
    m = relation_matrix(n, field)
    assert m.cols == double_factorial(n) - len(one_term_relations(n))
    full = unquotiented_relation_matrix(n, field)
    assert m.cols - m.rank() == double_factorial(n) - naive_rank(dense_rows(full), field.p)


def test_relation_matrix_drops_rows_left_empty():
    # 16 of the 27 literal four-term vectors lie on diagrams the one-term
    # relations kill, so restricted to the quotient's 5 columns they are empty
    assert len(slide_four_term_relations(3)) == 27
    assert len(four_term_relations(3)) == 11
    m = relation_matrix(3, Q)
    assert (m.rows, m.cols) == (11, 5)
    assert {r for (r, _) in m.entries} == set(range(11))


def test_dim_A_checks_capacity_before_enumerating(monkeypatch):
    def refuse(n):
        raise AssertionError(f"enumerated {double_factorial(n)} diagrams")

    monkeypatch.setattr(chords, "enumerate_diagrams", refuse)
    with pytest.raises(CapacityError, match="degree 8 has 2027025 chord diagrams"):
        dim_A(8, F2)


def test_dim_A_rejects_nonpositive():
    with pytest.raises(ValueError):
        dim_A(0, Q)


def test_four_term_kills_constants():
    # any function constant on diagrams pairs to zero with each vector, so a
    # row sums to minus the terms the one-term relations killed
    rows = iter(four_term_relations(3))
    killed = {enumerate_diagrams(3)[i] for i in one_term_relations(3)}
    for terms in slide_four_term_relations(3):
        assert sum(terms.values()) == 0
        kept = {d: c for d, c in terms.items() if d not in killed}
        if kept:
            assert sum(next(rows).terms.values()) == sum(kept.values())
    assert next(rows, None) is None


def test_dedup_invariance():
    base = relation_matrix(3, Q)
    stacked = {**base.entries, **{(r + base.rows, c): v for (r, c), v in base.entries.items()}}
    doubled = SparseMatrix(2 * base.rows, base.cols, Q, stacked)
    assert base.cols - base.rank() == doubled.cols - doubled.rank()


def test_reflection_invariance():
    for n in (2, 3):
        base = relation_matrix(n, Q)
        diagrams = enumerate_diagrams(n)
        index = {d: i for i, d in enumerate(diagrams)}
        m = 2 * n + 1
        mirror = [index[tuple(sorted((m - b, m - a) for (a, b) in d))] for d in diagrams]
        reflected = [{mirror[i]: c for i, c in terms.items()} for terms in literal_relations(n)]
        mat = unquotiented_relation_matrix(n, Q, reflected)
        assert base.cols - base.rank() == mat.cols - mat.rank()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_field_dimension_at_least_rational(p):
    fp = Field(p)
    for n in (1, 2, 3, 4):
        assert dim_A(n, fp) >= dim_A(n, Q)


# Over Q the diagrams modulo 1T and 4T form a polynomial algebra on their
# primitives (Milnor & Moore, Ann. of Math. 81, 1965), so dim_A(n) is the
# coefficient of t^n in prod_k (1 - t^k)^(-p_k).  p_k is the dimension of
# the indecomposables: the 1T/4T quotient in which every split diagram,
# a product of two smaller ones, is zero too.


def split(diagram):
    """True when a cut between points c and c+1, 1 <= c < 2n, is crossed
    by no chord."""
    return any(all(not a <= c < b for (a, b) in diagram) for c in range(1, 2 * len(diagram)))


def primitive_dim(n):
    """p_n over Q: the diagrams with no isolated chord that are not split,
    less the rank of the literal four-term vectors restricted to them."""
    kept = [d for d in enumerate_diagrams(n) if not isolated(d) and not split(d)]
    column = {d: j for j, d in enumerate(kept)}
    vectors = slide_four_term_relations(n)
    entries = {(r, column[d]): c for r, terms in enumerate(vectors) for d, c in terms.items() if d in column}
    return len(kept) - SparseMatrix(len(vectors), len(kept), Q, entries).rank()


def polynomial_dims(p, top):
    """Coefficients of t^1..t^top in prod_k (1 - t^k)^(-p[k-1])."""
    coef = [1] + [0] * top
    for k, pk in enumerate(p, start=1):
        for _ in range(pk):  # one factor 1 / (1 - t^k) per primitive of degree k
            for i in range(k, top + 1):
                coef[i] += coef[i - k]
    return coef[1:]


def test_milnor_moore_primitives_give_dim_A_over_q():
    p = [primitive_dim(n) for n in range(1, 6)]
    assert p == [0, 1, 1, 2, 3]
    assert polynomial_dims(p, 5) == [dim_A(n, Q) for n in range(1, 6)] == [0, 1, 1, 3, 4]


@pytest.mark.slow
def test_milnor_moore_sixth_primitive_gives_bar_natans_nine():
    p6 = primitive_dim(6)
    assert p6 == 5
    # Bar-Natan's dim_A(6) = 9 over Q, pinned by tests/test_frontier.py
    assert polynomial_dims([0, 1, 1, 2, 3, p6], 6) == [0, 1, 1, 3, 4, 9]
