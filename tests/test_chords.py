import pytest

from oracles import naive_rank, slide_four_term_relations
from spectral_knots import CapacityError, chords
from spectral_knots.chords import (
    FOUR_TERM,
    ONE_TERM,
    ChordDiagram,
    dim_A,
    enumerate_diagrams,
    four_term_relations,
    one_term_relations,
    relation_matrix,
)
from spectral_knots.linalg import ConsistencyError, Field

Q = Field.rationals()
F2 = Field.prime(2)


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
    got = {d.pairs for d in enumerate_diagrams(2)}
    assert got == {((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))}


def test_enumerate_deterministic():
    assert [d.pairs for d in enumerate_diagrams(3)] == [
        d.pairs for d in enumerate_diagrams(3)
    ]


def test_diagram_validation():
    with pytest.raises(ValueError):
        ChordDiagram([(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        ChordDiagram([(1, 3)])


def test_isolated_chord_detection():
    assert ChordDiagram([(1, 2), (3, 4)]).has_isolated_chord()
    assert ChordDiagram([(1, 4), (2, 3)]).has_isolated_chord()
    assert not ChordDiagram([(1, 3), (2, 4)]).has_isolated_chord()


def test_one_term_single_chord():
    rels = one_term_relations(1)
    assert len(rels) == 1
    assert rels[0].kind == ONE_TERM
    assert list(rels[0].terms.values()) == [1]


def test_one_term_two_chords():
    rels = one_term_relations(2)
    killed = {d.pairs for rel in rels for d in rel.terms}
    assert killed == {((1, 2), (3, 4)), ((1, 4), (2, 3))}


def test_four_term_vector_shape():
    for n in (2, 3, 4):
        for rel in four_term_relations(n):
            assert rel.kind == FOUR_TERM
            assert 1 <= len(rel.terms) <= 4
            assert sum(rel.terms.values()) == 0
            assert set(rel.terms.values()) <= {-1, 1}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_four_term_matches_literal_slides(n):
    # same vectors, same order, same term order as one ChordDiagram per slide
    got = [(v.kind, list(v.terms.items())) for v in four_term_relations(n)]
    want = [(v.kind, list(v.terms.items())) for v in slide_four_term_relations(n)]
    assert got == want


def test_four_term_slide_outside_the_basis_raises(monkeypatch):
    basis = chords.enumerate_diagrams(3)
    monkeypatch.setattr(chords, "enumerate_diagrams", lambda n: basis[1:])
    with pytest.raises(ConsistencyError):
        four_term_relations(3)


def test_four_term_needs_two_chords():
    with pytest.raises(ValueError):
        four_term_relations(1)


def test_four_term_three_chords_ambient_space():
    rels = four_term_relations(3)
    diagrams = set(enumerate_diagrams(3))
    assert len(diagrams) == 15
    for rel in rels:
        assert set(rel.terms) <= diagrams


def test_four_term_deduplicated():
    rels = four_term_relations(3)
    keys = [r.key() for r in rels]
    assert len(keys) == len(set(keys))


def test_dim_A_one():
    assert dim_A(1, Q) == 0


def test_dim_A_two():
    assert dim_A(2, Q) == 1
    # the four-term span adds nothing beyond the one-term span here
    only_1t = relation_matrix(2, Q, relations=one_term_relations(2))
    assert only_1t.rank() == relation_matrix(2, Q).rank() == 2


def test_dim_A_three_exhaustive_rank():
    # freeze the value produced by exhaustive rank over all 15 diagrams,
    # cross-checked by the dense textbook elimination
    m = relation_matrix(3, Q)
    dense = [[0] * m.cols for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        dense[r][c] = int(v)
    assert m.rank() == naive_rank(dense)
    assert dim_A(3, Q) == 15 - m.rank() == 1


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
    # any function constant on diagrams pairs to zero with each vector
    for rel in four_term_relations(3):
        assert sum(rel.terms.values()) == 0


def test_dedup_invariance():
    base = relation_matrix(3, Q)
    rels = one_term_relations(3) + four_term_relations(3) * 2
    doubled = relation_matrix(3, Q, relations=rels)
    assert base.cols - base.rank() == doubled.cols - doubled.rank()


def test_reflection_invariance():
    for n in (2, 3):
        base = relation_matrix(n, Q)
        rels = one_term_relations(n) + four_term_relations(n)
        reflected = [
            type(rel)(rel.kind, {d.reflect(): c for d, c in rel.terms.items()})
            for rel in rels
        ]
        mat = relation_matrix(n, Q, relations=reflected)
        assert base.cols - base.rank() == mat.cols - mat.rank()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_field_dimension_at_least_rational(p):
    fp = Field.prime(p)
    for n in (1, 2, 3, 4):
        assert dim_A(n, fp) >= dim_A(n, Q)
