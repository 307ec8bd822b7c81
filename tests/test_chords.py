import re

import pytest

from oracles import (
    cyclically_isolated,
    dense_rows,
    from_entries,
    isolated,
    least_rotation,
    linear_four_term_relations,
    linear_relation_matrix,
    literal_relations,
    literal_slides,
    naive_rank,
    orbit_columns,
    orbit_slide_rows,
    partner_word,
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
F3 = Field(3)
F5 = Field(5)


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
        # over the linear quotient every slide is its own column
        cols = linear_relation_matrix(n, Q).cols
        for terms in linear_four_term_relations(n):
            assert 1 <= len(terms) <= 4
            assert set(terms) <= set(range(cols))
            assert set(terms.values()) <= {-1, 1}
        # over the orbits two slides of one sign can share a column
        cols = relation_matrix(n, Q).cols
        coefficients = set()
        for rel in four_term_relations(n):
            assert type(rel) is RelationVector
            assert 1 <= len(rel.terms) <= 4
            assert set(rel.terms) <= set(range(cols))
            coefficients |= set(rel.terms.values())
        assert coefficients == (set() if n == 2 else {-2, -1, 1, 2})


@pytest.mark.parametrize("n", [2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_four_term_matches_literal_slides(n):
    # the linear oracle walk: the literal vectors over the quotient,
    # renumbered by column, empty ones dropped: same rows, same order, same
    # term order
    got = [list(terms.items()) for terms in linear_four_term_relations(n)]
    assert got == quotient_slide_rows(n)
    # every (anchor, skeleton, chord) gives a literal vector but those with
    # the anchor alone between the chord's ends, (2n-3) (2n-5)!! of them
    chords_placed = (2 * n - 1) * double_factorial(n - 1) * (n - 1)
    assert len(slide_four_term_relations(n)) + (2 * n - 3) * double_factorial(n - 2) == chords_placed


@pytest.mark.parametrize("n", [2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_circular_rows_are_the_orbit_images_of_the_anchor_one_slides(n):
    # entry for entry, in order: each literal slide with the anchor at
    # point 1 mapped to its orbit by least rotation, with the columns
    # numbered by each orbit's first diagram in enumeration order
    assert [v.terms for v in four_term_relations(n)] == orbit_slide_rows(n)
    assert relation_matrix(n, Q).cols == len(orbit_columns(n))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_skeleton_with_an_isolated_chord_lies_on_the_one_term_relations(n):
    # why the linear walk skips, and four_term_relations never takes, a
    # skeleton with a chord (a, a+1)
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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_anchor_one_skeletons_kill_only_the_moving_chord_beside_its_anchor(n):
    # with the anchor at point 1, a skeleton with a chord (a, a+1) has every
    # term cyclically isolated; in every other skeleton's vectors a term is
    # killed exactly when the moving chord is (1, 2) or (1, 2n)
    beside = {(1, 2), (1, 2 * n)}
    walked = set()
    for skeleton, terms in literal_slides(n):
        if any(1 in chord for chord in skeleton):
            continue
        if isolated(skeleton):
            assert all(cyclically_isolated(d) for d in terms), (skeleton, terms)
        else:
            walked.add(skeleton)
            for d in terms:
                assert cyclically_isolated(d) == (not beside.isdisjoint(d)), d
    # the degree n - 1 diagrams not in one_term_relations, moved up one point
    skeletons = enumerate_diagrams(n - 1)
    killed = set(one_term_relations(n - 1))
    assert walked == {tuple((a + 1, b + 1) for (a, b) in d) for i, d in enumerate(skeletons) if i not in killed}
    assert len(walked) == {2: 0, 3: 1, 4: 5, 5: 36}[n]


def _raised_word(message: str) -> bytes:
    """The partner word a ``ConsistencyError`` from the slide walk names."""
    return bytes(int(x) for x in re.search(r"\[([\d, ]*)\]", message).group(1).split(","))


def test_four_term_slide_outside_the_basis_raises(monkeypatch):
    index, cols = chords._orbit_index(3)
    assert cols == 2
    for dropped in range(cols):
        # a whole orbit left out of the index: the first of its words the
        # walk meets is not a diagram, through either entry point
        words = {w for w, j in index.items() if j == dropped}
        monkeypatch.setattr(chords, "_orbit_index", lambda n: ({w: j for w, j in index.items() if j != dropped}, cols))
        for build in (lambda: four_term_relations(3), lambda: relation_matrix(3, Q)):
            with pytest.raises(ConsistencyError, match="is not a diagram with 3 chords") as excinfo:
                build()
            assert _raised_word(str(excinfo.value)) in words
    # one rotation left out: each slide is looked up as it is, so a word the
    # walk meets raises on its own, and a word it does not meet goes unnoticed
    met = set()
    for word in index:
        try:
            four_term_relations(3, {w: j for w, j in index.items() if w != word})
        except ConsistencyError as err:
            assert _raised_word(str(err)) == word
            met.add(word)
    assert 0 < len(met) < len(index)


def test_four_term_below_two_chords_is_empty():
    # no skeleton has a chord to slide along, so the walk yields nothing
    assert four_term_relations(0) == four_term_relations(1) == []


def test_four_term_three_chords_ambient_space():
    assert len(enumerate_diagrams(3)) == 15
    # linear, keyed by column: the 5 diagrams with no isolated chord, all reached
    assert set().union(*linear_four_term_relations(3)) == set(range(5))
    # circular: the 2 rotation orbits of the matchings of Z/6 with no
    # chord (a, a+1 mod 6), the three diameters and one diameter crossed by
    # two chords (a, a+2), both reached
    assert set(orbit_columns(3)) == {((1, 4), (2, 5), (3, 6)), ((1, 3), (2, 5), (4, 6))}
    assert set().union(*(rel.terms for rel in four_term_relations(3))) == set(range(2))


@pytest.mark.parametrize("n", [2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_four_term_deduplicated(n):
    # four_term_relations keeps no dedupe set: no literal vector repeats,
    # and the few rows that repeat once restricted to the quotient could
    # not change a rank
    literal = [tuple(sorted(terms.items())) for _, terms in literal_slides(n) if terms]
    assert len(literal) == len(set(literal))
    keys = [tuple(sorted(terms.items())) for terms in linear_four_term_relations(n)]
    assert (len(keys), len(set(keys))) == {2: (0, 0), 3: (11, 9), 4: (117, 115), 5: (1419, 1407), 6: (19555, 19473)}[n]
    keys = [tuple(sorted(r.terms.items())) for r in four_term_relations(n)]
    assert (len(keys), len(set(keys))) == {2: (0, 0), 3: (2, 2), 4: (12, 10), 5: (136, 134), 6: (1607, 1592)}[n]


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


@pytest.mark.parametrize("field", [Q, F2, F3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_relation_matrix_columns_are_the_one_term_quotient(n, field):
    # the linear oracle against the dense rank of every relation over all diagrams
    m = linear_relation_matrix(n, field)
    assert m.cols == double_factorial(n) - len(one_term_relations(n))
    full = unquotiented_relation_matrix(n, field)
    assert m.cols - m.rank() == double_factorial(n) - naive_rank(dense_rows(full), field.p)
    # the circular quotient has the same dimension
    assert dim_A(n, field) == m.cols - m.rank()


# (orbit columns, rows) of the circular relation matrix for n = 1..7
ORBITS = {1: (0, 0), 2: (1, 0), 3: (2, 2), 4: (7, 12), 5: (36, 136), 6: (300, 1607), 7: (3218, 21601)}


@pytest.mark.parametrize("n", sorted(ORBITS))
def test_relation_matrix_columns_are_the_rotation_orbits(n):
    m = relation_matrix(n, F2)
    assert (m.cols, m.rows) == ORBITS[n]


def test_orbit_index_holds_every_rotation_of_every_column():
    for n in range(1, 6):
        index, cols = chords._orbit_index(n)
        column = orbit_columns(n)
        assert cols == len(column)
        # the words are those of the diagrams that are not cyclically
        # isolated, each keyed by its orbit's column
        want = {partner_word(d): column[least_rotation(d)] for d in enumerate_diagrams(n) if not cyclically_isolated(d)}
        assert index == want


def test_relation_matrix_drops_rows_left_empty():
    # linear: 16 of the 27 literal four-term vectors lie on diagrams the
    # one-term relations kill, so restricted to the quotient's 5 columns
    # they are empty
    assert len(slide_four_term_relations(3)) == 27
    assert len(linear_four_term_relations(3)) == 11
    m = linear_relation_matrix(3, Q)
    assert (m.rows, m.cols) == (11, 5)
    assert {r for (r, _) in m.entries} == set(range(11))
    # circular: of the 6 literal vectors with the anchor at point 1, the 4
    # from the skeletons with a chord (a, a+1) are empty over the 2 orbits
    anchored = [terms for skeleton, terms in literal_slides(3) if not any(1 in chord for chord in skeleton)]
    assert len(anchored) == 6
    assert len(four_term_relations(3)) == 2
    m = relation_matrix(3, Q)
    assert (m.rows, m.cols) == (2, 2)
    assert {r for (r, _) in m.entries} == set(range(2))


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
    rows = iter(linear_four_term_relations(3))
    killed = {enumerate_diagrams(3)[i] for i in one_term_relations(3)}
    for terms in slide_four_term_relations(3):
        assert sum(terms.values()) == 0
        kept = {d: c for d, c in terms.items() if d not in killed}
        if kept:
            assert sum(next(rows).values()) == sum(kept.values())
    assert next(rows, None) is None
    # the same over the orbits, with the anchor at point 1 and every
    # cyclically isolated term killed; a vector whose kept terms cancel
    # within their orbits leaves no row
    for n in (3, 4, 5):
        column = orbit_columns(n)
        rows = iter(four_term_relations(n))
        for skeleton, terms in literal_slides(n):
            if any(1 in chord for chord in skeleton):
                continue
            assert sum(terms.values()) == 0
            kept = {d: c for d, c in terms.items() if not cyclically_isolated(d)}
            merged = {}
            for d, c in kept.items():
                j = column[least_rotation(d)]
                merged[j] = merged.get(j, 0) + c
            if any(merged.values()):
                assert sum(next(rows).terms.values()) == sum(kept.values())
        assert next(rows, None) is None


def test_dedup_invariance():
    base = relation_matrix(3, Q)
    stacked = {**base.entries, **{(r + base.rows, c): v for (r, c), v in base.entries.items()}}
    doubled = from_entries(2 * base.rows, base.cols, Q, stacked)
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


@pytest.mark.parametrize("field", [Q, F2, F3, F5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_circular_dim_A_is_the_linear_oracle(n, field):
    # closing the line into a circle is an isomorphism of the quotients
    # (Bar-Natan 1995); pinned over each field, not assumed
    m = linear_relation_matrix(n, field)
    assert dim_A(n, field) == m.cols - m.rank() == (0, 1, 1, 3, 4, 9)[n - 1]


@pytest.mark.parametrize("field", [Q, F2, F3])
def test_dim_A_six_is_bar_natans_nine(field):
    # D. Bar-Natan, On the Vassiliev knot invariants, Topology 34 (1995)
    assert dim_A(6, field) == 9


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
    return len(kept) - from_entries(len(vectors), len(kept), Q, entries).rank()


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
