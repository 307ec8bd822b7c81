import math
import random

import pytest

from oracles import degeneracy_quotient_dim, face_sum_d1, inclusion_exclusion_dim
from spectral_knots.conf_algebra import AlgebraElement, Monomial, basis_monomials
from spectral_knots import sinha
from spectral_knots.linalg import CAPACITY_LIMIT, ComplexError, Field
from spectral_knots.sinha import (
    SINHA_E2,
    VASSILIEV_E1,
    CapacityError,
    ConsistencyError,
    PageTable,
    d1_matrix,
    degeneracy_pullback,
    e2_page,
    column_homology,
    face_pullback,
    kan_unit_check,
    normalized_basis,
    normalized_dim_formula,
    vassiliev_e1_view,
)

Q = Field.rationals()
F2 = Field.prime(2)


def single(factors, l, field=Q):
    return AlgebraElement({Monomial(factors, l): 1}, l, field)


# ---------------------------------------------------------------------------
# face and degeneracy pullbacks


def test_inner_face_merges_to_diagonal():
    # shrinking strands 1, 2 sends the separation class to the tangent class
    assert face_pullback(1, single([(1, 2)], 2)) == single([(1, 1)], 1)


def test_inner_face_relabels():
    assert face_pullback(2, single([(1, 3)], 3)) == single([(1, 2)], 2)
    assert face_pullback(2, single([(2, 3)], 3)) == single([(2, 2)], 2)


def test_outer_face_kills_boundary_strand():
    assert face_pullback(0, single([(1, 2)], 2)).is_zero()
    assert face_pullback(0, single([(1, 1)], 1)).is_zero()
    assert face_pullback(2, single([(1, 2)], 2)).is_zero()
    assert face_pullback(0, single([(2, 3)], 3)) == single([(1, 2)], 2)


def test_face_index_range():
    with pytest.raises(ValueError):
        face_pullback(3, single([(1, 2)], 2))
    with pytest.raises(ValueError):
        face_pullback(-1, single([(1, 2)], 2))


def test_degeneracy_examples():
    assert degeneracy_pullback(2, single([(1, 1)], 1)) == single([(1, 1)], 2)
    assert degeneracy_pullback(1, single([(1, 1)], 1)) == single([(2, 2)], 2)
    assert degeneracy_pullback(3, single([(1, 2)], 2)) == single([(1, 2)], 3)
    with pytest.raises(ValueError):
        degeneracy_pullback(4, single([(1, 2)], 2))


def test_simplicial_face_identity():
    # d_i d_j = d_{j-1} d_i for i < j, exercised on every generator
    rng = random.Random(3)
    for _ in range(40):
        l = rng.randint(2, 5)
        i, j = sorted(rng.sample(range(0, l + 1), 2))
        a, b = sorted((rng.randint(1, l), rng.randint(1, l)))
        x = single([(a, b)], l)
        lhs = face_pullback(i, face_pullback(j, x))
        rhs = face_pullback(j - 1, face_pullback(i, x))
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
            expected = [m.factors for m in basis_monomials(l, k) if m.support() == every_strand]
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


def test_d1_two_one_is_minus_one():
    m = d1_matrix(2, 1, Q)
    assert (m.rows, m.cols) == (1, 1)
    assert m.entries == {(0, 0): -1}


def test_d1_empty_source():
    m = d1_matrix(3, 1, Q)
    assert (m.rows, m.cols) == (1, 0)
    assert m.is_zero()


@pytest.mark.parametrize("field", [Q, F2, Field.prime(3)])
def test_d1_squares_to_zero_small(field):
    for k in range(0, 4):
        for l in range(2, 7):
            a = d1_matrix(l - 1, k, field)
            b = d1_matrix(l, k, field)
            assert a.compose(b).is_zero(), (l, k, field)


@pytest.mark.parametrize("field", [Q, Field.prime(3)])
def test_d1_matches_face_pullback(field):
    for l in range(1, 9):
        for k in range(0, 5):
            assert d1_matrix(l, k, field) == face_sum_d1(l, k, field), (l, k, field)


# ---------------------------------------------------------------------------
# page tables


def test_e2_hand_entries():
    page = e2_page(2, 1, Q)
    assert page.get(-2, 2) == 0
    assert page.get(-1, 2) == 0


def test_e2_diagonal_matches_chord_dimension():
    from spectral_knots.chords import dim_A

    page = e2_page(4, 2, Q)
    assert page.get(-4, 4) == dim_A(2, Q) == 1


def test_e2_diagonal_shortcut_matches_full_page():
    from spectral_knots.sinha import e2_diagonal

    for field in (Q, F2):
        page = e2_page(6, 3, field)
        for i in (1, 2, 3):
            assert e2_diagonal(i, field) == page.get(-2 * i, 2 * i), (i, field)


def test_e2_truncation_boundary_kernel():
    # with truncation 1 the single column reports a kernel dimension
    page = e2_page(1, 1, Q)
    assert page.get(-1, 2) == 1
    # a deeper truncation kills it with the incoming differential
    assert e2_page(2, 1, Q).get(-1, 2) == 0


def test_e2_monotone_below_truncation():
    small = e2_page(3, 2, Q)
    large = e2_page(4, 2, Q)
    for (col, row), dim in small.entries.items():
        if -col < small.truncation:
            assert large.get(col, row) == dim, (col, row)


def test_e2_vanishing_off_support():
    page = e2_page(5, 2, Q)
    for (col, row), dim in page.entries.items():
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
    page = PageTable({(-2, 2): 7, (-4, 4): 5, (-5, 6): 3}, SINHA_E2, Q, 6)
    view = vassiliev_e1_view(page)
    assert view.page_label == VASSILIEV_E1
    assert view.get(-1, 1) == 7
    assert view.get(-2, 2) == 5
    assert view.get(-3, 4) == 3


def test_vassiliev_requires_e2_table():
    page = PageTable({}, VASSILIEV_E1, Q, 2)
    with pytest.raises(ValueError):
        vassiliev_e1_view(page)


def test_vassiliev_off_lattice_zero_is_dropped():
    page = PageTable({(-2, 3): 0, (-2, 2): 1}, SINHA_E2, Q, 2)
    view = vassiliev_e1_view(page)
    assert view.entries == {(-1, 1): 1}


def test_vassiliev_off_lattice_nonzero_raises():
    for bad in [{(-2, 3): 4}, {(-2, -2): 1}, {(1, 2): 2}]:
        page = PageTable(bad, SINHA_E2, Q, 2)
        with pytest.raises(ConsistencyError):
            vassiliev_e1_view(page)


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
    assert beyond.entries == {**top.entries, **zeros}


def test_e2_capacity_loop_skips_empty_columns(monkeypatch):
    real = sinha.normalized_dim_formula

    def guarded(l, k):
        if l > 2 * k:
            raise AssertionError(f"estimated the empty column (l={l}, k={k})")
        return real(l, k)

    monkeypatch.setattr(sinha, "normalized_dim_formula", guarded)
    page = e2_page(30, 1, F2)
    # the table computed when every column was estimated: 60 zero entries
    assert page.entries == {(-l, 2 * k): 0 for l in range(1, 31) for k in (0, 1)}


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
    assert all(row >= 0 for (_, row) in page.entries)
    total = sum(page.entries.values())
    assert sum(view.entries.values()) == total


# ---------------------------------------------------------------------------
# brute-force comparison of the expanded complex


@pytest.mark.parametrize("field", [Q, F2])
def test_kan_unit_check_n1(field):
    report = kan_unit_check(1, 2, field)
    assert report.equal
    assert report.rhs_dims.get(0) == 1  # one class in total degree 0
    assert report.rhs_dims.get(1) == 1  # the tangent class at the boundary column


@pytest.mark.parametrize("field", [Q, F2])
def test_kan_unit_check_n2(field):
    report = kan_unit_check(2, 2, field)
    assert report.equal
    for t in report.degrees():
        assert report.lhs_dims.get(t, 0) == report.rhs_dims.get(t, 0)


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
    assert (beyond.lhs_dims, beyond.rhs_dims) == (top.lhs_dims, top.rhs_dims)


def test_kan_capacity():
    with pytest.raises(CapacityError):
        kan_unit_check(4, 1, Q)
