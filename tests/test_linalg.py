import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    dense_product,
    dense_rows,
    from_entries,
    linear_relation_matrix,
    naive_rank,
    unquotiented_relation_matrix,
)
from spectral_knots import linalg
from spectral_knots.chords import relation_matrix
from spectral_knots.linalg import (
    ComplexError,
    Field,
    ShapeError,
    SparseMatrix,
    _F2_BASIS_BUDGET,
    _eliminate,
    _f2_columns_as_lines,
    _is_prime,
    _presolve,
    _rank_f2,
    homology_dim,
)
from spectral_knots.sinha import d1_matrix

Q = Field()
F2 = Field(2)


def mat(dense, field=Q):
    """Matrix of a list of dense row lists."""
    entries = {(r, c): v for r, row in enumerate(dense) for c, v in enumerate(row) if v}
    return from_entries(len(dense), len(dense[0]) if dense else 0, field, entries)


def test_prime_field_requires_prime():
    Field(2)
    Field(97)
    for bad in (0, 1, 4, 6, 9, 100):
        with pytest.raises(ValueError):
            Field(bad)


def test_primality_matches_trial_division():
    trial = [p for p in range(20000) if p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))]
    assert [p for p in range(20000) if _is_prime(p)] == trial


def test_large_prime_moduli():
    start = time.perf_counter()
    assert Field(2**61 - 1).p == 2**61 - 1
    assert Field(2**64 - 59).p == 2**64 - 59  # the largest prime below 2**64
    assert time.perf_counter() - start < 1
    # a strong pseudoprime to the bases 2, 3, 5 and 7; the first prime above 2**64
    for bad in (3215031751, 2**64 + 13):
        with pytest.raises(ValueError):
            Field(bad)


def test_field_spec_roundtrip():
    assert Field.from_spec("q") == Q
    assert Field.from_spec("fp:5") == Field(5)
    assert Field.from_spec("fp:5").spec() == "fp:5"
    for bad in ("r", "fp:", "fp:x", "f2", ""):
        with pytest.raises(ValueError):
            Field.from_spec(bad)


def test_coerce():
    assert Q.coerce(2) == Fraction(2)
    f7 = Field(7)
    assert f7.coerce(-1) == 6
    assert f7.coerce(Fraction(1, 2)) == 4  # inverse of 2 mod 7
    with pytest.raises(ZeroDivisionError):
        f7.coerce(Fraction(1, 7))


P61 = 2**61 - 1

# floats whose int values rank 3 mod 2^61 - 1; reduced as floats they ranked 2
FLOAT_ROWS = [
    [624469497501093248.0, 1717271201178440192.0, 1.0],
    [1.0, 378478204745008512.0, 0],
    [624469497501093248.0, 2095749405923448832.0, 1.0],
]


def test_coerce_refuses_floats_over_prime_fields():
    with pytest.raises(TypeError):
        SparseMatrix(1, 1, F2, [{0: 0.5}]).rank()  # ranked 1; Fraction(1, 2) has no inverse
    with pytest.raises(ZeroDivisionError):
        SparseMatrix(1, 1, F2, [{0: Fraction(1, 2)}])
    with pytest.raises(TypeError):
        mat(FLOAT_ROWS, Field(P61))
    int_rows = [[int(x) for x in row] for row in FLOAT_ROWS]
    assert mat(int_rows, Field(P61)).rank() == 3
    # bools are ints; over Q a float is exact through Fraction
    assert F2.coerce(True) == 1 and type(F2.coerce(True)) is int
    assert Q.coerce(0.5) == Fraction(1, 2)
    assert mat(FLOAT_ROWS).rank() == mat(int_rows).rank()


def _reference_coerce(f, x):
    """Reduction of ``x`` through ``Fraction``: the value over Q, the residue over F_p."""
    x = Fraction(x)
    if f.p is None:
        return x
    if x.denominator % f.p == 0:
        raise ZeroDivisionError
    return x.numerator * pow(x.denominator, -1, f.p) % f.p


SCALARS = st.one_of(
    st.integers(),
    st.integers(-(2**130), 2**130),
    st.booleans(),
    st.fractions(),
    # denominators with a factor of 2, 3 or 2^61 - 1, or none
    st.builds(lambda a, b, m: Fraction(a, b * m), st.integers(), st.integers(1, 50), st.sampled_from([1, 2, 3, P61])),
)


@settings(max_examples=400, deadline=None)
@given(f=st.sampled_from([Q, F2, Field(3), Field(P61)]), x=SCALARS)
def test_coerce_matches_fraction_reference(f, x):
    try:
        expected = _reference_coerce(f, x)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            f.coerce(x)
        return
    got = f.coerce(x)
    assert got == expected
    if f.p is None:
        assert type(got) is (int if expected.denominator == 1 else Fraction)
    else:
        assert type(got) is int and 0 <= got < f.p


def test_rank_identity():
    assert mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).rank() == 3


def test_rank_proportional_rows():
    assert mat([[1, 2], [2, 4]]).rank() == 1


def test_rank_equal_rows_f2():
    assert mat([[1, 1], [1, 1]], F2).rank() == 1


def test_rank_empty():
    assert SparseMatrix(0, 0, Q).rank() == 0
    assert SparseMatrix(4, 5, Q).rank() == 0


def test_compose_identity():
    i2 = mat([[1, 0], [0, 1]])
    assert i2.compose(i2) == i2


def test_compose_zero_absorbs():
    m = mat([[1, 2], [3, 4]])
    z = SparseMatrix(2, 2, Q)
    assert m.compose(z).is_zero()
    assert z.compose(m).is_zero()


def test_compose_cancellation():
    a = mat([[1, 1]])
    b = mat([[1], [-1]])
    assert a.compose(b) == SparseMatrix(1, 1, Q)


@pytest.mark.parametrize("p", [2, 3])
def test_compose_drops_sums_that_vanish_mod_p(p, monkeypatch):
    # every integer sum of this product is p, so over F_p none of them
    # reaches the constructor
    a, b = [[1, 1], [1, 1]], [[1, 1], [p - 1, p - 1]]
    assert dense_product(a, b) == [[p, p], [p, p]]
    a, b = mat(a, Field(p)), mat(b, Field(p))
    seen = []
    real = SparseMatrix.__init__

    def spy(self, rows, cols, field, columns=None):
        seen.append(columns)
        real(self, rows, cols, field, columns)

    monkeypatch.setattr(SparseMatrix, "__init__", spy)
    assert a.compose(b).is_zero()
    assert seen == [[{}, {}]]


@st.composite
def sparse_entries(draw):
    """(rows, cols, field, {(row, col): scalar}), zeros and scalars that
    vanish in the field included; every denominator is a unit in each field."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    field = draw(st.sampled_from([Q, F2, Field(3)]))
    if not rows or not cols:
        return rows, cols, field, {}
    key = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    scalar = st.one_of(st.integers(-7, 7),
                       st.fractions(max_denominator=7).filter(lambda x: math.gcd(x.denominator, 6) == 1))
    return rows, cols, field, draw(st.dictionaries(key, scalar, max_size=rows * cols))


@given(sparse_entries())
def test_entries_round_trip_through_the_constructor(case):
    rows, cols, field, entries = case
    m = from_entries(rows, cols, field, entries)
    want = {rc: field.coerce(v) for rc, v in entries.items()}
    assert m.entries == {rc: v for rc, v in want.items() if v}
    again = from_entries(rows, cols, field, m.entries)
    assert again == m and again.entries == m.entries
    assert m.columns == [{r: v for (r, c), v in m.entries.items() if c == j} for j in range(cols)]
    with pytest.raises(TypeError):  # the view is read-only
        m.entries[(0, 0)] = 1


def test_constructor_checks_row_indices_and_column_count():
    for bad_row in (2, -1):
        with pytest.raises(ShapeError, match="outside 2x2"):
            SparseMatrix(2, 2, Q, [{}, {bad_row: 1}])
    for columns in ([{}], [{}, {}, {}]):
        with pytest.raises(ShapeError, match="columns given"):
            SparseMatrix(2, 2, Q, columns)
    assert SparseMatrix(2, 2, Q, [{1: 3}, {0: 0}]).columns == [{1: 3}, {}]


def test_compose_shape_error():
    with pytest.raises(ShapeError):
        mat([[1, 2]]).compose(mat([[1, 2]]))
    with pytest.raises(ShapeError):
        mat([[1]]).compose(mat([[1]], F2))


def _dense(rows, cols):
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 4])
    return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@settings(max_examples=150)
@given(
    st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)).flatmap(
        lambda s: st.tuples(_dense(s[0], s[1]), _dense(s[1], s[2]))
    ),
    st.sampled_from([None, 2, 3, 5]),
)
def test_compose_matches_dense_product(pair, p):
    a, b = pair
    f = Field(p)
    got = mat(a, f).compose(mat(b, f))
    want = dense_product(a, b, p)
    assert got.entries == {(r, c): v for r, row in enumerate(want) for c, v in enumerate(row) if v}
    for v in got.entries.values():
        assert v != 0
        if p is None:
            assert type(v) is int or (isinstance(v, Fraction) and v.denominator != 1)
        else:
            assert type(v) is int and 0 <= v < p


def test_homology_zero_differentials():
    d_in = SparseMatrix(3, 0, Q)
    d_out = SparseMatrix(0, 3, Q)
    assert homology_dim([d_out, d_in]) == [0, 3, 0]
    # the end maps count as zero: a lone zero map leaves both terms whole
    assert homology_dim([SparseMatrix(2, 3, Q)]) == [2, 3]


def test_homology_injective_outgoing():
    d_out = mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert homology_dim([d_out]) == [0, 0]


def test_homology_middle_two():
    # middle dim 2, incoming column (1,1)^T, outgoing row (1,-1)
    d_in = mat([[1], [1]])
    d_out = mat([[1, -1]])
    # derived expectation via the dense oracle: 2 - rank_in - rank_out
    expect = 2 - naive_rank([[1], [1]]) - naive_rank([[1, -1]])
    assert expect == 0
    assert homology_dim([d_out, d_in]) == [0, 0, 0]


def test_homology_complex_violation():
    d_in = mat([[1], [0]])
    d_out = mat([[1, 0]])
    with pytest.raises(ComplexError):
        homology_dim([d_out, d_in])
    # every consecutive pair is checked, not only the first
    with pytest.raises(ComplexError):
        homology_dim([SparseMatrix(0, 1, Q), d_out, d_in])


def test_homology_shape_error():
    d_in = mat([[1], [1]])
    d_out = mat([[1, -1, 0]])
    with pytest.raises(ShapeError):
        homology_dim([d_out, d_in])
    with pytest.raises(ShapeError):
        homology_dim([mat([[1, -1]], F2), d_in])


small_matrix = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-3, 3), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@given(small_matrix)
def test_rank_equals_rank_of_transpose(rows):
    m = mat(rows)
    assert m.rank() == mat([list(col) for col in zip(*rows)]).rank()


matrix_8x8 = st.lists(
    st.lists(st.integers(-2, 2), min_size=1, max_size=8), min_size=1, max_size=8
).map(lambda rows: [r + [0] * (max(len(x) for x in rows) - len(r)) for r in rows])


@settings(max_examples=150)
@given(matrix_8x8)
def test_fraction_free_rank_matches_dense_oracle(rows):
    assert mat(rows).rank() == naive_rank(rows)


def test_fraction_free_rank_exhaustive_3x3():
    import itertools

    for flat in itertools.product((-1, 0, 1), repeat=9):
        rows = [list(flat[0:3]), list(flat[3:6]), list(flat[6:9])]
        assert mat(rows).rank() == naive_rank(rows), rows


@given(small_matrix, st.sampled_from([2, 3, 5]))
def test_prime_rank_at_most_rational_rank(rows, p):
    assert mat(rows, Field(p)).rank() <= mat(rows).rank()


@pytest.mark.parametrize("p", [2, 3])
def test_prime_rank_exhaustive_3x3(p):
    import itertools

    for flat in itertools.product(range(p), repeat=9):
        rows = [list(flat[0:3]), list(flat[3:6]), list(flat[6:9])]
        assert mat(rows, Field(p)).rank() == naive_rank(rows, p), rows


# mostly zeros, so that many rows have weight 1 or 2 and the presolve works
sparse_matrix = st.integers(1, 8).flatmap(
    lambda c: st.lists(
        st.lists(st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3]), min_size=c, max_size=c),
        min_size=1,
        max_size=9,
    )
)


@settings(max_examples=150)
@given(st.one_of(small_matrix, sparse_matrix), st.sampled_from([2, 3, 5, 7]))
def test_prime_rank_matches_dense_oracle(rows, p):
    assert mat(rows, Field(p)).rank() == naive_rank(rows, p)


@settings(max_examples=150)
@given(sparse_matrix)
def test_sparse_rational_rank_matches_dense_oracle(rows):
    assert mat(rows).rank() == naive_rank(rows)


@st.composite
def f2_matrix(draw):
    """Up to 150 x 150, either side the longer, so that packed lines span
    several machine words; entries +-2 vanish mod 2, and some lines (rows or
    columns) are zero or repeat another."""
    rows, cols = draw(st.integers(1, 150)), draw(st.integers(1, 150))
    density = draw(st.sampled_from([0.02, 0.1, 0.5]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    dense = [[rng.choice((1, -1, 2, -2, 3)) if rng.random() < density else 0 for _ in range(cols)]
             for _ in range(rows)]
    for _ in range(draw(st.integers(0, 3))):
        dense[rng.randrange(rows)] = [0] * cols
        dense[rng.randrange(rows)] = list(dense[rng.randrange(rows)])
    for _ in range(draw(st.integers(0, 3))):
        zero, dup, src = rng.randrange(cols), rng.randrange(cols), rng.randrange(cols)
        for row in dense:
            row[zero] = 0
            row[dup] = row[src]
    return dense


def f2_lines(m):
    """(column lines, row lines) of a matrix: {index: positions} for
    ``_rank_f2``, empty lines left out."""
    rows = {}
    for r, c in sorted(m.entries):
        rows.setdefault(r, []).append(c)
    return {c: col for c, col in enumerate(m.columns) if col}, rows


@settings(max_examples=60, deadline=None)
@given(f2_matrix())
def test_f2_rank_matches_dense_oracle(dense):
    m = mat(dense, F2)
    rank = naive_rank(dense, 2)
    assert m.rank() == rank
    # packed over the columns or over the rows, the rank is the same
    columns, rows = f2_lines(m)
    assert len(_rank_f2(columns, m.rows)) == len(_rank_f2(rows, m.cols)) == rank


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_f2_rank_matches_dict_sweep_on_real_matrices(n):
    # the unquotiented relation matrix keeps the one-term rows of weight 1
    for m in (d1_matrix(2 * n, n, F2), relation_matrix(n, F2), linear_relation_matrix(n, F2),
              unquotiented_relation_matrix(n, F2)):
        columns, rows = f2_lines(m)
        swept = _eliminate({r: dict.fromkeys(line, 1) for r, line in rows.items()}, 2)
        assert m.rank() == len(_rank_f2(columns, m.rows)) == len(_rank_f2(rows, m.cols)) == swept, m


def test_f2_lines_run_along_the_shorter_side_within_the_budget():
    # the Sinha diagonal matrices, 13585 x 3655 at n = 6 and 210650 x 47844
    # at n = 7, are not built: along the columns their bases may take 6.2 MB
    # and 1.26 GB, so n = 6 packs its 3655 columns and n = 7 its 210650 rows
    assert 13585 * 3655 <= 8 * _F2_BASIS_BUDGET < 210650 * 47844
    assert _f2_columns_as_lines(13585, 3655)
    assert not _f2_columns_as_lines(210650, 47844)
    # the shorter side, whichever it is, within the budget; the longer past it
    assert not _f2_columns_as_lines(3655, 13585)
    assert _f2_columns_as_lines(47844, 210650)
    assert _f2_columns_as_lines(5, 5) and _f2_columns_as_lines(3, 0)


def presolve(dense, p=None):
    """Run the presolve alone on integer rows: (rank found, rows left over)."""
    rows = {i: {c: v for c, v in enumerate(r) if v} for i, r in enumerate(dense) if any(r)}
    col_rows = {}
    for i, r in rows.items():
        for c in r:
            col_rows.setdefault(c, set()).add(i)
    return _presolve(rows, col_rows, p), rows


def test_presolve_chain_of_weight_one_deletions():
    # each deletion leaves the next row with weight 1
    dense = [
        [0, 0, 4, 9],
        [1, 0, 0, 0],
        [2, 3, 0, 0],
        [0, 5, 7, 0],
    ]
    assert presolve(dense) == (4, {})
    assert mat(dense).rank() == 4 == naive_rank(dense)


def test_presolve_requeues_rows_that_drop_to_weight_two():
    # the deletion leaves y - z, whose merge leaves 5z from the non-unit 2y + 3z
    dense = [[1, 0, 0], [1, 1, -1], [0, 2, 3]]
    assert presolve(dense) == (3, {})
    assert mat(dense).rank() == 3 == naive_rank(dense)


@pytest.mark.parametrize("p", [None, 2, 3])
def test_presolve_merge_cycle(p):
    # x - y, y - z, z - x: the third row merges away to nothing
    dense = [[1, -1, 0], [0, 1, -1], [-1, 0, 1]]
    assert presolve(dense, p) == (2, {})
    assert mat(dense, Field(p)).rank() == 2 == naive_rank(dense, p)


def test_presolve_pivots_on_non_unit_pair_over_q():
    dense = [[2, 3]]
    assert presolve(dense) == (1, {})
    assert presolve([[2, 3], [4, 6]]) == (1, {})
    assert mat(dense).rank() == 1
    assert mat([[2, 3], [4, 6]]).rank() == 1
    assert mat([[2, 3], [3, 2]]).rank() == 2 == naive_rank([[2, 3], [3, 2]])
    # over F_5 both coefficients are units
    assert presolve(dense, 5) == (1, {})


def test_presolve_duplicated_rows():
    dense = [[1, 1, 0], [1, 1, 0], [0, 1, 1], [0, 1, 1]]
    for p in (None, 2, 3):
        assert presolve(dense, p) == (2, {})
        assert mat(dense, Field(p)).rank() == 2 == naive_rank(dense, p)


def test_presolve_merge_empties_another_row():
    # merging x into y turns 2x - 2y into 0; the dense row is then left
    dense = [[1, -1, 0, 0], [2, -2, 0, 0], [1, 1, 1, 1]]
    rank, rest = presolve(dense)
    assert rank == 1
    assert rest == {2: {1: 2, 2: 1, 3: 1}}
    assert mat(dense).rank() == 2 == naive_rank(dense)


def test_presolve_divides_updated_rows_by_their_content():
    # x + y eliminates x from x + 3y + 2z + 2w, leaving 2y + 2z + 2w
    assert presolve([[1, 1, 0, 0], [1, 3, 2, 2]]) == (1, {1: {1: 1, 2: 1, 3: 1}})


def test_presolve_negates_a_pivot_row_leading_with_minus_one_over_q():
    # -x + y pivots on x (the tie goes to the lower column) and clears it from
    # 2x + 3y + 5z + 7w as 5y + 5z + 7w, not as its negative
    dense = [[-1, 1, 0, 0], [2, 3, 5, 7]]
    assert presolve(dense) == (1, {1: {1: 5, 2: 5, 3: 7}})
    assert mat(dense).rank() == 2 == naive_rank(dense)


@settings(max_examples=150)
@given(sparse_matrix)
def test_presolve_leaves_changed_rows_primitive(dense):
    before = {i: {c: v for c, v in enumerate(r) if v} for i, r in enumerate(dense)}
    _, rows = presolve(dense)
    for i, row in rows.items():
        if row != before[i]:
            assert math.gcd(*row.values()) == 1, (before[i], row)


def _apply_middle_basis_change(d_in, d_out, ops):
    """Change the middle basis: row ops on d_in paired with inverse col ops on d_out."""
    ent_in = dict(d_in.entries)
    ent_out = dict(d_out.entries)
    for (i, j, c) in ops:  # add c * (row i) to (row j) of d_in
        for col in range(d_in.cols):
            v = ent_in.get((i, col))
            if v:
                ent_in[(j, col)] = ent_in.get((j, col), Fraction(0)) + c * v
        # inverse on d_out: subtract c * (col j) from (col i)
        for row in range(d_out.rows):
            v = ent_out.get((row, j))
            if v:
                ent_out[(row, i)] = ent_out.get((row, i), Fraction(0)) - c * v
    return (
        from_entries(d_in.rows, d_in.cols, d_in.field, ent_in),
        from_entries(d_out.rows, d_out.cols, d_out.field, ent_out),
    )


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-2, 2)).filter(
            lambda t: t[0] != t[1]
        ),
        max_size=6,
    )
)
def test_homology_invariant_under_basis_change(ops):
    # 4-dim middle term: ker(d_out) is 3-dim, image of d_in is 1-dim
    d_in = mat([[1], [1], [0], [0]])
    d_out = mat([[1, -1, 0, 0]])
    base = homology_dim([d_out, d_in])
    assert base == [0, 2, 0]
    d_in2, d_out2 = _apply_middle_basis_change(d_in, d_out, ops)
    assert homology_dim([d_out2, d_in2]) == base


# ---------------------------------------------------------------------------
# clearing: ranks that skip the pivot rows of the next differential


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_matrix, sparse_matrix), st.sampled_from([None, 2, 3, 5]), st.data())
def test_rank_reports_rows_of_a_full_rank_minor(rows, p, data):
    # over Q and odd p the kept columns are the eliminator's lines, and the
    # pivots its pivot positions: matrix rows, not the lines it pops
    skip = data.draw(st.sets(st.integers(0, len(rows[0]) - 1)))
    kept = [[v for c, v in enumerate(row) if c not in skip] for row in rows]
    pivots = set()
    rank = mat(rows, Field(p)).rank(skip, pivots)
    assert rank == len(pivots) == naive_rank(kept, p)
    assert naive_rank([kept[i] for i in sorted(pivots)], p) == rank


@settings(max_examples=40, deadline=None)
@given(f2_matrix(), st.data())
def test_f2_pivots_along_either_side_are_rows_of_a_full_rank_minor(dense, data):
    # leading positions of the basis when the lines are columns, the lines
    # entering it when they are rows; ``rank`` takes either side
    m = mat(dense, F2)
    skip = data.draw(st.sets(st.integers(0, m.cols - 1)))
    kept = [[v for c, v in enumerate(row) if c not in skip] for row in dense]
    rank = naive_rank(kept, 2)
    for along_columns in (False, True):
        pivots = set()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_f2_columns_as_lines", lambda rows, cols: along_columns)
            assert m.rank(skip, pivots) == len(pivots) == rank
        assert naive_rank([kept[i] for i in sorted(pivots)], 2) == rank


def test_homology_checks_every_composite_before_any_rank(monkeypatch):
    # clearing is exact only on a complex, so no rank may run before d∘d = 0
    ranked = []
    real = SparseMatrix.rank
    monkeypatch.setattr(SparseMatrix, "rank", lambda self, *args: ranked.append(self) or real(self, *args))
    with pytest.raises(ComplexError):
        homology_dim([mat([[1, 1]]), mat([[1], [1]]), mat([[1]])])
    assert ranked == []
    assert homology_dim([mat([[1, 1]]), mat([[1], [-1]])]) == [0, 0, 0]
    assert len(ranked) == 2


def plain_homology(ds):
    """Homology dimensions with every differential ranked in full: by the
    dense oracle when it is small, by ``rank()`` with no skip otherwise."""
    ranks = [0] + [naive_rank(dense_rows(d), d.field.p) if d.rows * d.cols <= 10**4 else d.rank()
                   for d in ds] + [0]
    dims = [ds[0].rows] + [d.cols for d in ds]
    return [dims[i] - ranks[i] - ranks[i + 1] for i in range(len(dims))]


FIELDS = {"q": Q, "fp2": F2, "fp3": Field(3), "fp5": Field(5)}


@pytest.mark.parametrize("field, k", [
    pytest.param(f, k, id=f"{name}-k{k}", marks=[pytest.mark.slow] if k == 5 and name != "fp2" else [])
    for name, f in FIELDS.items() for k in range(6)
])
def test_cleared_homology_of_each_column_complex_is_the_plain_one(field, k):
    # over F_2 at k = 4 and 5 this includes the torsion of d1(7, 4) and
    # d1(8, 5); the rational k = 5 ranks in full take seconds, hence slow
    ds = [d1_matrix(l, k, field) for l in range(1, 2 * k + 2)]
    assert homology_dim(ds) == plain_homology(ds)


def matmul(a, b, inner, cols):
    """Product of dense row lists with explicit inner and column sizes."""
    return [[sum(row[t] * b[t][c] for t in range(inner)) for c in range(cols)] for row in a]


@st.composite
def chain_complexes(draw):
    """(dims, differentials as dense rows, the rank of each over every field).

    Top down, d_i pairs distinct basis vectors of C_i that d_{i+1} does not
    hit with distinct ones of C_{i-1}, by scalars from {+-1, 2, 3, 6}; so
    d_i d_{i+1} = 0, and d_i's rank over F_p counts its scalars prime to p.
    Each C_j then changes basis by a random unimodular E_j, d_i becoming
    E_{i-1} d_i E_i^-1.
    """
    m = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(0, 6), min_size=m + 1, max_size=m + 1))
    hit, scalars, ds = set(), {}, [None] * (m + 1)
    for i in range(m, 0, -1):
        free = list(range(dims[i - 1]))
        block = {}
        for c in range(dims[i]):
            j = draw(st.integers(-1, len(free) - 1))
            if c not in hit and j >= 0:
                block[free.pop(j), c] = draw(st.sampled_from([1, -1, 2, 3, 6]))
        hit = {r for r, _ in block}
        scalars[i] = list(block.values())
        ds[i] = [[block.get((r, c), 0) for c in range(dims[i])] for r in range(dims[i - 1])]
    change = []
    for n in dims:
        e = [[int(r == c) for c in range(n)] for r in range(n)]
        inv = [row[:] for row in e]
        for a, b, t in draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(-2, 2)), max_size=8)):
            if a != b and max(a, b) < n:  # E <- (1 + t e_ab) E, E^-1 <- E^-1 (1 - t e_ab)
                e[a] = [x + t * y for x, y in zip(e[a], e[b])]
                for row in inv:
                    row[b] -= t * row[a]
        change.append((e, inv))
    for i in range(1, m + 1):
        e, inv = change[i - 1][0], change[i][1]
        ds[i] = matmul(matmul(e, ds[i], dims[i - 1], dims[i]), inv, dims[i], dims[i])
    ranks = {p: [sum(1 for v in scalars[i] if p is None or v % p) for i in range(1, m + 1)] for p in (None, 2, 3, 5)}
    return dims, ds[1:], ranks


@settings(max_examples=150, deadline=None)
@given(chain_complexes())
def test_cleared_homology_of_random_complexes(case):
    dims, dense, ranks = case
    for p, rank in ranks.items():
        f = Field(p)
        ds = [from_entries(dims[i], dims[i + 1], f,
                           {(r, c): v for r, row in enumerate(d) for c, v in enumerate(row) if v})
              for i, d in enumerate(dense)]
        r = [0] + rank + [0]
        assert homology_dim(ds) == [dims[i] - r[i] - r[i + 1] for i in range(len(dims))], p
