import random

import pytest

from oracles import element_as_word_vector, in_relation_span, word_quotient_dim
from spectral_knots.conf_algebra import (
    AlgebraElement,
    Monomial,
    _reduce_cached,
    basis_monomials,
    dim_Y,
    normal_form,
    reduce_squarefree,
)
from spectral_knots.linalg import Field, ShapeError

Q = Field.rationals()


def elem(factors, l, field=Q):
    return normal_form(factors, l, field)


def single(factors, l, field=Q):
    return AlgebraElement({Monomial(factors, l): 1}, l, field)


def test_basis_single_strand():
    assert [m.factors for m in basis_monomials(1, 1)] == [((1, 1),)]


def test_basis_two_strands_degree_one():
    assert [repr(m) for m in basis_monomials(2, 1)] == ["g(1,1)", "g(2,2)", "g(1,2)"]


def test_basis_three_strands_degree_two_count():
    assert len(basis_monomials(3, 2)) == 14
    # confirmed against the raw word-space quotient
    assert word_quotient_dim(3, 2, Q) == 14


def test_basis_counts_match_closed_form():
    for l in range(0, 6):
        for k in range(0, 7):
            assert len(basis_monomials(l, k)) == dim_Y(l, k), (l, k)


def test_basis_is_square_free_and_forest():
    for m in basis_monomials(4, 3):
        assert m.is_basic()
        bs = [b for (a, b) in m.factors if a != b]
        assert len(bs) == len(set(bs))


def test_dim_Y_examples():
    assert dim_Y(2, 2) == 3
    assert dim_Y(3, 1) == 6
    assert dim_Y(0, 0) == 1


def test_dim_Y_two_two_enumeration():
    factor_sets = {m.factors for m in basis_monomials(2, 2)}
    assert factor_sets == {
        ((1, 1), (2, 2)),
        ((1, 1), (1, 2)),
        ((1, 2), (2, 2)),
    }


def test_normal_form_already_basic():
    e = elem([(1, 2)], 2)
    assert e == single([(1, 2)], 2)


def test_normal_form_antisymmetry():
    assert elem([(2, 1)], 2) == -single([(1, 2)], 2)


def test_normal_form_arnold_rewrite():
    # g(1,3) g(2,3) = g(1,2) g(2,3) - g(1,2) g(1,3)
    got = elem([(1, 3), (2, 3)], 3)
    expect = single([(1, 2), (2, 3)], 3) - single([(1, 2), (1, 3)], 3)
    assert got == expect


def test_arnold_rewrite_lies_in_relation_span():
    # the rewrite output minus the input must be a consequence of the relations
    diff = dict(single([(1, 3), (2, 3)], 3).terms)
    for mono, c in (single([(1, 2), (2, 3)], 3) - single([(1, 2), (1, 3)], 3)).terms.items():
        diff[mono] = diff.get(mono, 0) - c
    row = element_as_word_vector(diff, 3, 2)
    assert in_relation_span(3, 2, Q, row)


def test_normal_form_repeated_factor_is_zero():
    assert elem([(1, 2), (2, 1)], 2).is_zero()
    assert elem([(1, 1), (1, 1)], 2).is_zero()


def test_normal_form_range_check():
    with pytest.raises(ValueError):
        elem([(1, 3)], 2)


def test_multiply_unit():
    one = AlgebraElement.unit(2, Q)
    g = single([(1, 2)], 2)
    assert one * g == g


def test_multiply_square_zero():
    g = single([(1, 2)], 2)
    assert (g * g).is_zero()


def test_multiply_arnold():
    a = single([(1, 3)], 3)
    b = single([(2, 3)], 3)
    expect = single([(1, 2), (2, 3)], 3) - single([(1, 2), (1, 3)], 3)
    assert a * b == expect


def test_multiply_shape_errors():
    with pytest.raises(ShapeError):
        single([(1, 2)], 2) * single([(1, 2)], 3)
    with pytest.raises(ShapeError):
        single([(1, 2)], 2) * single([(1, 2)], 2, Field.prime(2))


def test_prime_field_coefficients_are_residues():
    f3 = Field.prime(3)
    x = single([(1, 2)], 3, f3) + single([(2, 3)], 3, f3)
    assert (x + x + x).is_zero()
    assert set((-x).terms.values()) == {2}
    a = AlgebraElement({Monomial([(1, 3)], 3): 2, Monomial([(1, 1)], 3): 1}, 3, f3)
    b = AlgebraElement({Monomial([(2, 3)], 3): 2, Monomial([(2, 2)], 3): 2}, 3, f3)
    prod = a * b
    assert prod.terms and all(type(c) is int and 0 < c < 3 for c in prod.terms.values())
    # the same product over Q, read mod 3
    a_q = AlgebraElement(a.terms, 3, Q)
    b_q = AlgebraElement(b.terms, 3, Q)
    assert prod == AlgebraElement((a_q * b_q).terms, 3, f3)


def test_arnold_relation_vanishes():
    # g(i,j)g(j,k) + g(j,k)g(k,i) + g(k,i)g(i,j) = 0 for distinct i, j, k
    rng = random.Random(7)
    for _ in range(25):
        l = rng.randint(3, 6)
        i, j, k = rng.sample(range(1, l + 1), 3)
        total = (
            elem([(i, j), (j, k)], l)
            + elem([(j, k), (k, i)], l)
            + elem([(k, i), (i, j)], l)
        )
        assert total.is_zero(), (i, j, k, l)


def _random_monomial(rng, l, k):
    pairs = set()
    while len(pairs) < k:
        i, j = rng.randint(1, l), rng.randint(1, l)
        pairs.add((min(i, j), max(i, j)))
    return frozenset(pairs)


def _random_chooser(rng):
    def choose(shared):
        b = rng.choice(sorted(shared))
        a1, a2 = sorted(rng.sample(sorted(shared[b]), 2))
        return a1, a2, b
    return choose


def test_confluence_random_orders():
    rng = random.Random(20240811)
    for _ in range(200):
        l = rng.randint(2, 5)
        k = rng.randint(1, min(4, l * (l + 1) // 2))
        mono = _random_monomial(rng, l, k)
        default = reduce_squarefree(mono)
        alt = reduce_squarefree(mono, choose=_random_chooser(rng))
        assert default == alt, mono


def test_normal_form_idempotent_on_basis():
    for m in basis_monomials(4, 3):
        e = normal_form(m, 4, Q)
        assert e == AlgebraElement({m: 1}, 4, Q)


def test_rewrite_memo_holds_only_non_basic_monomials():
    # g(1,3) g(2,3) = g(1,2) g(2,3) - g(1,2) g(1,3): one rewrite step to two
    # basic monomials, so only the product itself enters the memo
    _reduce_cached.cache_clear()
    assert reduce_squarefree([(1, 3), (2, 3)]) == {((1, 2), (2, 3)): 1, ((1, 2), (1, 3)): -1}
    assert _reduce_cached.cache_info().currsize == 1
    assert reduce_squarefree([(1, 2), (1, 3)]) == {((1, 2), (1, 3)): 1}
    assert _reduce_cached.cache_info().currsize == 1


def test_multiply_commutative_and_associative():
    rng = random.Random(99)
    l = 4
    monos = basis_monomials(l, 1) + basis_monomials(l, 2)
    for _ in range(20):
        a = AlgebraElement({rng.choice(monos): rng.randint(-3, 3) or 1}, l, Q)
        b = AlgebraElement({rng.choice(monos): rng.randint(-3, 3) or 1}, l, Q)
        c = AlgebraElement({rng.choice(monos): rng.randint(-3, 3) or 1}, l, Q)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("l,k", [(2, 2), (3, 2), (3, 3), (4, 2)])
def test_brute_force_quotient_matches_dim_Y(l, k):
    assert word_quotient_dim(l, k, Q) == dim_Y(l, k)
