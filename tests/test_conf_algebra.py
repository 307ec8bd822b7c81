import random

import pytest

from oracles import element_as_word_vector, in_relation_span, is_basic, reduce_squarefree, rewrite_step, word_quotient_dim
from spectral_knots.conf_algebra import _reduce_cached, basis_monomials, dim_Y
from spectral_knots.linalg import Field

Q = Field()


def times(x, y):
    """Product of two combinations {raw factor tuple: int}.  Each raw pair
    (i, j) is canonicalised with its sign, a repeated factor squares to
    zero, and the rest is reduced to the forest basis."""
    out = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            sign, canon = c1 * c2, []
            for (i, j) in m1 + m2:
                if i > j:
                    i, j, sign = j, i, -sign
                canon.append((i, j))
            if len(set(canon)) < len(canon):
                continue
            for m, c in reduce_squarefree(tuple(sorted(canon))):
                out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def test_basis_single_strand():
    assert basis_monomials(1, 1) == (((1, 1),),)


def test_basis_two_strands_degree_one():
    assert basis_monomials(2, 1) == (((1, 1),), ((2, 2),), ((1, 2),))


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
        assert m == tuple(sorted(set(m))), m  # sorted, no repeated factor
        assert all(1 <= i <= j <= 4 for (i, j) in m), m
        assert is_basic(m)
        bs = [b for (a, b) in m if a != b]
        assert len(bs) == len(set(bs))


def test_dim_Y_examples():
    assert dim_Y(2, 2) == 3
    assert dim_Y(3, 1) == 6
    assert dim_Y(0, 0) == 1


def test_dim_Y_two_two_enumeration():
    assert set(basis_monomials(2, 2)) == {
        ((1, 1), (2, 2)),
        ((1, 1), (1, 2)),
        ((1, 2), (2, 2)),
    }


def test_normal_form_already_basic():
    assert reduce_squarefree(((1, 2),)) == ((((1, 2),), 1),)


def test_normal_form_arnold_rewrite():
    # g(1,3) g(2,3) = g(1,2) g(2,3) - g(1,2) g(1,3), by the reference and by the memo
    want = {((1, 2), (2, 3)): 1, ((1, 2), (1, 3)): -1}
    assert dict(reduce_squarefree(((1, 3), (2, 3)))) == dict(_reduce_cached(((1, 3), (2, 3)))) == want


def test_arnold_rewrite_lies_in_relation_span():
    # the rewrite output minus the input must be a consequence of the relations
    diff = {((1, 3), (2, 3)): 1}
    for mono, c in reduce_squarefree(((1, 3), (2, 3))):
        diff[mono] = diff.get(mono, 0) - c
    row = element_as_word_vector(diff, 3, 2)
    assert in_relation_span(3, 2, Q, row)


def test_arnold_relation_vanishes():
    # g(i,j)g(j,k) + g(j,k)g(k,i) + g(k,i)g(i,j) = 0 for distinct i, j, k
    rng = random.Random(7)
    for _ in range(25):
        l = rng.randint(3, 6)
        i, j, k = rng.sample(range(1, l + 1), 3)
        total = {}
        for a, b in (((i, j), (j, k)), ((j, k), (k, i)), ((k, i), (i, j))):
            for m, c in times({(a,): 1}, {(b,): 1}).items():
                total[m] = total.get(m, 0) + c
        assert not any(total.values()), (i, j, k, l)


def _random_monomial(rng, l, k):
    pairs = set()
    while len(pairs) < k:
        i, j = rng.randint(1, l), rng.randint(1, l)
        pairs.add((min(i, j), max(i, j)))
    return tuple(sorted(pairs))


def _random_chooser(rng, chosen):
    """A chooser taking a random shared larger index and a random pair below
    it; each choice is appended to ``chosen``, so a test can see it ran."""
    def choose(shared):
        b = rng.choice(sorted(shared))
        chosen.append(b)
        a1, a2 = sorted(rng.sample(sorted(shared[b]), 2))
        return a1, a2, b
    return choose


def test_confluence_random_orders():
    # the package's memo, in its fixed order, against the reference rewrite
    # in random orders
    rng = random.Random(20240811)
    chosen = []
    for _ in range(200):
        l = rng.randint(2, 5)
        k = rng.randint(1, min(4, l * (l + 1) // 2))
        mono = _random_monomial(rng, l, k)
        default = {mono: 1} if is_basic(mono) else dict(_reduce_cached(mono))
        before = len(chosen)
        alt = dict(reduce_squarefree(mono, _random_chooser(rng, chosen)))
        assert default == alt, mono
        # a non-basic monomial is rewritten only through the random chooser
        assert is_basic(mono) or len(chosen) > before, mono
    assert chosen


def test_normal_form_idempotent_on_basis():
    for m in basis_monomials(4, 3):
        assert reduce_squarefree(m) == ((m, 1),)


def test_rewrite_memo_holds_only_non_basic_monomials():
    # g(1,3) g(2,3) = g(1,2) g(2,3) - g(1,2) g(1,3): one rewrite step to two
    # basic monomials, so only the product itself enters the memo
    _reduce_cached.cache_clear()
    assert dict(_reduce_cached(((1, 3), (2, 3)))) == {((1, 2), (2, 3)): 1, ((1, 2), (1, 3)): -1}
    assert _reduce_cached.cache_info().currsize == 1
    _reduce_cached.cache_clear()


def test_rewrite_step_terms_die_together_on_a_factor_a1_a2():
    # (a1, c) and (a2, c) are the factors taken out, so neither new term can
    # recreate one of the rest; both die when (a1, a2) is already a factor
    assert rewrite_step(((1, 3), (2, 3)), 1, 2, 3) == ((((1, 2), (2, 3)), 1), (((1, 2), (1, 3)), -1))
    assert rewrite_step(((1, 2), (1, 3), (2, 3)), 1, 2, 3) == ()
    assert _reduce_cached(((1, 2), (1, 3), (2, 3))) == ()


def test_multiply_commutative_and_associative():
    rng = random.Random(99)
    l = 4
    monos = basis_monomials(l, 1) + basis_monomials(l, 2)
    for _ in range(20):
        a, b, c = ({rng.choice(monos): rng.randint(-3, 3) or 1} for _ in range(3))
        assert times(a, b) == times(b, a)
        assert times(times(a, b), c) == times(a, times(b, c))


@pytest.mark.parametrize("l,k", [(2, 2), (3, 2), (3, 3), (4, 2)])
def test_brute_force_quotient_matches_dim_Y(l, k):
    assert word_quotient_dim(l, k, Q) == dim_Y(l, k)
