"""The graded commutative algebra of strand-separation classes.

On l strands the algebra is generated by degree-2 classes g(i,j) for
1 <= i <= j <= l, where g(i,i) is the tangent-sphere class of strand i.
Relations: g(j,i) = -g(i,j) for i != j, every square vanishes, and the
Arnold relation g(i,j)g(j,k) + g(j,k)g(k,i) + g(k,i)g(i,j) = 0 for
pairwise-distinct i, j, k.  All generators have even degree, so the
algebra is strictly commutative.

A square-free monomial is the sorted tuple of its factors (i, j), i <= j.
Basis ("forest" normal form): a monomial is basic when its off-diagonal
factors (a,b) with a < b have pairwise-distinct larger indices b.  Two
factors sharing a larger index c rewrite through

    g(a,c) g(b,c) = g(a,b) g(b,c) - g(a,b) g(a,c)      (a < b < c),

always eliminating the pair with maximal shared larger index, ties by
smaller a, which strictly decreases the multiset of larger indices and
hence terminates.  Coefficients of the rewrite are integers, so reduction
is computed over Z; the matrix that receives them reduces them into its
field.
"""

import itertools
from functools import lru_cache

_PAD = float("inf")


def basis_order(factors):
    """Flat sort key of a sorted factor tuple: the diagonal strands, a pad that
    puts them diagonal-heavy first ({1} < {2} < {}), then the factors, which
    meet no strand and between equal diagonals order as the off-diagonal ones."""
    return tuple([i for (i, j) in factors if i == j]) + (_PAD,) + factors


@lru_cache(maxsize=None)
def _reduce_cached(mono: tuple) -> tuple:
    """Normal form over Z of a sorted square-free factor tuple that is not
    basic, as a tuple of (factor tuple, int coefficient) pairs.

    One rewrite step takes the maximal shared larger index c and the two
    smallest a1 < a2 below it; both terms die, as squares, when (a1, a2) is
    a factor already, and a term that is not basic is reduced in turn.  No
    command enters this memo: a face of d1 writes its chain of steps in
    closed form (``sinha._face_words``).  It stays because the benchmark
    reads its counters, and the tests check it against the reference
    rewrite of ``tests/oracles.py``.
    """
    by_larger = {}
    for a, b in mono:
        if a != b:
            by_larger.setdefault(b, []).append(a)
    c = max(b for b, below in by_larger.items() if len(below) > 1)
    a1, a2 = sorted(by_larger[c])[:2]
    rest = [f for f in mono if f != (a1, c) and f != (a2, c)]
    out = {}
    if (a1, a2) not in rest:
        rest.append((a1, a2))
        for f, coeff in (((a2, c), 1), ((a1, c), -1)):
            sub = tuple(sorted(rest + [f]))
            larger = [b for a, b in sub if a != b]
            for m, k in ((sub, 1),) if len(larger) == len(set(larger)) else _reduce_cached(sub):
                out[m] = out.get(m, 0) + coeff * k
    return tuple((m, k) for m, k in out.items() if k)


def basis_monomials(l: int, k: int):
    """All basic monomials of degree 2k on l strands, as sorted factor tuples
    in ``basis_order``.

    The count is the coefficient of t^k in (1+t)^l * prod_{i<l} (1 + i*t).
    """
    out = []
    for d in range(0, min(k, l) + 1):
        e = k - d
        if e > max(l - 1, 0):
            continue
        for diag in itertools.combinations(range(1, l + 1), d):
            diag_pairs = [(x, x) for x in diag]
            for bs in itertools.combinations(range(2, l + 1), e):
                for as_ in itertools.product(*[range(1, b) for b in bs]):
                    out.append(tuple(sorted(diag_pairs + list(zip(as_, bs)))))
    out.sort(key=basis_order)
    return tuple(out)


def dim_Y(l: int, k: int) -> int:
    """Coefficient of t^k in (1+t)^l * prod_{i=1}^{l-1} (1 + i*t)."""
    poly = [1]
    for _ in range(l):
        poly = _poly_mul_linear(poly, 1)
    for i in range(1, l):
        poly = _poly_mul_linear(poly, i)
    return poly[k] if k < len(poly) else 0


def _poly_mul_linear(poly, a):
    """Multiply a coefficient list by (1 + a*t)."""
    out = poly + [0]
    for idx in range(len(poly), 0, -1):
        out[idx] += a * poly[idx - 1]
    return out
