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


def is_basic(factors) -> bool:
    """True when the off-diagonal factors of a factor tuple have pairwise-distinct
    larger indices, so that the product is its own normal form."""
    bs = [b for (a, b) in factors if a != b]
    return len(bs) == len(set(bs))


def basis_order(factors):
    """Flat sort key of a sorted factor tuple: the diagonal strands, a pad that
    puts them diagonal-heavy first ({1} < {2} < {}), then the factors, which
    meet no strand and between equal diagonals order as the off-diagonal ones."""
    return tuple([i for (i, j) in factors if i == j]) + (_PAD,) + factors


def _default_choice(by_larger):
    """Spec strategy: maximal shared larger index, then the two smallest a.
    ``by_larger`` maps each shared larger index to its smaller indices."""
    c = max(by_larger)
    a1, a2 = sorted(by_larger[c])[:2]
    return a1, a2, c


def _shared_larger(mono):
    by_larger = {}
    for (a, b) in mono:
        if a != b:
            by_larger.setdefault(b, []).append(a)
    return {b: al for b, al in by_larger.items() if len(al) >= 2}


def reduce_squarefree(mono: tuple) -> tuple:
    """Normal form over Z of a sorted square-free factor tuple, as a tuple of
    (factor tuple, int coefficient) pairs.  A basic monomial is returned as
    itself; only the others enter the rewrite memo."""
    if is_basic(mono):
        return ((mono, 1),)
    return _reduce_cached(mono)


@lru_cache(maxsize=None)
def _reduce_cached(mono: tuple) -> tuple:
    """One rewrite step of a non-basic monomial by ``_default_choice``, then
    ``reduce_squarefree`` on each resulting sorted factor tuple."""
    a1, a2, c = _default_choice(_shared_larger(mono))
    out = {}
    for sub, coeff in _rewrite_step(mono, a1, a2, c):
        for m, k in reduce_squarefree(sub):
            out[m] = out.get(m, 0) + coeff * k
    return tuple((m, k) for m, k in out.items() if k)


def _rewrite_step(mono, a1, a2, c):
    """Apply g(a1,c)g(a2,c) = g(a1,a2)g(a2,c) - g(a1,a2)g(a1,c) inside mono,
    as a tuple of (sorted factor tuple, sign) pairs.

    (a1, c) and (a2, c) are the factors taken out of mono, so neither is in
    the rest; both terms die, as squares, exactly when (a1, a2) is.
    """
    rest = list(mono)
    rest.remove((a1, c))
    rest.remove((a2, c))
    if (a1, a2) in rest:
        return ()
    rest.append((a1, a2))
    return (tuple(sorted(rest + [(a2, c)])), 1), (tuple(sorted(rest + [(a1, c)])), -1)


@lru_cache(maxsize=None)
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
