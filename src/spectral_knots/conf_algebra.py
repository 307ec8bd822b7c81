"""The graded commutative algebra of strand-separation classes.

On l strands the algebra is generated by degree-2 classes g(i,j) for
1 <= i <= j <= l, where g(i,i) is the tangent-sphere class of strand i.
Relations: g(j,i) = -g(i,j) for i != j, every square vanishes, and the
Arnold relation g(i,j)g(j,k) + g(j,k)g(k,i) + g(k,i)g(i,j) = 0 for
pairwise-distinct i, j, k.  All generators have even degree, so the
algebra is strictly commutative.

Basis ("forest" normal form): a monomial is basic when its off-diagonal
factors (a,b) with a < b have pairwise-distinct larger indices b.  Two
factors sharing a larger index c rewrite through

    g(a,c) g(b,c) = g(a,b) g(b,c) - g(a,b) g(a,c)      (a < b < c),

always eliminating the pair with maximal shared larger index, ties by
smaller a, which strictly decreases the multiset of larger indices and
hence terminates.  Coefficients of the rewrite are integers, so reduction
is computed over Z and coerced into the requested field at the end.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .linalg import Field, ShapeError

_PAD = float("inf")


def canonical_pair(i: int, j: int):
    """Sort a generator index pair; swapping off-diagonal indices costs a sign."""
    if i > j:
        return (j, i), -1
    return (i, j), 1


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


class Monomial:
    """Square-free product of generators on a fixed number of strands.

    ``factors`` is a sorted tuple of canonical pairs (i, j) with i <= j.
    """

    __slots__ = ("factors", "strands")

    def __init__(self, factors, strands: int):
        factors = tuple(sorted(factors))
        for (i, j) in factors:
            if not (1 <= i <= j <= strands):
                raise ValueError(f"factor {(i, j)} out of range on {strands} strands")
        if len(set(factors)) != len(factors):
            raise ValueError("repeated factor in a square-free monomial")
        self.factors = factors
        self.strands = strands

    def support(self) -> frozenset:
        return frozenset(x for p in self.factors for x in p)

    def is_basic(self) -> bool:
        return is_basic(self.factors)

    def __eq__(self, other):
        return (
            isinstance(other, Monomial)
            and self.factors == other.factors
            and self.strands == other.strands
        )

    def __hash__(self):
        return hash((self.factors, self.strands))

    def __repr__(self):
        if not self.factors:
            return "1"
        return "*".join(f"g({i},{j})" for (i, j) in self.factors)


class AlgebraElement:
    """Linear combination of basic monomials over a field."""

    __slots__ = ("terms", "strands", "field")

    def __init__(self, terms, strands: int, field: Field):
        clean = {}
        for mono, coeff in terms.items():
            coeff = field.coerce(coeff)
            if coeff != 0:
                if mono.strands != strands:
                    raise ShapeError("monomial on wrong strand count")
                clean[mono] = coeff
        self.terms = clean
        self.strands = strands
        self.field = field

    @classmethod
    def zero(cls, strands: int, field: Field) -> "AlgebraElement":
        return cls({}, strands, field)

    @classmethod
    def unit(cls, strands: int, field: Field) -> "AlgebraElement":
        return cls({Monomial((), strands): 1}, strands, field)

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other):
        if self.strands != other.strands:
            raise ShapeError("mismatched strand counts")
        if self.field != other.field:
            raise ShapeError("mismatched fields")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, 0) + c
        return AlgebraElement(acc, self.strands, self.field)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement({m: -c for m, c in self.terms.items()}, self.strands, self.field)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        acc = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c = c1 * c2
                for mono, icoeff in _reduce_product(m1.factors + m2.factors).items():
                    key = Monomial(mono, self.strands)
                    acc[key] = acc.get(key, 0) + c * icoeff
        return AlgebraElement(acc, self.strands, self.field)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.strands == other.strands
            and self.field == other.field
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = [f"{c!s}*{m!r}" for m, c in sorted(self.terms.items(), key=lambda t: basis_order(t[0].factors))]
        return " + ".join(parts)


def _default_choice(by_larger):
    """Spec strategy: maximal shared larger index, then the two smallest a."""
    c = max(b for b, al in by_larger.items() if len(al) >= 2)
    a1, a2 = sorted(by_larger[c])[:2]
    return a1, a2, c


def _shared_larger(mono):
    by_larger = {}
    for (a, b) in mono:
        if a != b:
            by_larger.setdefault(b, []).append(a)
    return {b: al for b, al in by_larger.items() if len(al) >= 2}


def reduce_squarefree(mono, choose=None) -> dict:
    """Reduce a square-free canonical monomial to the forest basis over Z.

    ``mono`` is an iterable of distinct canonical (i, j) pairs; the result maps
    sorted factor tuples to int coefficients.  ``choose`` overrides the rewrite-pair
    strategy (used to exercise confluence); the default strategy is cached.
    """
    mono = tuple(sorted(mono))
    if choose is None:
        return dict(_reduce_default(mono))

    def recurse(sub):
        return _reduce(sub, choose, recurse)

    return dict(recurse(mono))


def _reduce_default(mono: tuple):
    """Normal form of a sorted square-free factor tuple by the default strategy,
    as a tuple of (factor tuple, int coefficient) pairs.  A basic monomial is
    returned as itself; only the others enter the rewrite memo."""
    if is_basic(mono):
        return ((mono, 1),)
    return _reduce_cached(mono)


@lru_cache(maxsize=None)
def _reduce_cached(mono: tuple):
    return _reduce(mono, _default_choice, _reduce_default)


def _reduce(mono: tuple, choose, recurse):
    """One rewrite step by ``choose``, then ``recurse`` on each resulting sorted factor tuple."""
    shared = _shared_larger(mono)
    if not shared:
        return ((mono, 1),)
    a1, a2, c = choose(shared)
    out = {}
    for sub, coeff in _rewrite_step(mono, a1, a2, c):
        for m, k in recurse(sub):
            out[m] = out.get(m, 0) + coeff * k
    return tuple((m, k) for m, k in out.items() if k)


def _rewrite_step(mono, a1, a2, c):
    """Apply g(a1,c)g(a2,c) = g(a1,a2)g(a2,c) - g(a1,a2)g(a1,c) inside mono."""
    rest = tuple(p for p in mono if p != (a1, c) and p != (a2, c))
    for repl, sign in (((a1, a2), (a2, c)), 1), (((a1, a2), (a1, c)), -1):
        if any(p in rest for p in repl):
            continue  # recreated an existing factor: square, term dies
        yield tuple(sorted(rest + repl)), sign


def _reduce_product(raw_pairs, choose=None) -> dict:
    """Canonicalize raw (i, j) pairs, kill squares, reduce.  Integer output."""
    sign = 1
    canon = []
    for (i, j) in raw_pairs:
        p, s = canonical_pair(i, j)
        sign *= s
        canon.append(p)
    if len(set(canon)) != len(canon):
        return {}
    out = reduce_squarefree(canon, choose)
    return {m: sign * c for m, c in out.items()}


def normal_form(factors, strands: int, field: Field, choose=None) -> AlgebraElement:
    """Normal form of a product of generators, given as raw (i, j) pairs.

    Accepts a Monomial or any iterable of index pairs; pairs may be
    unordered (antisymmetry sign applied) or repeated (then the result
    is zero).
    """
    raw = factors.factors if isinstance(factors, Monomial) else list(factors)
    for (i, j) in raw:
        if not (1 <= i <= strands and 1 <= j <= strands):
            raise ValueError(f"index pair {(i, j)} out of range on {strands} strands")
    reduced = _reduce_product(raw, choose)
    return AlgebraElement({Monomial(m, strands): c for m, c in reduced.items()}, strands, field)


@lru_cache(maxsize=None)
def basis_monomials(l: int, k: int):
    """All basic monomials of degree 2k on l strands, deterministically ordered.

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
                    out.append(Monomial(diag_pairs + list(zip(as_, bs)), l))
    out.sort(key=lambda m: basis_order(m.factors))
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
