"""Independent oracles shared by the test suite.

These deliberately avoid the library's production paths: a textbook dense
Gaussian elimination and matrix product, the raw word-space presentation of the strand
algebra (all ordered words modulo the full relation span), the
inclusion-exclusion / degeneracy-image routes to normalized column
dimensions, and the two assembled matrices built literally (each
four-term slide canonicalised and validated as a perfect matching, one
``face_pullback`` per face).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from spectral_knots.chords import FOUR_TERM, _matchings
from spectral_knots.conf_algebra import AlgebraElement, Monomial, basis_monomials, dim_Y
from spectral_knots.linalg import Field, SparseMatrix
from spectral_knots.sinha import degeneracy_pullback, face_pullback, normalized_basis


def naive_rank(dense_rows, p=None) -> int:
    """Dense Gaussian elimination, first nonzero pivot, no cleverness."""
    if p is None:
        m = [[Fraction(x) for x in row] for row in dense_rows]
    else:
        m = [[x % p for x in row] for row in dense_rows]
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        if p is None:
            inv = 1 / m[rank][c]
            m[rank] = [v * inv for v in m[rank]]
        else:
            inv = pow(m[rank][c], -1, p)
            m[rank] = [v * inv % p for v in m[rank]]
        for i in range(rows):
            if i != rank and m[i][c]:
                f = m[i][c]
                if p is None:
                    m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
                else:
                    m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def dense_product(a_rows, b_rows, p=None):
    """Row-by-column product of two dense row lists, reduced mod p when given."""
    out = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b_rows)] for row in a_rows]
    return out if p is None else [[v % p for v in row] for row in out]


# ---------------------------------------------------------------------------
# word-space quotient: the strand algebra from its raw presentation


def word_space(l: int, k: int):
    """All degree-2k ordered words in the l-strand generators."""
    gens = [(i, j) for i in range(1, l + 1) for j in range(1, l + 1)]
    words = list(itertools.product(gens, repeat=k))
    return words, {w: i for i, w in enumerate(words)}


def word_relation_rows(l: int, k: int):
    """Full relation span: commutativity, antisymmetry, squares, Arnold."""
    words, index = word_space(l, k)
    gens = [(i, j) for i in range(1, l + 1) for j in range(1, l + 1)]
    rows = []

    def add(vec):
        row = {}
        for w, c in vec.items():
            row[index[w]] = row.get(index[w], 0) + c
        row = {i: c for i, c in row.items() if c}
        if row:
            rows.append(row)

    for w in words:
        for t in range(k - 1):
            swapped = w[:t] + (w[t + 1], w[t]) + w[t + 2:]
            if swapped != w:
                add({w: 1, swapped: -1})  # commutativity (even degrees)
            if w[t] == w[t + 1]:
                add({w: 1})  # squares
        for t in range(k):
            i, j = w[t]
            if i != j:
                flipped = w[:t] + ((j, i),) + w[t + 1:]
                add({w: 1, flipped: 1})  # antisymmetry

    contexts = list(itertools.product(gens, repeat=k - 2)) if k >= 2 else []
    for (a, b, c) in itertools.permutations(range(1, l + 1), 3):
        head = [((a, b), (b, c)), ((b, c), (c, a)), ((c, a), (a, b))]
        for ctx in contexts:
            add({h + ctx: 1 for h in head})
    return words, rows


def word_quotient_matrix(l: int, k: int, field: Field, extra_rows=()) -> SparseMatrix:
    words, rows = word_relation_rows(l, k)
    rows = list(rows) + list(extra_rows)
    entries = {(r, c): v for r, row in enumerate(rows) for c, v in row.items()}
    return SparseMatrix(len(rows), len(words), field, entries)


def word_quotient_dim(l: int, k: int, field: Field) -> int:
    m = word_quotient_matrix(l, k, field)
    return m.cols - m.rank()


def element_as_word_vector(elem_terms, l: int, k: int) -> dict:
    """Express a combination of square-free monomials as a word-space row."""
    _, index = word_space(l, k)
    row = {}
    for mono, coeff in elem_terms.items():
        word = tuple(sorted(mono.factors))
        row[index[word]] = row.get(index[word], 0) + coeff
    return {i: c for i, c in row.items() if c}


def in_relation_span(l: int, k: int, field: Field, extra_row: dict) -> bool:
    """True when adding ``extra_row`` does not grow the relation span."""
    base = word_quotient_matrix(l, k, field)
    extended = word_quotient_matrix(l, k, field, extra_rows=[extra_row])
    return extended.rank() == base.rank()


# ---------------------------------------------------------------------------
# normalized column dimension, two independent routes


def inclusion_exclusion_dim(l: int, k: int) -> int:
    return sum((-1) ** j * comb(l, j) * dim_Y(l - j, k) for j in range(l + 1))


def degeneracy_quotient_dim(l: int, k: int, field: Field) -> int:
    """dim of the full algebra modulo the span of all degeneracy images."""
    big = basis_monomials(l, k)
    index = {m: i for i, m in enumerate(big)}
    entries = {}
    r = 0
    for i in range(1, l + 1):
        for m in basis_monomials(l - 1, k):
            img = degeneracy_pullback(i, AlgebraElement({m: 1}, l - 1, field))
            for mono, coeff in img.terms.items():
                entries[(r, index[mono])] = coeff
            r += 1
    mat = SparseMatrix(r, len(big), field, entries)
    return len(big) - mat.rank()


# ---------------------------------------------------------------------------
# matrix assembly, built literally from the public objects


def slide_four_term_relations(n: int):
    """Four-term vectors by literal slides, as ``(kind, terms)`` with terms
    keyed by sorted pair tuples.

    Skeleton, distinguished chord and slot order as in
    ``chords.four_term_relations``.  Each slide is canonicalised to a sorted
    tuple of sorted pairs and must be a perfect matching of 1..2n; vectors
    are deduplicated on their sorted terms.
    """
    npts = 2 * n - 1
    seen = set()
    out = []
    for anchor in range(1, npts + 1):
        others = tuple(p for p in range(1, npts + 1) if p != anchor)
        for skeleton in _matchings(others):
            for (b1, b2) in skeleton:
                acc = {}
                for slot, sign in zip((b1 - 1, b1, b2 - 1, b2), (1, -1, 1, -1)):
                    shift = lambda p: p + 1 if p > slot else p
                    pairs = [(shift(a), shift(b)) for (a, b) in skeleton]
                    pairs.append((slot + 1, shift(anchor)))
                    d = tuple(sorted(tuple(sorted(p)) for p in pairs))
                    if sorted(x for p in d for x in p) != list(range(1, 2 * n + 1)):
                        raise ValueError(f"slide {d} is not a perfect matching of 1..{2 * n}")
                    acc[d] = acc.get(d, 0) + sign
                acc = {d: c for d, c in acc.items() if c}
                key = tuple(sorted(acc.items()))
                if acc and key not in seen:
                    seen.add(key)
                    out.append((FOUR_TERM, acc))
    return out


def face_sum_d1(l: int, k: int, field: Field) -> SparseMatrix:
    """The alternating sum of ``face_pullback`` on each normalized monomial,
    projected onto the normalized basis one column down."""
    src = normalized_basis(l, k)
    tgt = {Monomial(m, l - 1): r for r, m in enumerate(normalized_basis(l - 1, k))}
    entries = {}
    for c, mono in enumerate(src):
        x = AlgebraElement({Monomial(mono, l): 1}, l, field)
        img = AlgebraElement.zero(l - 1, field)
        for i in range(0, l + 1):
            term = face_pullback(i, x)
            img = img - term if i % 2 else img + term
        for m, coeff in img.terms.items():
            if m in tgt:
                entries[(tgt[m], c)] = coeff
    return SparseMatrix(len(tgt), len(src), field, entries)
