"""Independent oracles shared by the test suite.

These deliberately avoid the library's production paths: a textbook dense
Gaussian elimination and matrix product, the raw word-space presentation of the strand
algebra (all ordered words modulo the full relation span), the
inclusion-exclusion / degeneracy-image routes to normalized column
dimensions, and the two assembled matrices built literally (each
four-term slide canonicalised and validated as a perfect matching, the
one- and four-term rows over every diagram with no quotient taken first,
the four-term rows over the linear one-term quotient by a partner-word
walk over every anchor, the literal slides with the anchor at point 1
mapped to rotation orbits by least rotation, and every face a literal
relabel of the strands), and the reference rewrite to the forest normal
form, with the rewrite order a parameter.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from spectral_knots.chords import _matchings, enumerate_diagrams, one_term_relations
from spectral_knots.conf_algebra import basis_monomials, dim_Y
from spectral_knots.linalg import ConsistencyError, Field, SparseMatrix
from spectral_knots.sinha import normalized_basis


def is_basic(factors) -> bool:
    """True when the off-diagonal factors of a factor tuple have pairwise-distinct
    larger indices, so that the product is its own normal form."""
    bs = [b for (a, b) in factors if a != b]
    return len(bs) == len(set(bs))


def shared_larger(mono) -> dict:
    """{larger index: its smaller indices} for every larger index that two
    or more off-diagonal factors of ``mono`` share."""
    by_larger = {}
    for (a, b) in mono:
        if a != b:
            by_larger.setdefault(b, []).append(a)
    return {b: al for b, al in by_larger.items() if len(al) >= 2}


def default_choice(shared):
    """The package's rewrite order: maximal shared larger index, then the
    two smallest smaller indices below it."""
    c = max(shared)
    a1, a2 = sorted(shared[c])[:2]
    return a1, a2, c


def rewrite_step(mono, a1, a2, c):
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


def reduce_squarefree(mono: tuple, choose=default_choice) -> tuple:
    """Normal form over Z of a sorted square-free factor tuple, as a tuple
    of (factor tuple, nonzero int) pairs, rewriting by ``choose`` (shared
    larger indices -> (a1, a2, c)) until every term is basic."""
    if is_basic(mono):
        return ((mono, 1),)
    out = {}
    for sub, coeff in rewrite_step(mono, *choose(shared_larger(mono))):
        for m, k in reduce_squarefree(sub, choose):
            out[m] = out.get(m, 0) + coeff * k
    return tuple((m, k) for m, k in out.items() if k)


def face(i: int, l: int, mono: tuple) -> dict:
    """Inner face i of a factor tuple on l strands, as {factor tuple:
    nonzero int}: the literal relabel s -> s - (s > i), zero on a repeated
    factor, reduced by ``reduce_squarefree``."""
    pairs = [(a - (a > i), b - (b > i)) for (a, b) in mono]
    if len(set(pairs)) < len(pairs):
        return {}
    return dict(reduce_squarefree(tuple(sorted(pairs))))


def from_entries(rows: int, cols: int, field: Field, entries: dict) -> SparseMatrix:
    """The matrix of a {(row, col): value} dict, regrouped into the column
    dicts its constructor takes."""
    columns = [{} for _ in range(cols)]
    for (r, c), v in entries.items():
        if not 0 <= c < cols:
            raise IndexError(f"column {c} outside {rows}x{cols}")
        columns[c][r] = v
    return SparseMatrix(rows, cols, field, columns)


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
    return from_entries(len(rows), len(words), field, entries)


def word_quotient_dim(l: int, k: int, field: Field) -> int:
    m = word_quotient_matrix(l, k, field)
    return m.cols - m.rank()


def element_as_word_vector(elem_terms, l: int, k: int) -> dict:
    """Express a combination {factor tuple: coefficient} of square-free
    monomials as a word-space row."""
    _, index = word_space(l, k)
    row = {}
    for mono, coeff in elem_terms.items():
        word = tuple(sorted(mono))
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
            # the codegeneracy forgetting strand i relabels 1..l-1 into 1..l, skipping i
            entries[(r, index[tuple(sorted((a + (a >= i), b + (b >= i)) for (a, b) in m))])] = 1
            r += 1
    mat = from_entries(r, len(big), field, entries)
    return len(big) - mat.rank()


# ---------------------------------------------------------------------------
# matrix assembly, built literally from the public objects


def literal_slides(n: int):
    """Every (skeleton, four-term vector) pair by literal slides, the vector
    a terms dict keyed by sorted pair tuples, cancelled terms dropped, so
    possibly empty.

    Skeleton, distinguished chord and slot order as in
    ``chords.four_term_relations``.  Each slide is canonicalised to a sorted
    tuple of sorted pairs and must be a perfect matching of 1..2n.
    """
    npts = 2 * n - 1
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
                yield skeleton, {d: c for d, c in acc.items() if c}


def slide_four_term_relations(n: int):
    """The nonzero vectors of ``literal_slides(n)`` in their order,
    deduplicated on their sorted terms."""
    seen = set()
    out = []
    for _, acc in literal_slides(n):
        key = tuple(sorted(acc.items()))
        if acc and key not in seen:
            seen.add(key)
            out.append(acc)
    return out


def isolated(diagram) -> bool:
    """True when the diagram has a chord (a, a+1), which the one-term
    relation kills."""
    return any(b == a + 1 for (a, b) in diagram)


def quotient_slide_rows(n: int):
    """``slide_four_term_relations(n)`` over the one-term quotient: each
    vector as its (column, coefficient) pairs, a column being a diagram's
    rank among the diagrams with no isolated chord, and empty rows dropped."""
    column = {d: j for j, d in enumerate(d for d in enumerate_diagrams(n) if not isolated(d))}
    rows = ([(column[d], c) for d, c in terms.items() if d in column] for terms in slide_four_term_relations(n))
    return [row for row in rows if row]


def partner_word(diagram) -> bytes:
    """Partner word of a linear diagram: byte p is the partner of position
    p, both counted from 0, so each diagram has exactly one word."""
    w = bytearray(2 * len(diagram))
    for a, b in diagram:
        w[a - 1], w[b - 1] = b - 1, a - 1
    return bytes(w)


def linear_four_term_relations(n: int):
    """The four-term vectors over the linear one-term quotient, as terms
    dicts {column: coefficient}: a column is a diagram's rank among the
    diagrams not in ``one_term_relations(n)``, in enumeration order.

    Every anchor of 1..2n-1 is walked.  The matchings of 2n-2 points are
    placed around each anchor as skeletons; a skeleton with a chord
    (a, a+1) is skipped, since none of its terms survives the quotient, and
    each other skeleton's 2n slides are one walk of the moving endpoint's
    partner word, looked up in an index of the enumerated basis.  Terms on
    killed diagrams are dropped, and so is a vector left empty.
    """
    killed = set(one_term_relations(n))
    kept = itertools.count()
    # partner word -> column, -1 for a diagram the one-term relations kill
    index = {partner_word(d): -1 if i in killed else next(kept) for i, d in enumerate(enumerate_diagrams(n))}
    npts = 2 * n - 1
    # each base with at most one chord (a, a+1), and the one anchor that
    # splits that chord (0: any anchor)
    bases = []
    for base in _matchings(tuple(range(1, npts))):
        adjacent = [b for (a, b) in base if b == a + 1]
        if len(adjacent) < 2:
            bases.append((base, adjacent[0] if adjacent else 0))
    out = []
    for anchor in range(1, npts + 1):
        for base, split in bases:
            if split and split != anchor:
                continue
            skeleton = [(a + (a >= anchor), b + (b >= anchor)) for (a, b) in base]
            # slot 0: the moving endpoint at position 0, skeleton point p at p
            w = bytearray(npts + 1)
            w[0], w[anchor] = anchor, 0
            for a, b in skeleton:
                w[a], w[b] = b, a
            key = bytes(w)
            slides = [key]
            for s in range(1, npts + 1):
                x, y = w[s - 1], w[s]
                # passing its own anchor leaves the same diagram
                if x != s:
                    w[s - 1], w[y], w[s], w[x] = y, s - 1, x, s
                    key = bytes(w)
                slides.append(key)
            at = list(map(index.get, slides))
            if None in at:
                word = list(slides[at.index(None)])
                raise ConsistencyError(f"slide with partner word {word} is not a diagram with {n} chords")
            for (b1, b2) in skeleton:
                acc = {}
                for slot, sign in ((b1 - 1, 1), (b1, -1), (b2 - 1, 1), (b2, -1)):
                    acc[at[slot]] = acc.get(at[slot], 0) + sign
                terms = {j: c for j, c in acc.items() if c and j >= 0}
                if terms:
                    out.append(terms)
    return out


def linear_relation_matrix(n: int, field: Field) -> SparseMatrix:
    """``linear_four_term_relations(n)`` as rows over the diagrams not in
    ``one_term_relations(n)``; ``cols - rank`` is dim_A(n)."""
    rows = linear_four_term_relations(n)
    cols = len(enumerate_diagrams(n)) - len(one_term_relations(n))
    return from_entries(len(rows), cols, field, {(r, j): c for r, terms in enumerate(rows) for j, c in terms.items()})


def cyclically_isolated(diagram) -> bool:
    """True when the closed diagram has a chord (a, a+1 mod 2n): a chord
    (a, a+1) or the closing chord (1, 2n)."""
    return isolated(diagram) or (1, 2 * len(diagram)) in diagram


def least_rotation(diagram) -> tuple:
    """The least sorted pair tuple among the rotations p -> p + r mod 2n of
    a diagram on the points 1..2n."""
    m = 2 * len(diagram)
    turn = lambda p, r: (p - 1 + r) % m + 1
    return min(tuple(sorted(tuple(sorted((turn(a, r), turn(b, r)))) for (a, b) in diagram)) for r in range(m or 1))


def orbit_columns(n: int) -> dict:
    """least rotation -> column for the diagrams that are not cyclically
    isolated, numbered in enumeration order of each orbit's first member."""
    column = {}
    for d in enumerate_diagrams(n):
        if not cyclically_isolated(d):
            column.setdefault(least_rotation(d), len(column))
    return column


def orbit_slide_rows(n: int):
    """The vectors of ``literal_slides(n)`` with the anchor at point 1, in
    their order, each as {orbit column: coefficient}: terms that are
    cyclically isolated dropped, the others added per orbit, zeros and
    empty rows dropped."""
    column = orbit_columns(n)
    out = []
    for skeleton, terms in literal_slides(n):
        if any(1 in chord for chord in skeleton):
            continue
        row = {}
        for d, c in terms.items():
            if not cyclically_isolated(d):
                j = column[least_rotation(d)]
                row[j] = row.get(j, 0) + c
        row = {j: c for j, c in row.items() if c}
        if row:
            out.append(row)
    return out


def literal_relations(n: int):
    """The one- and four-term relations over every diagram, as dicts
    {diagram index: coefficient}: one row for each diagram with an isolated
    chord, then the literal four-term vectors."""
    diagrams = enumerate_diagrams(n)
    index = {d: i for i, d in enumerate(diagrams)}
    rels = [{i: 1} for i, d in enumerate(diagrams) if isolated(d)]
    rels += [{index[d]: c for d, c in terms.items()} for terms in slide_four_term_relations(n)]
    return rels


def unquotiented_relation_matrix(n: int, field: Field, rels=None) -> SparseMatrix:
    """Relations, each a dict {diagram index: coefficient}, stacked as rows
    over all (2n-1)!! diagrams; by default ``literal_relations(n)``, the
    relation matrix before the one-term quotient."""
    if rels is None:
        rels = literal_relations(n)
    entries = {(r, i): c for r, terms in enumerate(rels) for i, c in terms.items()}
    return from_entries(len(rels), len(enumerate_diagrams(n)), field, entries)


def dense_rows(m: SparseMatrix):
    """Integer dense rows of a matrix whose entries are integers."""
    out = [[0] * m.cols for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        out[r][c] = int(v)
    return out


def face_sum_d1(l: int, k: int, field: Field) -> SparseMatrix:
    """The alternating sum of the faces 0..l on each normalized monomial,
    projected onto the normalized basis one column down.

    Face i relabels the strands literally: an inner face sends s to
    s - (s > i), merging i and i + 1; face 0 deletes strand 1 and face l
    strand l, and a factor on a deleted strand, or a repeated factor, makes
    the term vanish.  The relabelled factors are reduced by
    ``reduce_squarefree``.
    """
    src = normalized_basis(l, k)
    tgt = {m: r for r, m in enumerate(normalized_basis(l - 1, k))}
    entries = {}
    for c, mono in enumerate(src):
        img = {}
        for i in range(0, l + 1):
            if i == 0:
                relabel = {s: s - 1 for s in range(2, l + 1)}
            elif i == l:
                relabel = {s: s for s in range(1, l)}
            else:
                relabel = {s: s - (s > i) for s in range(1, l + 1)}
            if any(s not in relabel for p in mono for s in p):
                continue
            pairs = [(relabel[a], relabel[b]) for (a, b) in mono]
            if len(set(pairs)) < len(pairs):
                continue
            for m, coeff in reduce_squarefree(tuple(sorted(pairs))):
                img[m] = img.get(m, 0) + (-1) ** i * coeff
        for m, coeff in img.items():
            if m in tgt:
                entries[(tgt[m], c)] = coeff
    return from_entries(len(tgt), len(src), field, entries)


def face_sum(l: int, mono: tuple) -> dict:
    """Alternating sum of the inner faces of a normalized monomial on l
    strands, as {factor tuple: nonzero int}, each taken by ``face``."""
    acc = {}
    for i in range(1, l):
        sign = -1 if i % 2 else 1
        for m, ic in face(i, l, mono).items():
            acc[m] = acc.get(m, 0) + sign * ic
    return {m: c for m, c in acc.items() if c}


def face_monomial_d1(l: int, k: int, field: Field) -> SparseMatrix:
    """d1 from column l to column l - 1 with one ``face_sum`` per source,
    each term looked up by its factor tuple in the target basis."""
    src, tgt = normalized_basis(l, k), {m: r for r, m in enumerate(normalized_basis(l - 1, k))}
    entries = {(tgt[m], c): v for c, mono in enumerate(src) for m, v in face_sum(l, mono).items()}
    return from_entries(len(tgt), len(src), field, entries)
