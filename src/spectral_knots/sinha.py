"""Column complexes and page tables of the truncated knot spectral sequence.

The cohomology rings of the compactified configuration spaces assemble
into a simplicial graded algebra; its normalization has one column per
cardinality l, spanned by basic monomials in which every strand occurs.
The column differential is the alternating sum of face maps.  Homology of
the columns gives the second-page dimension table; the standard degree
shift relabels it as the first page of the discriminant-side sequence.

A monomial is its strand word, one byte per strand (``_word``), from basis
to matrix.  Each normalized column is enumerated once, by one depth-first
search that writes its strand words in ``basis_order`` (``_basis_words``,
a pure memo of (l, k)); ``normalized_basis`` decodes them into sorted
factor tuples for library callers.  One walk, ``_face_words``, writes the
whole alternating face sum of every Sinha complex in closed form, a chain
of Arnold steps included, each term straight into its row: the columns of
``d1_matrix``, the kept perfect matchings of the diagonal entry, and the
labelled blocks of the expanded complex of ``kan_unit_check``.  No face
goes through the rewrite memo.  Face map conventions (validated by
d1*d1 = 0 and by the chord-diagram cross-check, see tests):

* inner face i (1 <= i <= l-1): relabel strands along the surjection
  {1..l} -> {1..l-1} shrinking {i, i+1}; a factor g(i, i+1) becomes the
  tangent class g(i, i).
* outer faces i = 0 and i = l: the boundary strand is deleted; any factor
  touching it pulls back to zero.  On normalized columns the outer faces
  therefore vanish identically: d1 and the diagonal entry give the walk no
  index for them, and a source missing strand 1 or l raises.
"""

import itertools
from collections import defaultdict
from functools import lru_cache
from math import comb

from .conf_algebra import basis_monomials, dim_Y
from .linalg import CAPACITY_LIMIT, CapacityError, ConsistencyError, Field, SparseMatrix, homology_dim


def normalized_dim_formula(l: int, k: int) -> int:
    """Normalized column dimension by inclusion-exclusion over missing strands."""
    return sum((-1) ** j * comb(l, j) * dim_Y(l - j, k) for j in range(l + 1))


def normalized_basis(l: int, k: int) -> tuple:
    """Basic monomials of degree 2k on l strands in which every strand occurs,
    as sorted factor tuples in ``basis_order``: the strand words of
    ``_basis_words(l, k)`` decoded, in their order.

    These span the l-th normalized column: monomials missing a strand are
    exactly the degeneracy images.
    """
    return tuple(map(_monomial, _basis_words(l, k)))


@lru_cache(maxsize=None)
def _basis_words(l: int, k: int) -> tuple:
    """Strand words (``_word``) of the basic monomials of degree 2k on l
    strands in which every strand occurs, in ``basis_order``: each normalized
    column enumerated once, by one depth-first search writing one word in
    place.

    The search first takes the tangent classes, strand 1's, then strand 2's
    and so on, each on before off, which gives the sets of diagonal strands
    in ``basis_order``.  Then it takes the k - d forest edges (a, b), a < b,
    in ascending order with distinct ends b, pruned once a has passed a
    strand no factor covers (no later edge can reach it), or once the
    uncovered strands are more than twice the edges left, and writes a word
    when no edge is left.  Within one set of diagonals every edge list has
    the same length, and the factor tuples compare as their edge lists do,
    so the words come out in ``basis_order`` with no sort.  The order is
    that of d1's rows and columns, and the ranks depend on it: in sorted-byte
    order the F_2 page through k = 6 takes two to three times as long.
    """
    if l == 0:
        return (b"",) if k == 0 else ()
    # d diagonals and k - d edges, at most l - 1, covering the l - d other strands
    dmin, dmax = max(0, k - l + 1), min(k, l, 2 * k - l)
    out = []
    emit = out.append
    w = bytearray(l)  # a byte over 1 holds a smaller neighbour: that strand ends an edge
    cover = [0] * (l + 2)  # factors touching each strand; cover[l + 1] stays 0 and ends every scan

    def edges(a0, b0, left, unc):
        # strands below a0 are covered, and every strand once no edge is left;
        # the next edge is at least (a0, b0)
        if not left:
            return emit(bytes(w))
        m = a0
        while cover[m]:
            m += 1
        rest = 2 * (left - 1)
        for a in range(a0, min(m, l - 1) + 1):
            fa = not cover[a]
            cover[a] += 1
            for b in range(b0 if a == a0 else a + 1, l + 1):
                u = unc - fa - (not cover[b])
                if w[b - 1] > 1 or u > rest:
                    continue
                cover[b] += 1
                w[b - 1] += 2 * a
                edges(a, b + 1, left - 1, u)
                w[b - 1] -= 2 * a
                cover[b] -= 1
            cover[a] -= 1

    def diagonals(s, d):
        # the tangent classes of strands 1..s-1 are set, d of them on
        if s > l:
            if l - d <= 2 * (k - d):
                edges(1, 2, k - d, l - d)
            return
        if d < dmax:
            w[s - 1] = cover[s] = 1
            diagonals(s + 1, d + 1)
            w[s - 1] = cover[s] = 0
        if d + l - s >= dmin:
            diagonals(s + 1, d)

    if dmin <= dmax:
        diagonals(1, 0)
    return tuple(out)


_BYTES = tuple(bytes((v,)) for v in range(256))
# _SHRINK[i] relabels the bytes of a strand word when strands i and i+1
# merge (i = 0: when strand 1 is deleted): a neighbour n > i becomes n - 1.
# 128 tables cover every word whose neighbours fit a byte; slicing one
# identity table builds them ten times faster at import than ranges do
_IDENTITY = bytes(range(256))
_SHRINK = tuple(_IDENTITY[:2 * i + 2] + _IDENTITY[2 * i:254] for i in range(128))


def _word(mono: tuple, l: int) -> bytes:
    """Strand word of a basic factor tuple on l strands: byte v - 1 is
    2 * (the smaller neighbour of strand v, 0 if none) + (1 if g(v, v) is a
    factor).  On basic monomials this is a bijection.  Neighbours up to 127
    fit a byte; a normalized monomial on 128 strands has 64 factors, and its
    column is far past the capacity limit."""
    w = bytearray(l)
    for a, b in mono:
        w[b - 1] += 1 if a == b else 2 * a
    return bytes(w)


def _monomial(word: bytes) -> tuple:
    """Sorted factor tuple of a strand word, the inverse of ``_word``."""
    return tuple(sorted([(x >> 1, v) for v, x in enumerate(word, 1) if x > 1] +
                        [(v, v) for v, x in enumerate(word, 1) if x & 1]))


def _face_words(l: int, words, rows):
    """Alternating face sums, faces 0..l, of basic monomials on l strands,
    given by their strand words, one {row: int} per word in turn: the one
    face walk of every Sinha complex.  Face i looks each term up in
    ``rows[i]`` ({strand word on l - 1 strands: row}, which may number a word
    on its first lookup) as it writes it; a sum that cancels stays as a 0.
    ``d1_matrix`` and ``_kept_face_matrix`` pass one index for every inner
    face and ``None`` for the outer ones, ``_expanded_column_homology`` the
    block of each face's label.

    Face 0 deletes strand 1 and face l strand l.  Each vanishes where that
    strand occurs; otherwise face 0 drops byte 0 and lowers every neighbour
    by one, and face l drops the last byte, with sign (-1)^l.  An index of
    ``None`` says the face must vanish, and a nonzero one raises
    ``ConsistencyError``.

    Inner face i keeps the bytes of strands 1..i-1, merges those of i and
    i+1 into one, and relabels every later neighbour n as n - (n > i), one
    ``translate`` of the tail.  With n_i, n_j the smaller neighbours of i
    and i+1, the merged strand is a tangent class if n_j = i, and the face
    vanishes on a square: both tangent classes, or one of them with n_j = i,
    or n_i = n_j.  A single neighbour carries over.  Two neighbours lo < hi
    of a strand s take an Arnold step, +(s to hi) - (s to lo), and hi gains
    the neighbour lo: every term vanishes if lo already is hi's neighbour,
    and if hi has another one, hi now has two and the chain steps on to it.
    The strands of a chain decrease and both terms of a step share what
    follows, so a chain of T steps writes 2^T words; they are visited in
    Gray-code order, one byte flipped and the sign turned per word.  No face
    goes through the rewrite memo: the result is the normal form, which does
    not depend on the order of rewriting.  A term missing from its index
    raises ``ConsistencyError``.
    """
    for w in words:
        acc = {}
        try:
            for i in (0, l):
                # strand 1 occurs as a tangent class or as a smaller neighbour
                # (bytes 2 and 3); strand l is nobody's smaller neighbour
                if (w[-1] if i else w[0] or 2 in w or 3 in w):
                    continue
                if rows[i] is None:
                    raise ConsistencyError(f"normalized monomial {_monomial(w)!r} misses strand 1 or {l}: "
                                           "an outer face is nonzero")
                r = rows[i][w[:-1] if i else w[1:].translate(_SHRINK[0])]
                acc[r] = acc.get(r, 0) + (-1) ** i
            for i in range(1, l):
                x, y = w[i - 1], w[i]
                ni, nj = x >> 1, y >> 1
                sign = -1 if i % 2 else 1
                if nj == i:
                    if (x | y) & 1:
                        continue
                    merged = x | 1
                elif x & y & 1 or (ni and ni == nj):
                    continue
                elif not (ni and nj):
                    merged = x | y
                else:
                    # an Arnold chain: each step sets its + byte and keeps its xor to the - byte
                    word = bytearray(w[:i] + w[i + 1:].translate(_SHRINK[i]))
                    lo, hi = (ni, nj) if ni < nj else (nj, ni)
                    at, bit = i - 1, (x | y) & 1
                    flips = []
                    while True:
                        word[at] = 2 * hi + bit
                        flips.append((at, 2 * (hi ^ lo)))
                        z = word[hi - 1]
                        n = z >> 1
                        if not n or n == lo:
                            break
                        at, bit = hi - 1, z & 1
                        lo, hi = (lo, n) if lo < n else (n, lo)
                    if n:
                        continue
                    word[hi - 1] = 2 * lo + (z & 1)
                    target = rows[i]
                    for m in range(1 << len(flips)):
                        if m:
                            at, flip = flips[(m & -m).bit_length() - 1]
                            word[at] ^= flip
                            sign = -sign
                        r = target[bytes(word)]
                        acc[r] = acc.get(r, 0) + sign
                    continue
                r = rows[i][w[:i - 1] + _BYTES[merged] + w[i + 1:].translate(_SHRINK[i])]
                acc[r] = acc.get(r, 0) + sign
        except KeyError as exc:
            raise ConsistencyError(f"face image term {_monomial(exc.args[0])!r} of {_monomial(w)!r} "
                                   "is not in the target basis") from None
        yield acc


def d1_matrix(l: int, k: int, f: Field) -> SparseMatrix:
    """Matrix of the alternating face sum from column l to column l-1.

    Columns and rows are the strand words of ``_basis_words(l, k)`` and
    ``_basis_words(l-1, k)``, in ``basis_order``, so the bases are those of
    ``normalized_basis``; the faces are walked by ``_face_words``, each term
    written straight into its row, in closed form and never through the
    rewrite memo, and the outer faces, given no index, must vanish: a source
    missing strand 1 or l raises ``ConsistencyError``.  An inner face maps
    covered strands onto covered strands and the rewrite keeps each term's
    strands, so every term of the image lies in the target basis; a term
    outside it raises ``ConsistencyError``.
    """
    if l < 1:
        raise ValueError("d1 needs a positive column index")
    src = _basis_words(l, k)
    rows = {w: r for r, w in enumerate(_basis_words(l - 1, k))}
    return SparseMatrix(len(rows), len(src), f, list(_face_words(l, src, [None] + [rows] * (l - 1) + [None])))


def column_homology(n: int, k: int, f: Field) -> list:
    """Homology dimensions [h_0, ..., h_n] of the normalized column complex
    at degree 2k, truncated at n (column n+1 is zero, so h_n is a kernel
    dimension).  Columns above 2k must be empty.
    """
    ds = [d1_matrix(l, k, f) for l in range(1, n + 1)]
    for l in range(2 * k + 1, n + 1):
        if ds[l - 1].cols:
            raise ConsistencyError(f"column l={l} should be empty for k={k}")
    return homology_dim(ds)


def e2_page(n: int, k_max: int, f: Field) -> dict:
    """Second-page dimensions {(col, row): dim} of the n-truncated sequence,
    rows up to 2*k_max.

    Entry (-l, 2k) is the homology dimension of the normalized column
    complex at cardinality l; the truncation sets column n+1 to zero, so
    the top column reports a kernel dimension.
    """
    if n < 1:
        raise ValueError("truncation must be >= 1")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if n * (k_max + 1) > CAPACITY_LIMIT:
        raise CapacityError(f"table of {n} columns by {k_max + 1} rows exceeds capacity limit {CAPACITY_LIMIT}")
    # column l is empty unless l <= 2k (k factors cover at most 2k strands)
    # and k <= 2l - 1 (at most l - 1 edges and l diagonals), so only those
    # columns are estimated; column_homology checks the emptiness
    for l in range(1, n + 1):
        for k in range((l + 1) // 2, min(k_max, 2 * l - 1) + 1):
            if normalized_dim_formula(l, k) > CAPACITY_LIMIT:
                raise CapacityError(
                    f"column (l={l}, k={k}) exceeds capacity limit {CAPACITY_LIMIT}"
                )
    entries = {}
    for k in range(0, k_max + 1):
        # by the same count column l is empty for k >= 2n or l > 2k; only
        # columns up to 2k + 1 are built, so that emptiness is still checked
        hs = column_homology(min(n, 2 * k + 1), k, f) if k < 2 * n else []
        for l in range(1, n + 1):
            entries[(-l, 2 * k)] = hs[l] if l < len(hs) else 0
    return entries


def e2_diagonal(n_diag: int, f: Field) -> int:
    """Page entry at (-2*n_diag, 2*n_diag), computed without the full table.

    Above the diagonal the normalized column is empty (k factors cover at
    most 2k strands), so the entry is the same for every truncation
    >= 2*n_diag and is the kernel dimension of d1 on the diagonal column;
    the emptiness is checked, not assumed.

    The sources are the (2n-1)!! perfect matchings of 2n strands.  Inner
    face i of a source with a factor (i, i+1) has the basic term (i, i)
    plus the rest relabelled, coefficient +-1.  No other source hits that
    term: a tangent class (i, i) arises only by merging a factor (i, i+1),
    the rest then fixes the source, and the rewrite never makes a tangent
    class.  So each such source is the only nonzero of a target row of its
    own, adds 1 to the rank, and leaves the kernel alone.  What is ranked
    is d1 on the kept sources, those with no factor (i, i+1) (the columns
    of the one-term quotient of linear chord diagrams; the chord side ranks
    circular diagrams modulo rotation instead), in d1's orientation: one row
    per face term with a nonzero sum, numbered in strand-word order, and one
    column per kept source.  The entry is cols - rank.  The kept sources are
    enumerated directly, so neither the diagonal column (2n, n) nor the
    target column (2n-1, n) is enumerated, and their faces are walked by
    d1's ``_face_words``, off the rewrite memo.  A source with a factor
    (i, i+1) among the kept ones would break the argument and raises
    ``ConsistencyError``.  The capacity check refuses n_diag >= 8 at
    once, so every neighbour fits its byte of a strand word.
    """
    if n_diag < 1:
        raise ValueError("n_diag must be >= 1")
    l, k = 2 * n_diag, n_diag
    # the diagonal column holds the (2n-1)!! perfect matchings; counted degree
    # by degree, a huge n_diag is refused at the first count over the limit
    count = 1
    for i in range(1, n_diag + 1):
        count *= 2 * i - 1
        if count > CAPACITY_LIMIT:
            raise CapacityError(f"diagonal column (l={l}, k={k}) exceeds capacity limit {CAPACITY_LIMIT}")
    if normalized_basis(l + 1, k):
        raise ConsistencyError("normalized column above the diagonal must be empty")
    d = _kept_face_matrix(l, f)
    return d.cols - d.rank()


def _kept_matchings(l: int) -> list:
    """Perfect matchings of strands 1..l with no factor (i, i+1), as sorted
    factor tuples in tuple order, which is ``basis_order`` for monomials with
    no tangent class.  A depth-first search pairs the smallest free strand a
    with each larger free one but a + 1 in turn, so the tuples come out in
    order."""
    out = []

    def rec(prefix, free):
        if not free:
            out.append(prefix)
            return
        a = free[0]
        for j in range(1, len(free)):
            if free[j] != a + 1:
                rec(prefix + ((a, free[j]),), free[1:j] + free[j + 1:])

    rec((), tuple(range(1, l + 1)))
    return out


def _kept_face_matrix(l: int, f: Field) -> SparseMatrix:
    """d1 on the perfect matchings of l strands with no factor (i, i+1), in
    d1's orientation: one column per such source, enumerated by
    ``_kept_matchings`` and never through ``normalized_basis``, and one row
    per face term with a nonzero sum, numbered in strand-word order.  The
    columns are walked by ``_face_words``, which numbers each term's strand
    word on its first lookup; a term whose sums all cancel gets no row.  The
    outer faces, given no index, must vanish, as on d1.  A source with a
    factor (i, i+1) raises ``ConsistencyError``: its face i would be a
    tangent class, a row that only such a source may hit."""
    src = _kept_matchings(l)
    for m in src:
        if any(b == a + 1 for a, b in m):
            raise ConsistencyError(f"kept source {m!r} has a factor (i, i+1): one face is a tangent class")
    first = defaultdict(lambda: len(first))
    cols = list(_face_words(l, [_word(m, l) for m in src], [None] + [first] * (l - 1) + [None]))
    hit = {j for col in cols for j, v in col.items() if v}
    number = [0] * len(first)
    for r, (_, j) in enumerate(sorted((w, j) for w, j in first.items() if j in hit)):
        number[j] = r
    del first  # its default factory refers back to it: free it now, not at the next collection
    cols = [{number[j]: v for j, v in col.items() if v} for col in cols]
    return SparseMatrix(len(hit), len(cols), f, cols)


def vassiliev_e1_view(page: dict) -> dict:
    """Relabel a second-page table {(col, row): dim} through the standard
    degree shift.

    A table bidegree (col, row) = (q - 3p, 2p) maps to (-p, q), i.e.
    (-row/2, col + 3*row/2).  Any nonzero entry off that lattice (odd or
    negative row, positive column) is a consistency violation.
    """
    out = {}
    for (col, row), dim in page.items():
        on_lattice = row % 2 == 0 and row >= 0 and col <= 0
        if not on_lattice:
            if dim != 0:
                raise ConsistencyError(
                    f"nonzero entry {dim} at off-lattice bidegree ({col}, {row})"
                )
            continue
        half = row // 2
        out[(-half, col + 3 * half)] = dim
    return out


def kan_unit_check(n: int, k_max: int, f: Field) -> tuple:
    """Brute-force comparison of the expanded and plain normalized complexes.

    The expanded side has, in simplicial degree r, one full algebra summand
    per order-preserving injection [r] -> {1..n+1}; faces compose the label
    with a coface and apply the matching face of the monomial, its inner
    faces by d1's walk.  Both sides are empty for k > 2n - 1 (r <= n strands
    carry <= 2r - 1 factors).

    Returns (lhs, rhs), the total homology dimensions {2k - r: dim} of the
    expanded and of the plain side.  They must agree in every total degree,
    a degree missing from one side counting as 0 there.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 3:
        raise CapacityError("brute-force comparison is limited to n <= 3")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")

    lhs, rhs = {}, {}
    for k in range(0, min(k_max, 2 * n - 1) + 1):
        plain = column_homology(n, k, f)
        _accumulate(rhs, {l: h for l, h in enumerate(plain) if normalized_basis(l, k)}, k)
        _accumulate(lhs, _expanded_column_homology(n, k, f), k)
    return lhs, rhs


def _accumulate(dims, per_level, k):
    for level, h in per_level.items():
        t = 2 * k - level
        dims[t] = dims.get(t, 0) + h


def _expanded_column_homology(n: int, k: int, f: Field) -> dict:
    """Homology dimensions {r: h_r} of the expanded complex at degree 2k,
    its empty degrees left out.  Degree r holds one block of
    ``basis_monomials(r, k)`` per label, an (r+1)-subset of 1..n+1, numbered
    label by label.  Face i drops the label's i-th element and takes face i
    of the monomial: ``_face_words`` writes all r + 1 faces into the block of
    each face's label, the outer ones, which delete strand 1 or strand r,
    where that strand is missing."""
    words = [[_word(m, r) for m in basis_monomials(r, k)] for r in range(n + 1)]
    labels = [list(itertools.combinations(range(1, n + 2), r + 1)) for r in range(n + 1)]

    def dmat(r: int) -> SparseMatrix:
        size = len(words[r - 1])
        block = {lab: {w: t * size + j for j, w in enumerate(words[r - 1])} for t, lab in enumerate(labels[r - 1])}
        columns = []
        for lab in labels[r]:
            columns.extend(_face_words(r, words[r], [block[lab[:i] + lab[i + 1:]] for i in range(r + 1)]))
        return SparseMatrix(len(block) * size, len(columns), f, columns)

    hs = homology_dim([dmat(r) for r in range(1, n + 1)])
    return {r: h for r, h in enumerate(hs) if words[r]}
