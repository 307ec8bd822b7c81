"""Column complexes and page tables of the truncated knot spectral sequence.

The cohomology rings of the compactified configuration spaces assemble
into a simplicial graded algebra; its normalization has one column per
cardinality l, spanned by basic monomials in which every strand occurs.
The column differential is the alternating sum of face maps.  Homology of
the columns gives the second-page dimension table; the standard degree
shift relabels it as the first page of the discriminant-side sequence.

A monomial is its sorted factor tuple in the basis; a face map
(``_face_monomial``) sends one to a tuple of (factor tuple, int
coefficient) pairs, for the expanded complex of ``kan_unit_check``, whose
faces never need a rewrite.  ``d1_matrix`` walks the faces on strand words
instead, one byte per strand (``_word``), and writes each face down in
closed form, a chain of Arnold steps included, each term straight into
its row (``_face_words``): no face goes through the rewrite memo.  Nor
does the diagonal entry: its sources are perfect matchings, whose inner
faces ``_face_columns`` writes down in closed form on flat byte words.
Face map conventions
(validated by d1*d1 = 0 and by the chord-diagram cross-check, see tests):

* inner face i (1 <= i <= l-1): relabel strands along the surjection
  {1..l} -> {1..l-1} shrinking {i, i+1}; a factor g(i, i+1) becomes the
  tangent class g(i, i).
* outer faces i = 0 and i = l: the boundary strand is deleted; any factor
  touching it pulls back to zero.  On normalized columns the outer faces
  therefore vanish identically (checked by strand occurrence: each source
  of d1 must touch strands 1 and l).
"""

import itertools
from functools import lru_cache
from math import comb

from .conf_algebra import basis_monomials, basis_order, dim_Y
from .linalg import CAPACITY_LIMIT, CapacityError, ConsistencyError, Field, SparseMatrix, homology_dim


def _face_monomial(i: int, l: int, factors: tuple) -> tuple:
    """Face pullback of a basic sorted factor tuple, as a tuple of (factor
    tuple, int coefficient) pairs; () when it vanishes.

    The input must be basic: each strand then has at most one smaller
    neighbour, so one scan over the factors classifies an inner face.  An
    inner face whose image is not basic, where the shrunk strand gets two
    smaller neighbours, raises ``ValueError``: such an image needs four
    strands, and the expanded complex of ``kan_unit_check``, which this map
    serves, has at most three.  On a normalized column the outer faces
    i = 0 and i = l vanish, and ``_face_words`` never takes them.
    """
    if 1 <= i <= l - 1:
        # smaller neighbours (0: none) and tangent classes of strands i and i+1
        ni = nj = 0
        ti = tj = False
        for (a, b) in factors:
            if b == i:
                if a == i:
                    ti = True
                else:
                    ni = a
            elif b == i + 1:
                if a == b:
                    tj = True
                else:
                    nj = a
        # shrinking {i, i+1} to i squares g(a,i) when both neighbours are a,
        # and g(i,i) when two of g(i,i), g(i+1,i+1), g(i,i+1) are factors
        if (ni and ni == nj) or (ti and tj) or ((ti or tj) and nj == i):
            return ()
        # the only shared larger index the shrink can make is i itself
        if ni and nj and nj != i:
            raise ValueError(f"face {i} of {factors!r} is not basic: strand {i} gets two smaller neighbours")
        return ((tuple(sorted([(a - (a > i), b - (b > i)) for (a, b) in factors])), 1),)
    if i == 0:
        if any(a == 1 for (a, _) in factors):  # a <= b, so a == 1 covers b == 1
            return ()
        return ((tuple([(a - 1, b - 1) for (a, b) in factors]), 1),)  # still sorted, distinct and basic
    if i == l:
        return () if any(b == l for (_, b) in factors) else ((factors, 1),)
    raise ValueError(f"face index {i} out of range 0..{l}")


def normalized_dim_formula(l: int, k: int) -> int:
    """Normalized column dimension by inclusion-exclusion over missing strands."""
    return sum((-1) ** j * comb(l, j) * dim_Y(l - j, k) for j in range(l + 1))


@lru_cache(maxsize=None)
def normalized_basis(l: int, k: int) -> tuple:
    """Basic monomials of degree 2k on l strands in which every strand occurs,
    as sorted factor tuples in ``basis_order``.

    These span the l-th normalized column: monomials missing a strand are
    exactly the degeneracy images.  A search picks e forest edges (a, b),
    a < b, by distinct b descending, pruned once the edges still to come
    (two strands each) and the diagonals left cannot cover the strands 1..b
    still uncovered; the k - e diagonals take every uncovered strand and any
    choice of the covered ones.  Within one set of diagonal strands
    ``basis_order`` is plain tuple order, so the monomials are bucketed by
    that set, each bucket sorted without a key, and the buckets joined in
    ``basis_order``.
    """
    if l == 0:
        return ((),) if k == 0 else ()
    buckets = {}  # diagonal factors -> monomials
    covers = [0] * (l + 1)  # edges chosen so far touching each strand
    edges = []
    diagonal = [(x, x) for x in range(l + 1)]

    def rec(b, e_left, uncovered, diag_left):
        # uncovered: strands 1..b touching no edge; diag_left: diagonals not yet forced
        if uncovered - 2 * e_left > diag_left:
            return
        if e_left == 0:
            free = [diagonal[s] for s in range(1, l + 1) if not covers[s]]
            covered = [diagonal[s] for s in range(1, l + 1) if covers[s]]
            for extra in itertools.combinations(covered, diag_left - uncovered):
                diag = sorted(free + list(extra))
                buckets.setdefault(tuple(diag), []).append(tuple(sorted(diag + edges)))
            return
        if b < 2:
            return
        b_free = covers[b] == 0
        below = uncovered - b_free
        covers[b] += 1
        for a in range(1, b):
            a_free = covers[a] == 0
            covers[a] += 1
            edges.append((a, b))
            rec(b - 1, e_left - 1, below - a_free, diag_left)
            edges.pop()
            covers[a] -= 1
        covers[b] -= 1
        # skip b entirely: if b is still uncovered it now needs a diagonal
        if diag_left >= b_free:
            rec(b - 1, e_left, below, diag_left - b_free)

    # e forest edges (at most l - 1) and k - e diagonals (at most l)
    for e in range(max(0, k - l), min(k, l - 1) + 1):
        rec(l, e, l, k - e)
    for bucket in buckets.values():
        bucket.sort()
    # monomials with distinct diagonal strands differ in basis_order before the factors
    return tuple(itertools.chain.from_iterable(buckets[d] for d in sorted(buckets, key=basis_order)))


_BYTES = tuple(bytes((v,)) for v in range(256))


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


def _face_words(l: int, sources, words, rows: dict):
    """Alternating inner face sums of normalized monomials on l strands, one
    {row: int} per source in turn, each term looked up in ``rows`` ({strand
    word on l - 1 strands: row}) as it is written; a sum that cancels stays
    as a 0, which the matrix constructor drops.  ``words`` is the list of
    the strand words of ``sources``, in the same order.

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
    goes through the face map or the rewrite memo: the result is the normal
    form, which does not depend on the order of rewriting.  The outer faces
    vanish when strands 1 and l occur; a source missing either, or a term
    missing from ``rows``, raises ``ConsistencyError``.
    """
    shrink = [bytes(range(min(2 * i + 2, 256))) + bytes(range(2 * i, 254)) for i in range(l)]
    for mono, w in zip(sources, words):
        # the factors are sorted, so strand 1 occurs iff the first factor starts at 1
        if not w[-1] or mono[0][0] != 1:
            raise ConsistencyError(f"normalized monomial {mono!r} misses strand 1 or {l}: an outer face is nonzero")
        acc = {}
        try:
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
                    word = bytearray(w[:i] + w[i + 1:].translate(shrink[i]))
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
                    for m in range(1 << len(flips)):
                        if m:
                            at, flip = flips[(m & -m).bit_length() - 1]
                            word[at] ^= flip
                            sign = -sign
                        r = rows[bytes(word)]
                        acc[r] = acc.get(r, 0) + sign
                    continue
                r = rows[w[:i - 1] + _BYTES[merged] + w[i + 1:].translate(shrink[i])]
                acc[r] = acc.get(r, 0) + sign
        except KeyError as exc:
            term = tuple(sorted([(x >> 1, v) for v, x in enumerate(exc.args[0], 1) if x > 1] +
                                [(v, v) for v, x in enumerate(exc.args[0], 1) if x & 1]))
            raise ConsistencyError(f"face image term {term!r} of {mono!r} is not a normalized monomial") from None
        yield acc


def d1_matrix(l: int, k: int, f: Field) -> SparseMatrix:
    """Matrix of the alternating face sum from column l to column l-1.

    Bases are ``normalized_basis(l, k)`` (columns) and
    ``normalized_basis(l-1, k)`` (rows); the faces are walked by
    ``_face_words`` on strand words, each term written straight into its
    row, in closed form and never through the rewrite memo.  An inner face
    maps covered strands onto covered strands and the rewrite keeps each
    term's strands, so every term of the image lies in the target basis; a
    term outside it raises ``ConsistencyError``.
    """
    if l < 1:
        raise ValueError("d1 needs a positive column index")
    src = normalized_basis(l, k)
    rows = {_word(m, l - 1): r for r, m in enumerate(normalized_basis(l - 1, k))}
    return SparseMatrix(len(rows), len(src), f, list(_face_words(l, src, [_word(m, l) for m in src], rows)))


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
    per face term they hit, numbered in ``basis_order``, and one column per
    kept source.  The entry is cols - rank.  The kept sources are
    enumerated directly, so neither the diagonal column (2n, n) nor the
    target column (2n-1, n) is enumerated, and their faces are walked as
    byte words, off the face map and the rewrite memo.  A source with a
    factor (i, i+1) among the kept ones would break the argument and raises
    ``ConsistencyError``.  The capacity check refuses n_diag >= 8 at once,
    so every strand label fits in one byte of those words.
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
    per face term they hit.  The columns are ``_face_columns``, keyed by
    flat words of one length, whose byte order is ``basis_order`` on
    monomials with no tangent class; so the rows are numbered by a sort
    without a key.  Each term is held once, numbered as first hit and then
    renumbered, and none is held once the matrix is built."""
    first = {}
    cols = [{first.setdefault(w, len(first)): v for w, v in col.items()}
            for col in _face_columns(l, _kept_matchings(l))]
    number = [0] * len(first)
    for r, w in enumerate(sorted(first)):
        number[first[w]] = r
    cols = [{number[j]: v for j, v in col.items()} for col in cols]
    return SparseMatrix(len(number), len(cols), f, cols)


def _face_columns(l: int, sources):
    """Alternating inner face sums of perfect matchings of l strands with no
    factor (i, i+1), one {flat word: nonzero int} per source in turn.

    A flat word lists a sorted factor tuple's strands, one byte each.  With
    p and q the partners of strands i and i+1, inner face i maps each byte
    v to v - (v > i); if p > q > i the two pairs now opening at i swap.  If
    p, q < i (a = min, b = max), the one Arnold step gives +(a's pair
    becomes (a, b)) - (a's pair becomes (a, b), (a, i); b's pair goes),
    both basic.  A factor (i, i+1) raises ``ConsistencyError``: face i
    would be a tangent class.
    """
    shrink = [bytes(range(i + 1)) + bytes(range(i, 255)) for i in range(l)]
    partner, slot = [0] * (l + 1), [0] * (l + 1)  # slot: position of an opener's pair
    for src in sources:
        flat = bytes(itertools.chain(*src))
        for s, (a, b) in enumerate(src):
            partner[a], partner[b], slot[a] = b, a, 2 * s
        acc = {}
        for i in range(1, l):
            p, q = partner[i], partner[i + 1]
            sign = -1 if i % 2 else 1
            w = flat.translate(shrink[i])
            if p < i and q < i:
                a, b = (p, q) if p < q else (q, p)
                sa, sb = slot[a], slot[b]
                plus = w[:sa + 1] + bytes((b,)) + w[sa + 2:]
                w = w[:sa] + bytes((a, b)) + w[sa:sb] + w[sb + 2:]
                acc[plus] = acc.get(plus, 0) + sign
                sign = -sign
            elif p > q > i:
                s = slot[i]
                w = w[:s] + w[s + 2:s + 4] + w[s:s + 2] + w[s + 4:]
            elif q == i:
                raise ConsistencyError(f"source {src!r} has the factor ({i}, {i + 1}): face {i} is a tangent class")
            acc[w] = acc.get(w, 0) + sign
        yield {w: c for w, c in acc.items() if c}


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
    with a coface and apply the matching face pullback.  Both sides are
    empty for k > 2n - 1 (r <= n strands carry <= 2r - 1 factors).

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
    bases = {}
    for r in range(0, n + 1):
        labels = list(itertools.combinations(range(1, n + 2), r + 1))
        bases[r] = [(lab, m) for lab in labels for m in basis_monomials(r, k)]

    def dmat(r: int) -> SparseMatrix:
        src = bases[r]
        tgt_index = {key: i for i, key in enumerate(bases[r - 1])}
        columns = []
        for lab, mono in src:
            col = {}
            for i in range(0, r + 1):
                newlab = lab[:i] + lab[i + 1:]
                sign = -1 if i % 2 else 1
                for m, ic in _face_monomial(i, r, mono):
                    key = tgt_index[(newlab, m)]
                    col[key] = col.get(key, 0) + sign * ic
            columns.append(col)
        return SparseMatrix(len(bases[r - 1]), len(src), f, columns)

    hs = homology_dim([dmat(r) for r in range(1, n + 1)])
    return {r: h for r, h in enumerate(hs) if bases[r]}
