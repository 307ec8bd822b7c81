"""Linear chord diagrams and the weight-space dimensions.

A diagram with n chords is a perfect matching of 2n ordered points on a
line, stored as the sorted tuple of its chords (a, b), a < b; relation
vectors key a diagram by its index in ``enumerate_diagrams(n)``.  The
quotient by the one-term relation (isolated chord = 0) and the four-term
relations has dimension dim_A(n) over any field; the dual space of weight
systems has the same dimension.  A one-term vector kills a single diagram,
so ``relation_matrix`` takes that quotient first: it keeps a column only
for the diagrams no one-term vector kills and ranks the four-term vectors
restricted to them.

Four-term generation: fix a skeleton of n-1 chords plus one unmatched
point (the anchor of the moving chord) on 2n-1 positions, distinguish a
skeleton chord B = (b1, b2), and insert the moving endpoint into the four
slots adjacent to b1 and b2.  Signs alternate along the slide order

    +D(before b1) -D(after b1) +D(before b2) -D(after b2) = 0,

so when b1 and b2 are adjacent the two middle insertions coincide and
cancel, leaving a two-term vector; stored coefficients are always +-1.
"""

from __future__ import annotations

import functools

from .linalg import CAPACITY_LIMIT, CapacityError, ConsistencyError, Field, SparseMatrix

ONE_TERM = "one_term"
FOUR_TERM = "four_term"


class RelationVector:
    """Signed combination of diagrams, one- or four-term: ``terms`` maps a
    diagram's index in ``enumerate_diagrams(n)`` to its coefficient, so a
    relation vector is one row of the relation matrix.  The dict is kept as
    given, not copied."""

    __slots__ = ("kind", "terms")

    def __init__(self, kind: str, terms: dict):
        if kind not in (ONE_TERM, FOUR_TERM):
            raise ValueError(f"unknown relation kind {kind!r}")
        self.kind = kind
        self.terms = terms

    def __repr__(self):
        body = " ".join(f"{c:+d}*[{i}]" for i, c in sorted(self.terms.items()))
        return f"<{self.kind} {body}>"


def _matchings(points):
    if not points:
        yield ()
        return
    a = points[0]
    for idx in range(1, len(points)):
        rest = points[1:idx] + points[idx + 1:]
        for m in _matchings(rest):
            yield ((a, points[idx]),) + m


@functools.lru_cache(maxsize=1)
def enumerate_diagrams(n: int) -> tuple:
    """All (2n-1)!! diagrams with n chords as sorted pair tuples, in
    first-point matching order; the last degree asked for is memoized for
    the relation builders."""
    if n < 0:
        raise ValueError("n must be >= 0")
    # each chord starts at the smallest unmatched point, so every tuple is sorted
    return tuple(_matchings(tuple(range(1, 2 * n + 1))))


def one_term_relations(n: int):
    """One relation per diagram containing an isolated chord."""
    # all 2n points are endpoints, so isolated means adjacent endpoints
    return [
        RelationVector(ONE_TERM, {i: 1})
        for i, d in enumerate(enumerate_diagrams(n))
        if any(b == a + 1 for (a, b) in d)
    ]


def four_term_relations(n: int):
    """All nonzero four-term vectors from skeleton/chord/moving-endpoint data.

    Each slide is renumbered to a sorted pair tuple and looked up in the
    enumerated basis; a tuple outside it is a ``ConsistencyError``.  No
    vector repeats (checked for n <= 7), and a repeated row could not
    change a rank, so none is held to deduplicate against.
    """
    if n < 2:
        raise ValueError("four-term relations need n >= 2")
    index = {d: i for i, d in enumerate(enumerate_diagrams(n))}
    npts = 2 * n - 1
    out = []
    for anchor in range(1, npts + 1):
        others = tuple(p for p in range(1, npts + 1) if p != anchor)
        for skeleton in _matchings(others):
            # at[slot]: index of the diagram with the moving endpoint after ``slot`` points
            at = []
            for slot in range(npts + 1):
                moved = anchor + (anchor > slot)
                pairs = [(a + (a > slot), b + (b > slot)) for (a, b) in skeleton]
                pairs.append((slot + 1, moved) if slot < anchor else (moved, slot + 1))
                i = index.get(tuple(sorted(pairs)))
                if i is None:
                    raise ConsistencyError(f"slide {sorted(pairs)} is not a diagram with {n} chords")
                at.append(i)
            for (b1, b2) in skeleton:
                acc = {}
                for slot, sign in ((b1 - 1, 1), (b1, -1), (b2 - 1, 1), (b2, -1)):
                    acc[at[slot]] = acc.get(at[slot], 0) + sign
                terms = {i: c for i, c in acc.items() if c}
                if terms:
                    out.append(RelationVector(FOUR_TERM, terms))
    return out


def _drain(vectors: list):
    """Yield the items of a list nothing else holds in order, releasing each
    one as it is taken, so a vector is freed once it has become a row."""
    vectors.reverse()
    while vectors:
        yield vectors.pop()


def relation_matrix(n: int, f: Field) -> SparseMatrix:
    """Four-term vectors as rows over the one-term quotient of the diagrams.

    The columns are the diagrams no ``one_term_relations(n)`` vector kills,
    numbered in enumeration order.  Each row is one of
    ``four_term_relations(n)`` restricted to those columns; a row left empty
    is dropped.  ``cols - rank`` is the dimension of the diagrams modulo the
    one- and four-term relations.
    """
    killed = {i for vec in one_term_relations(n) for i in vec.terms}
    kept = (i for i in range(len(enumerate_diagrams(n))) if i not in killed)
    column = {i: j for j, i in enumerate(kept)}
    entries = {}
    rows = 0
    for vec in _drain(four_term_relations(n) if n >= 2 else []):
        row = [(column[i], c) for i, c in vec.terms.items() if i in column]
        for j, c in row:
            entries[(rows, j)] = c
        rows += bool(row)
    return SparseMatrix(rows, len(column), f, entries)


def check_diagram_capacity(n: int) -> None:
    """Raise CapacityError at the first degree i <= n with more than
    CAPACITY_LIMIT diagrams.  (2i-1)!! is built up one degree at a time, so
    a huge n fails at the first degree over the limit."""
    count = 1
    for i in range(1, n + 1):
        count *= 2 * i - 1
        if count > CAPACITY_LIMIT:
            raise CapacityError(f"degree {i} has {count} chord diagrams, over the capacity limit {CAPACITY_LIMIT}")


def dim_A(n: int, f: Field) -> int:
    """Dimension over f of diagrams modulo the one- and four-term relations."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_diagram_capacity(n)
    m = relation_matrix(n, f)
    return m.cols - m.rank()
