"""Linear chord diagrams and the weight-space dimensions.

A diagram with n chords is a perfect matching of 2n ordered points on a
line, stored as the sorted tuple of its chords (a, b), a < b; relation
vectors key a diagram by its index in ``enumerate_diagrams(n)``.  The
quotient by the one-term relation (isolated chord = 0) and the four-term
relations has dimension dim_A(n) over any field; the dual space of weight
systems has the same dimension.

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
    relation vector is one row of the relation matrix."""

    __slots__ = ("kind", "terms")

    def __init__(self, kind: str, terms: dict):
        if kind not in (ONE_TERM, FOUR_TERM):
            raise ValueError(f"unknown relation kind {kind!r}")
        self.kind = kind
        self.terms = dict(terms)

    def key(self):
        return tuple(sorted(self.terms.items()))

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
    """All four-term vectors from skeleton/chord/moving-endpoint data, deduplicated.

    Each slide is renumbered to a sorted pair tuple and looked up in the
    enumerated basis; a tuple outside it is a ``ConsistencyError``.
    """
    if n < 2:
        raise ValueError("four-term relations need n >= 2")
    index = {d: i for i, d in enumerate(enumerate_diagrams(n))}
    npts = 2 * n - 1
    seen = set()
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
                key = tuple(sorted(terms.items()))
                if terms and key not in seen:
                    seen.add(key)
                    out.append(RelationVector(FOUR_TERM, terms))
    return out


def relation_matrix(n: int, f: Field, relations=None) -> SparseMatrix:
    """Stack relation vectors as rows over the diagram basis of size (2n-1)!!."""
    cols = len(enumerate_diagrams(n))
    if relations is None:
        relations = one_term_relations(n)
        if n >= 2:
            relations = relations + four_term_relations(n)
    entries = {(r, i): c for r, vec in enumerate(relations) for i, c in vec.terms.items()}
    return SparseMatrix(len(relations), cols, f, entries)


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
