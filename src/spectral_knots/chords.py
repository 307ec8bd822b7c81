"""Linear chord diagrams and the weight-space dimensions.

A diagram with n chords is a perfect matching of 2n ordered points on a
line, stored as the sorted tuple of its chords (a, b), a < b; relation
vectors key a diagram by its index in ``enumerate_diagrams(n)``.  The
quotient by the one-term relation (isolated chord = 0) and the four-term
relations has dimension dim_A(n) over any field; the dual space of weight
systems has the same dimension.  The one-term relation of a diagram with
an isolated chord kills that diagram alone, so ``relation_matrix`` takes
that quotient first: it keeps a column only for the other diagrams and
ranks the four-term vectors restricted to them.

Four-term generation: fix a skeleton of n-1 chords plus one unmatched
point (the anchor of the moving chord) on 2n-1 positions, distinguish a
skeleton chord B = (b1, b2), and insert the moving endpoint into the four
slots adjacent to b1 and b2.  Signs alternate along the slide order

    +D(before b1) -D(after b1) +D(before b2) -D(after b2) = 0,

so when b1 and b2 are adjacent the two middle insertions coincide and
cancel, leaving a two-term vector; stored coefficients are always +-1.
The 2n slides of one skeleton are a walk: a slide is held as its partner
word w, w[p] the partner of position p, with the moving endpoint first at
position 0.  It reaches the next slot by swapping with its right
neighbour, which fixes two partners; passing its own anchor leaves the
same diagram and the word unchanged.  Each slot is then one such update
and one lookup of ``bytes(w)``.  Slides of one chord can coincide besides
adjacent b1 and b2 (when the anchor is the only point between them all
four cancel), so each vector adds the signs of its four slides and drops
what cancels.
"""

from __future__ import annotations

import functools
import itertools

from .linalg import CAPACITY_LIMIT, CapacityError, ConsistencyError, Field, SparseMatrix


class RelationVector:
    """Signed combination of diagrams: ``terms`` maps a diagram's index in
    ``enumerate_diagrams(n)`` to its coefficient, so a relation vector is
    one row of the relation matrix.  The dict is kept as given, not
    copied."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def __repr__(self):
        body = " ".join(f"{c:+d}*[{i}]" for i, c in sorted(self.terms.items()))
        return f"<RelationVector {body}>"


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


def one_term_relations(n: int) -> list:
    """Indices of the diagrams with an isolated chord, in enumeration order;
    the one-term relation of each kills exactly that diagram."""
    # all 2n points are endpoints, so isolated means adjacent endpoints
    return [i for i, d in enumerate(enumerate_diagrams(n)) if any(b == a + 1 for (a, b) in d)]


def _word(diagram) -> bytes:
    """Partner word of a diagram: byte p is the partner of position p, both
    counted from 0, so each diagram has exactly one word."""
    w = bytearray(2 * len(diagram))
    for a, b in diagram:
        w[a - 1], w[b - 1] = b - 1, a - 1
    return bytes(w)


def four_term_relations(n: int):
    """All nonzero four-term vectors from skeleton/chord/moving-endpoint data.

    The matchings of 2n-2 points are enumerated once and placed around each
    anchor as skeletons.  Each skeleton's 2n slides are one walk of the
    moving endpoint's partner word (see the module docstring), looked up by
    ``bytes`` in the enumerated basis; a word outside it is a
    ``ConsistencyError``.  No vector repeats (checked for n <= 7), and a
    repeated row could not change a rank, so none is held to deduplicate
    against.
    """
    index = {_word(d): i for i, d in enumerate(enumerate_diagrams(n))}
    npts = 2 * n - 1
    bases = list(_matchings(tuple(range(1, npts))))
    out = []
    for anchor in range(1, npts + 1):
        for base in bases:
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
            # at[slot]: index of the diagram with the moving endpoint after ``slot`` points
            at = list(map(index.get, slides))
            if None in at:
                word = list(slides[at.index(None)])
                raise ConsistencyError(f"slide with partner word {word} is not a diagram with {n} chords")
            for (b1, b2) in skeleton:
                # slides can coincide: add their signs and drop what cancels
                acc = {}
                for slot, sign in ((b1 - 1, 1), (b1, -1), (b2 - 1, 1), (b2, -1)):
                    acc[at[slot]] = acc.get(at[slot], 0) + sign
                terms = {i: c for i, c in acc.items() if c}
                if terms:
                    out.append(RelationVector(terms))
    return out


def relation_matrix(n: int, f: Field) -> SparseMatrix:
    """Four-term vectors as rows over the one-term quotient of the diagrams.

    The columns are the diagrams not in ``one_term_relations(n)``, numbered
    in enumeration order.  Each row is one of ``four_term_relations(n)``
    restricted to those columns; a row left empty is dropped.
    ``cols - rank`` is the dimension of the diagrams modulo the one- and
    four-term relations.
    """
    killed = set(one_term_relations(n))
    # column[i]: the column of diagram i, None for a killed diagram
    kept = itertools.count()
    column = [None if i in killed else next(kept) for i in range(len(enumerate_diagrams(n)))]
    entries = {}
    rows = 0
    vectors = four_term_relations(n)
    for v, vec in enumerate(vectors):
        vectors[v] = None  # the list no longer holds a vector that has become a row
        row = [(column[i], c) for i, c in vec.terms.items() if column[i] is not None]
        for j, c in row:
            entries[(rows, j)] = c
        rows += bool(row)
    return SparseMatrix(rows, len(column) - len(killed), f, entries)


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
