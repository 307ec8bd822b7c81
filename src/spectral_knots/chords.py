"""Linear chord diagrams and the weight-space dimensions.

A diagram with n chords is a perfect matching of 2n ordered points on a
line, stored as the sorted tuple of its chords (a, b), a < b.  The
quotient by the one-term relation (isolated chord = 0) and the four-term
relations has dimension dim_A(n) over any field; the dual space of weight
systems has the same dimension.  The one-term relation of a diagram with
an isolated chord kills that diagram alone, so the quotient is taken
first: a column is kept only for the other diagrams, and the four-term
vectors are generated restricted to them, keyed by column.

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

No term of a skeleton with a chord C = (a, a+1) survives the one-term
quotient.  C is isolated in every slide but the one at slot a, between
its ends.  Slot a borders only C's two ends, so it enters only C's own
vector, as -D(after a) + D(before a+1): the same diagram, so the two
cancel.  Every other term has C isolated and is killed.  Placing the
anchor only ever splits a chord, so a base matching of 2n-2 points with
two or more chords (a, a+1) is never walked, one with exactly one only
with the anchor between its ends, and one with none at every anchor:
365 of the 945 skeletons at n = 5, 3984 of 10395 at n = 6.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple

from .linalg import CAPACITY_LIMIT, CapacityError, ConsistencyError, Field, SparseMatrix


# one row of the relation matrix: ``terms`` maps a kept diagram's column to its coefficient
RelationVector = namedtuple("RelationVector", "terms")


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
    adjacent = {(a, a + 1) for a in range(1, 2 * n)}
    return [i for i, d in enumerate(enumerate_diagrams(n)) if not adjacent.isdisjoint(d)]


def _word(diagram) -> bytes:
    """Partner word of a diagram: byte p is the partner of position p, both
    counted from 0, so each diagram has exactly one word."""
    w = bytearray(2 * len(diagram))
    for a, b in diagram:
        w[a - 1], w[b - 1] = b - 1, a - 1
    return bytes(w)


def four_term_relations(n: int):
    """The four-term vectors as rows over the one-term quotient.

    A row is a ``RelationVector`` record whose ``terms`` dict, kept as
    built, maps a column to its coefficient: a column is a diagram's rank
    among the diagrams not in ``one_term_relations(n)``, in enumeration order.
    Terms on killed diagrams are dropped, and so is a vector left empty.
    The matchings of 2n-2 points are enumerated once and placed around each
    anchor as skeletons; a skeleton with a chord (a, a+1) is skipped, since
    none of its terms survives the quotient (see the module docstring).
    Each other skeleton's 2n slides are one walk of the moving endpoint's
    partner word, looked up by ``bytes`` in an index of the enumerated
    basis; a word outside it is a ``ConsistencyError``.  No four-term
    vector repeats (checked for n <= 7) and only a few rows do once
    restricted; a repeated row could not change a rank, so none is held to
    deduplicate against.
    """
    killed = set(one_term_relations(n))
    kept = itertools.count()
    # partner word -> column, -1 for a diagram the one-term relations kill
    index = {_word(d): -1 if i in killed else next(kept) for i, d in enumerate(enumerate_diagrams(n))}
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
            # at[slot]: column of the diagram with the moving endpoint after ``slot`` points
            at = list(map(index.get, slides))
            if None in at:
                word = list(slides[at.index(None)])
                raise ConsistencyError(f"slide with partner word {word} is not a diagram with {n} chords")
            for (b1, b2) in skeleton:
                # slides can coincide: add their signs and drop what cancels
                acc = {}
                for slot, sign in ((b1 - 1, 1), (b1, -1), (b2 - 1, 1), (b2, -1)):
                    acc[at[slot]] = acc.get(at[slot], 0) + sign
                terms = {j: c for j, c in acc.items() if c and j >= 0}
                if terms:
                    out.append(RelationVector(terms))
    return out


def relation_matrix(n: int, f: Field) -> SparseMatrix:
    """``four_term_relations(n)`` as the rows of a matrix with one column per
    diagram not in ``one_term_relations(n)``.  ``cols - rank`` is the
    dimension of the diagrams modulo the one- and four-term relations.
    """
    cols = len(enumerate_diagrams(n)) - len(one_term_relations(n))
    entries = {}
    vectors = four_term_relations(n)
    for r, vec in enumerate(vectors):
        vectors[r] = None  # the list no longer holds a vector that has become a row
        for j, c in vec.terms.items():
            entries[(r, j)] = c
    return SparseMatrix(len(vectors), cols, f, entries)


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
