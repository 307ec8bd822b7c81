"""Chord diagrams and the weight-space dimensions.

A linear diagram with n chords is a perfect matching of 2n ordered points
on a line, stored as the sorted tuple of its chords (a, b), a < b.  The
quotient by the one-term relation (isolated chord = 0) and the four-term
relations has dimension dim_A(n) over any field; the dual space of weight
systems has the same dimension.

Closing the line into a circle induces an isomorphism of the one- and
four-term quotients of linear and circular diagrams (D. Bar-Natan, On the
Vassiliev knot invariants, Topology 34 (1995); S. Chmutov, S. Duzhin and
J. Mostovoy, Introduction to Vassiliev Knot Invariants, CUP 2012), so
dim_A(n) is computed on circular diagrams: matchings of the points Z/2n up
to rotation.  A chord (a, a+1 mod 2n), the closing chord (1, 2n) too, is
isolated, and its one-term relation kills that diagram alone, so the
quotient is taken first: the columns are the rotation orbits of the other
matchings (``_orbit_index``), and the four-term vectors are generated
restricted to them, keyed by column.

Four-term generation: fix a skeleton of n-1 chords plus one unmatched
point (the anchor of the moving chord), distinguish a skeleton chord
B = (b1, b2), and insert the moving endpoint into the four slots adjacent
to b1 and b2.  Signs alternate along the slide order

    +D(before b1) -D(after b1) +D(before b2) -D(after b2) = 0.

Every vector is a rotation of one with the anchor at point 1, so only
those are generated, with the skeleton on points 2..2n-1.  Slides of one
vector can coincide (when b1 and b2 are adjacent the two middle insertions
do) or be rotations of each other, so each vector adds the signs of its
four slides per column and drops what cancels: coefficients are +-1 or
+-2.  The 2n slides of one skeleton are a walk: a slide is held as its
partner word w, w[p] the partner of position p, with the moving endpoint
first at position 0.  It reaches the next slot by swapping with its right
neighbour, which fixes two partners; passing its anchor at slot 1 leaves
the same diagram and the word unchanged.  Each slot is then one such
update and one lookup of ``bytes(w)`` among the rotations of the columns.

No term of a skeleton with a chord C = (a, a+1) survives the one-term
quotient.  C is isolated in every slide but the one at slot a, between
its ends.  Slot a borders only C's two ends, so it enters only C's own
vector, as -D(after a) + D(before a+1): the same diagram, so the two
cancel.  Every other term has C isolated and is killed.  So the skeletons
are the diagrams of degree n - 1 not in ``one_term_relations(n - 1)``,
moved onto points 2..2n-1: 36 of 105 at n = 5, 329 of 945 at n = 6.
Inserting the moving endpoint makes no two skeleton points adjacent, and
point 1 holds the anchor or the moving endpoint, so no skeleton chord
closes across (1, 2n) either: only the slides at slots 0, 1 and 2n-1,
with the moving chord beside its anchor, are killed.
"""

import functools
from collections import namedtuple

from .linalg import CAPACITY_LIMIT, CapacityError, ConsistencyError, Field, SparseMatrix


# one row of the relation matrix: ``terms`` maps an orbit's column to its coefficient
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


def _orbit_index(n: int):
    """(index, cols): ``index`` maps the partner word of every matching of
    Z/2n with no chord (a, a+1 mod 2n) to its rotation orbit's column, and
    ``cols`` counts the orbits.

    Byte p of a partner word is the partner of point p, both counted from 0.
    A depth-first search pairs the smallest free point a with each larger
    free point b but a + 1 and, for a = 0, 2n - 1; an orbit takes the next
    column when the search first meets it, and all its rotations are
    indexed at once, so each later member is one lookup.
    """
    m = 2 * n
    # rotation by r: point p becomes p + r, so each byte is translated and
    # the word turned r places to the right
    shift = [bytes((x + r) % m for x in range(m)).ljust(256, b"\0") for r in range(m)]
    index = {}
    cols = 0
    w = bytearray(m)

    def rec(free):
        nonlocal cols
        if not free:
            word = bytes(w)
            if word not in index:
                for r, table in enumerate(shift):
                    t = word.translate(table)
                    index[t[m - r:] + t[:m - r]] = cols
                cols += 1
            return
        a = free[0]
        for j in range(1, len(free)):
            b = free[j]
            if b - a not in (1, m - 1):
                w[a], w[b] = b, a
                rec(free[1:j] + free[j + 1:])

    rec(tuple(range(m)))
    return index, cols


def four_term_relations(n: int, index=None):
    """The four-term vectors with the anchor at point 1, as rows over the
    rotation orbits of circular diagrams with no isolated chord.

    A row is a ``RelationVector`` record whose ``terms`` dict, kept as
    built, maps a column to its coefficient; ``index`` is the word ->
    column dict of ``_orbit_index(n)``, built here when not given.  The
    skeletons are the diagrams of degree n - 1 not in
    ``one_term_relations(n - 1)``, on points 2..2n-1 (see the module
    docstring).  Each skeleton's slides are one walk of the moving
    endpoint's partner word, looked up by ``bytes`` in ``index``.  A word
    outside it must have a chord (a, a+1 mod 2n), whose term the one-term
    relation kills; any other is a ``ConsistencyError``.  Terms of one
    orbit are added, zeros and killed terms dropped, and so is a vector
    left empty.
    """
    if n < 2:  # no skeleton has a chord to slide along
        return []
    if index is None:
        index = _orbit_index(n)[0]
    m = 2 * n
    killed = set(one_term_relations(n - 1))
    out = []
    for i, base in enumerate(enumerate_diagrams(n - 1)):
        if i in killed:
            continue
        skeleton = [(a + 1, b + 1) for (a, b) in base]
        # slots 0 and 1 are one word: the moving endpoint and its anchor,
        # point 1, at positions 0 and 1 either way; skeleton point p at p
        w = bytearray(m)
        w[0], w[1] = 1, 0
        for a, b in skeleton:
            w[a], w[b] = b, a
        key = bytes(w)
        slides = [key, key]
        for s in range(2, m):
            # the moving endpoint, partner 0, swaps with the point at s
            y = w[s]
            w[s - 1], w[y], w[s], w[0] = y, s - 1, 0, s
            slides.append(bytes(w))
        # at[slot]: column of the diagram with the moving endpoint after ``slot`` points
        at = list(map(index.get, slides))
        for slot, j in enumerate(at):
            if j is None and not any((q - p) % m == 1 for p, q in enumerate(slides[slot])):
                raise ConsistencyError(f"slide with partner word {list(slides[slot])} is not a diagram with {n} chords")
        for (b1, b2) in skeleton:
            # slides can share an orbit: add their signs and drop what cancels
            acc = {}
            for slot, sign in ((b1 - 1, 1), (b1, -1), (b2 - 1, 1), (b2, -1)):
                acc[at[slot]] = acc.get(at[slot], 0) + sign
            terms = {j: c for j, c in acc.items() if c and j is not None}
            if terms:
                out.append(RelationVector(terms))
    return out


def relation_matrix(n: int, f: Field) -> SparseMatrix:
    """``four_term_relations(n)`` as the rows of a matrix with one column per
    rotation orbit of circular diagrams with no isolated chord.  ``cols -
    rank`` is the dimension of the diagrams modulo the one- and four-term
    relations.
    """
    index, cols = _orbit_index(n)
    columns = [{} for _ in range(cols)]
    vectors = four_term_relations(n, index)
    for r, vec in enumerate(vectors):
        vectors[r] = None  # the list no longer holds a vector that has become a row
        for j, c in vec.terms.items():
            columns[j][r] = c
    return SparseMatrix(len(vectors), cols, f, columns)


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
