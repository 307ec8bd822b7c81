"""Linear chord diagrams and the weight-space dimensions.

A diagram with n chords is a perfect matching of 2n ordered points on a
line.  The quotient by the one-term relation (isolated chord = 0) and the
four-term relations has dimension dim_A(n) over any field; the dual space
of weight systems has the same dimension.

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


class ChordDiagram:
    """Perfect matching of {1..2n}, stored as a sorted tuple of (a, b), a < b."""

    __slots__ = ("pairs", "n")

    def __init__(self, pairs):
        pairs = tuple(sorted(tuple(sorted(p)) for p in pairs))
        points = [x for p in pairs for x in p]
        n = len(pairs)
        if sorted(points) != list(range(1, 2 * n + 1)):
            raise ValueError(f"not a perfect matching of 1..{2 * n}: {pairs}")
        self.pairs = pairs
        self.n = n

    def has_isolated_chord(self) -> bool:
        # all 2n positions are occupied, so isolated means adjacent endpoints
        return any(b == a + 1 for (a, b) in self.pairs)

    def reflect(self) -> "ChordDiagram":
        m = 2 * self.n + 1
        return ChordDiagram([(m - b, m - a) for (a, b) in self.pairs])

    def __eq__(self, other):
        return isinstance(other, ChordDiagram) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __lt__(self, other):
        return self.pairs < other.pairs

    def __repr__(self):
        return "".join(f"({a},{b})" for (a, b) in self.pairs)


class RelationVector:
    """Signed combination of diagrams; one- or four-term."""

    __slots__ = ("kind", "terms")

    def __init__(self, kind: str, terms: dict):
        if kind not in (ONE_TERM, FOUR_TERM):
            raise ValueError(f"unknown relation kind {kind!r}")
        self.kind = kind
        self.terms = dict(terms)

    def key(self):
        return tuple(sorted((d.pairs, c) for d, c in self.terms.items()))

    def __eq__(self, other):
        return (
            isinstance(other, RelationVector)
            and self.kind == other.kind
            and self.terms == other.terms
        )

    def __repr__(self):
        body = " ".join(f"{c:+d}*{d!r}" for d, c in sorted(self.terms.items(), key=lambda t: t[0].pairs))
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
    """All (2n-1)!! diagrams with n chords, in first-point matching order;
    the last degree asked for is memoized for the relation builders."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return tuple(ChordDiagram(m) for m in _matchings(tuple(range(1, 2 * n + 1))))


def one_term_relations(n: int):
    """One relation per diagram containing an isolated chord."""
    return [
        RelationVector(ONE_TERM, {d: 1})
        for d in enumerate_diagrams(n)
        if d.has_isolated_chord()
    ]


def four_term_relations(n: int):
    """All four-term vectors from skeleton/chord/moving-endpoint data, deduplicated.

    Each slide is renumbered to a sorted pair tuple and looked up in the
    enumerated basis; a tuple outside it is a ``ConsistencyError``.
    """
    if n < 2:
        raise ValueError("four-term relations need n >= 2")
    diagrams = enumerate_diagrams(n)
    index = {d.pairs: i for i, d in enumerate(diagrams)}
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
                    out.append(RelationVector(FOUR_TERM, {diagrams[i]: c for i, c in terms.items()}))
    return out


def relation_matrix(n: int, f: Field, relations=None) -> SparseMatrix:
    """Stack relation vectors as rows over the diagram basis of size (2n-1)!!."""
    diagrams = enumerate_diagrams(n)
    index = {d.pairs: i for i, d in enumerate(diagrams)}
    if relations is None:
        relations = one_term_relations(n)
        if n >= 2:
            relations = relations + four_term_relations(n)
    entries = {}
    for r, vec in enumerate(relations):
        for d, c in vec.terms.items():
            entries[(r, index[d.pairs])] = c
    return SparseMatrix(len(relations), len(diagrams), f, entries)


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
