"""Column complexes and page tables of the truncated knot spectral sequence.

The cohomology rings of the compactified configuration spaces assemble
into a simplicial graded algebra; its normalization has one column per
cardinality l, spanned by basic monomials in which every strand occurs.
The column differential is the alternating sum of face maps.  Homology of
the columns gives the second-page dimension table; the standard degree
shift relabels it as the first page of the discriminant-side sequence.

Face map conventions (validated by d1*d1 = 0 and by the chord-diagram
cross-check, see tests):

* inner face i (1 <= i <= l-1): relabel strands along the surjection
  {1..l} -> {1..l-1} shrinking {i, i+1}; a factor g(i, i+1) becomes the
  tangent class g(i, i).
* outer faces i = 0 and i = l: the boundary strand is deleted; any factor
  touching it pulls back to zero.  On normalized columns the outer faces
  therefore vanish identically (checked during matrix assembly).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from math import comb

from .conf_algebra import AlgebraElement, Monomial, _reduce_cached, basis_monomials, dim_Y
from .linalg import ConsistencyError, Field, SparseMatrix, homology_dim

SINHA_E2 = "sinha_e2"
VASSILIEV_E1 = "vassiliev_e1"

# largest column dimension the page builder will attempt
CAPACITY_LIMIT = 200_000


class CapacityError(RuntimeError):
    """The requested computation exceeds the configured resource bounds."""


def _face_monomial(i: int, l: int, factors) -> tuple:
    """Face pullback of a single monomial, as the rewrite memo's own tuple of
    (frozenset, int coefficient) pairs; () when it vanishes."""
    if 1 <= i <= l - 1:
        # shrink {i, i+1} to i
        raw = frozenset([(a - (a > i), b - (b > i)) for (a, b) in factors])
    elif i == 0:
        if any(a == 1 for (a, _) in factors):  # a <= b, so a == 1 covers b == 1
            return ()
        raw = frozenset([(a - 1, b - 1) for (a, b) in factors])
    elif i == l:
        if any(b == l for (_, b) in factors):
            return ()
        raw = frozenset(factors)
    else:
        raise ValueError(f"face index {i} out of range 0..{l}")
    if len(raw) != len(factors):  # two factors merged: a square, which vanishes
        return ()
    return _reduce_cached(raw)


def face_pullback(i: int, x: AlgebraElement) -> AlgebraElement:
    """Pullback along the i-th coface; result lives on one strand fewer."""
    l = x.strands
    if l < 1:
        raise ValueError("no face maps out of the empty configuration")
    if not (0 <= i <= l):
        raise ValueError(f"face index {i} out of range 0..{l}")
    f = x.field
    acc = {}
    for mono, coeff in x.terms.items():
        for m, ic in _face_monomial(i, l, mono.factors):
            key = Monomial(m, l - 1)
            acc[key] = f.add(acc.get(key, f.zero()), f.mul(coeff, f.coerce(ic)))
    return AlgebraElement(acc, l - 1, f)


def degeneracy_pullback(i: int, x: AlgebraElement) -> AlgebraElement:
    """Pullback along the codegeneracy that forgets strand i of the target.

    ``x`` lives on m strands; the result lives on m + 1 strands, relabeled
    along the order-preserving injection {1..m} -> {1..m+1} skipping i.
    """
    m = x.strands
    if not (1 <= i <= m + 1):
        raise ValueError(f"degeneracy index {i} out of range 1..{m + 1}")
    phi = lambda s: s if s < i else s + 1
    f = x.field
    out = {}
    for mono, coeff in x.terms.items():
        key = Monomial([(phi(a), phi(b)) for (a, b) in mono.factors], m + 1)
        out[key] = coeff
    return AlgebraElement(out, m + 1, f)


def normalized_dim_formula(l: int, k: int) -> int:
    """Normalized column dimension by inclusion-exclusion over missing strands."""
    return sum((-1) ** j * comb(l, j) * dim_Y(l - j, k) for j in range(l + 1))


def _covering_forests(l: int, e: int, max_diag: int) -> list:
    """Forests of e edges (a,b), a < b, distinct b, leaving <= max_diag strands
    uncovered.  Edges are chosen with b descending, so a strand above the
    current b can only be covered by a diagonal factor; that bounds the DFS.
    So does counting: the e_left edges still to come cover at most 2*e_left
    of the strands 1..b that are still uncovered.
    """
    out = []
    covers = [0] * (l + 1)  # edges chosen so far touching each strand

    def rec(b, e_left, edges, uncovered, diag_left):
        # uncovered: strands 1..b touching no edge; diag_left: diagonals not yet forced
        if uncovered - 2 * e_left > diag_left:
            return
        if e_left == 0:
            out.append(edges)
            return
        if b < 2:
            return
        b_free = covers[b] == 0
        below = uncovered - b_free
        covers[b] += 1
        for a in range(1, b):
            a_free = covers[a] == 0
            covers[a] += 1
            rec(b - 1, e_left - 1, edges + ((a, b),), below - a_free, diag_left)
            covers[a] -= 1
        covers[b] -= 1
        # skip b entirely: if b is still uncovered it now needs a diagonal
        if diag_left >= b_free:
            rec(b - 1, e_left, edges, below, diag_left - b_free)

    rec(l, e, (), l, max_diag)
    return out


@lru_cache(maxsize=None)
def normalized_basis(l: int, k: int):
    """Basic monomials of degree 2k on l strands in which every strand occurs.

    These span the l-th normalized column: monomials missing a strand are
    exactly the degeneracy images.  Enumerated directly (forest edges plus a
    diagonal completion of the uncovered strands) rather than by filtering
    the full basis, whose size grows much faster.
    """
    if l == 0:
        return (Monomial((), 0),) if k == 0 else ()
    out = []
    for e in range(0, k + 1):
        d = k - e
        if d > l or e > l - 1:
            continue
        for edges in _covering_forests(l, e, d):
            covered = {x for p in edges for x in p}
            rest = [s for s in range(1, l + 1) if s not in covered]
            if len(rest) > d:
                continue
            for extra in itertools.combinations(sorted(covered), d - len(rest)):
                diag = sorted(rest + list(extra))
                out.append(Monomial([(x, x) for x in diag] + list(edges), l))
    out.sort(key=Monomial.sort_key)
    return tuple(out)


def d1_matrix(l: int, k: int, f: Field) -> SparseMatrix:
    """Matrix of the alternating face sum from column l to column l-1.

    Bases are ``normalized_basis(l, k)`` (columns) and
    ``normalized_basis(l-1, k)`` (rows); terms of the image falling outside
    the normalized span (monomials missing a strand) are dropped, which is
    the quotient projection.
    """
    if l < 1:
        raise ValueError("d1 needs a positive column index")
    src = normalized_basis(l, k)
    tgt = normalized_basis(l - 1, k)
    tgt_index = {m.factors: r for r, m in enumerate(tgt)}
    entries = {}
    for c, mono in enumerate(src):
        acc = {}
        for i in range(0, l + 1):
            img = _face_monomial(i, l, mono.factors)
            if i in (0, l):
                if img:
                    raise ConsistencyError(f"outer face {i} nonzero on normalized monomial {mono!r}")
                continue
            sign = -1 if i % 2 else 1
            for m, ic in img:
                acc[m] = acc.get(m, 0) + sign * ic
        for m, coeff in acc.items():
            if coeff == 0:
                continue
            r = tgt_index.get(tuple(sorted(m)))
            if r is not None:
                entries[(r, c)] = coeff
    return SparseMatrix(len(tgt), len(src), f, entries)


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


class PageTable:
    """Bigraded dimension table: (column, row) -> dimension, absent = 0."""

    __slots__ = ("entries", "page_label", "field", "truncation")

    def __init__(self, entries: dict, page_label: str, field: Field, truncation: int):
        self.entries = dict(entries)
        self.page_label = page_label
        self.field = field
        self.truncation = truncation

    def get(self, col: int, row: int) -> int:
        return self.entries.get((col, row), 0)

    def sorted_items(self):
        return sorted(self.entries.items())

    def __eq__(self, other):
        return (
            isinstance(other, PageTable)
            and self.entries == other.entries
            and self.page_label == other.page_label
            and self.field == other.field
            and self.truncation == other.truncation
        )

    def __repr__(self):
        return f"PageTable({self.page_label}, n={self.truncation}, {len(self.entries)} entries)"


def e2_page(n: int, k_max: int, f: Field) -> PageTable:
    """Second-page dimensions of the n-truncated sequence, rows up to 2*k_max.

    Entry (-l, 2k) is the homology dimension of the normalized column
    complex at cardinality l; the truncation sets column n+1 to zero, so
    the top column reports a kernel dimension.
    """
    if n < 1:
        raise ValueError("truncation must be >= 1")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    # columns l > 2k are empty (k factors cover at most 2k strands), so only
    # l <= 2k is estimated; column_homology checks the emptiness
    for l in range(1, n + 1):
        for k in range((l + 1) // 2, k_max + 1):
            if normalized_dim_formula(l, k) > CAPACITY_LIMIT:
                raise CapacityError(
                    f"column (l={l}, k={k}) exceeds capacity limit {CAPACITY_LIMIT}"
                )
    entries = {}
    for k in range(0, k_max + 1):
        hs = column_homology(n, k, f)
        for l in range(1, n + 1):
            entries[(-l, 2 * k)] = hs[l]
    return PageTable(entries, SINHA_E2, f, n)


def e2_diagonal(n_diag: int, f: Field) -> int:
    """Page entry at (-2*n_diag, 2*n_diag), computed without the full table.

    Above the diagonal the normalized column is empty (k factors cover at
    most 2k strands), so the entry is the same for every truncation
    >= 2*n_diag; the emptiness is checked, not assumed.
    """
    if n_diag < 1:
        raise ValueError("n_diag must be >= 1")
    l, k = 2 * n_diag, n_diag
    if normalized_dim_formula(l, k) > CAPACITY_LIMIT:
        raise CapacityError(
            f"diagonal column (l={l}, k={k}) exceeds capacity limit {CAPACITY_LIMIT}"
        )
    d_out = d1_matrix(l, k, f)
    d_in = d1_matrix(l + 1, k, f)
    if d_in.cols:
        raise ConsistencyError("normalized column above the diagonal must be empty")
    return homology_dim([d_out, d_in])[1]


def vassiliev_e1_view(p: PageTable) -> PageTable:
    """Relabel second-page entries through the standard degree shift.

    A table bidegree (col, row) = (q - 3p, 2p) maps to (-p, q), i.e.
    (-row/2, col + 3*row/2).  Any nonzero entry off that lattice (odd or
    negative row, positive column) is a consistency violation.
    """
    if p.page_label != SINHA_E2:
        raise ValueError(f"expected a {SINHA_E2} table, got {p.page_label}")
    out = {}
    for (col, row), dim in p.entries.items():
        on_lattice = row % 2 == 0 and row >= 0 and col <= 0
        if not on_lattice:
            if dim != 0:
                raise ConsistencyError(
                    f"nonzero entry {dim} at off-lattice bidegree ({col}, {row})"
                )
            continue
        half = row // 2
        out[(-half, col + 3 * half)] = dim
    return PageTable(out, VASSILIEV_E1, p.field, p.truncation)


@dataclass
class KanReport:
    """Total-degree homology dimensions of both sides of the comparison map."""

    lhs_dims: dict = dc_field(default_factory=dict)
    rhs_dims: dict = dc_field(default_factory=dict)

    def degrees(self):
        return sorted(set(self.lhs_dims) | set(self.rhs_dims))

    @property
    def equal(self) -> bool:
        return all(
            self.lhs_dims.get(t, 0) == self.rhs_dims.get(t, 0) for t in self.degrees()
        )


def kan_unit_check(n: int, k_max: int, f: Field, corrupt_sign: bool = False) -> KanReport:
    """Brute-force comparison of the expanded and plain normalized complexes.

    The expanded side has, in simplicial degree r, one full algebra summand
    per order-preserving injection [r] -> {1..n+1}; faces compose the label
    with a coface and apply the matching face pullback.  Total homology
    dimensions of both sides must agree in every total degree 2k - r.

    ``corrupt_sign`` drops the alternating signs on the expanded side (its
    columns then need not form complexes, so dimensions are reported from
    raw ranks): a negative control for the checker itself.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 3:
        raise CapacityError("brute-force comparison is limited to n <= 3")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")

    report = KanReport()
    for k in range(0, k_max + 1):
        plain = column_homology(n, k, f)
        _accumulate(report.rhs_dims, {l: h for l, h in enumerate(plain) if normalized_basis(l, k)}, k)
        _accumulate(report.lhs_dims, _expanded_column_homology(n, k, f, corrupt_sign), k)
    return report


def _accumulate(dims, per_level, k):
    for level, h in per_level.items():
        t = 2 * k - level
        dims[t] = dims.get(t, 0) + h


def _expanded_column_homology(n: int, k: int, f: Field, corrupt_sign: bool) -> dict:
    bases = {}
    for r in range(0, n + 1):
        labels = list(itertools.combinations(range(1, n + 2), r + 1))
        bases[r] = [(lab, m) for lab in labels for m in basis_monomials(r, k)]

    def dmat(r: int) -> SparseMatrix:
        src = bases[r]
        tgt_index = {(lab, m.factors): i for i, (lab, m) in enumerate(bases[r - 1])}
        entries = {}
        for c, (lab, mono) in enumerate(src):
            for i in range(0, r + 1):
                newlab = lab[:i] + lab[i + 1:]
                sign = 1 if corrupt_sign else (-1 if i % 2 else 1)
                for m, ic in _face_monomial(i, r, mono.factors):
                    key = (tgt_index[(newlab, tuple(sorted(m)))], c)
                    entries[key] = entries.get(key, 0) + sign * ic
        return SparseMatrix(len(bases[r - 1]), len(src), f, entries)

    mats = [dmat(r) for r in range(1, n + 1)]
    if corrupt_sign:
        ranks = [0] + [m.rank() for m in mats] + [0]
        hs = [len(bases[r]) - ranks[r] - ranks[r + 1] for r in range(0, n + 1)]
    else:
        hs = homology_dim(mats)
    return {r: h for r, h in enumerate(hs) if bases[r]}
