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

from .conf_algebra import AlgebraElement, Monomial, _reduce_cached, basis_monomials, basis_order, dim_Y
from .linalg import CAPACITY_LIMIT, CapacityError, ConsistencyError, Field, SparseMatrix, homology_dim

SINHA_E2 = "sinha_e2"
VASSILIEV_E1 = "vassiliev_e1"


def _face_monomial(i: int, l: int, factors: tuple) -> tuple:
    """Face pullback of a sorted factor tuple, as the rewrite memo's own tuple
    of (factor tuple, int coefficient) pairs; () when it vanishes."""
    if 1 <= i <= l - 1:
        # shrink {i, i+1} to i; two factors merging make a square, which vanishes
        raw = tuple(sorted([(a - (a > i), b - (b > i)) for (a, b) in factors]))
        if any(p == q for p, q in zip(raw, raw[1:])):
            return ()
    elif i == 0:
        if any(a == 1 for (a, _) in factors):  # a <= b, so a == 1 covers b == 1
            return ()
        raw = tuple([(a - 1, b - 1) for (a, b) in factors])  # still sorted and distinct
    elif i == l:
        if any(b == l for (_, b) in factors):
            return ()
        raw = factors
    else:
        raise ValueError(f"face index {i} out of range 0..{l}")
    return _reduce_cached(raw)


def face_pullback(i: int, x: AlgebraElement) -> AlgebraElement:
    """Pullback along the i-th coface; result lives on one strand fewer."""
    l = x.strands
    if l < 1:
        raise ValueError("no face maps out of the empty configuration")
    if not (0 <= i <= l):
        raise ValueError(f"face index {i} out of range 0..{l}")
    acc = {}
    for mono, coeff in x.terms.items():
        for m, ic in _face_monomial(i, l, mono.factors):
            key = Monomial(m, l - 1)
            acc[key] = acc.get(key, 0) + coeff * ic
    return AlgebraElement(acc, l - 1, x.field)


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


@lru_cache(maxsize=None)
def normalized_basis(l: int, k: int) -> tuple:
    """Basic monomials of degree 2k on l strands in which every strand occurs,
    as sorted factor tuples in ``basis_order``.

    These span the l-th normalized column: monomials missing a strand are
    exactly the degeneracy images.  A search picks e forest edges (a, b),
    a < b, by distinct b descending, pruned once the edges still to come
    (two strands each) and the diagonals left cannot cover the strands 1..b
    still uncovered; the k - e diagonals take every uncovered strand and any
    choice of the covered ones.
    """
    if l == 0:
        return ((),) if k == 0 else ()
    out = []
    covers = [0] * (l + 1)  # edges chosen so far touching each strand
    edges = []
    diagonal = [(x, x) for x in range(l + 1)]

    def rec(b, e_left, uncovered, diag_left):
        # uncovered: strands 1..b touching no edge; diag_left: diagonals not yet forced
        if uncovered - 2 * e_left > diag_left:
            return
        if e_left == 0:
            fixed = [diagonal[s] for s in range(1, l + 1) if not covers[s]] + edges
            covered = [diagonal[s] for s in range(1, l + 1) if covers[s]]
            for extra in itertools.combinations(covered, diag_left - uncovered):
                out.append(tuple(sorted(fixed + list(extra))))
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
    out.sort(key=basis_order)
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
    tgt_index = {m: r for r, m in enumerate(normalized_basis(l - 1, k))}
    entries = {}
    for c, mono in enumerate(src):
        acc = {}
        for i in range(0, l + 1):
            img = _face_monomial(i, l, mono)
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
            r = tgt_index.get(m)
            if r is not None:
                entries[(r, c)] = coeff
    return SparseMatrix(len(tgt_index), len(src), f, entries)


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


def kan_unit_check(n: int, k_max: int, f: Field) -> KanReport:
    """Brute-force comparison of the expanded and plain normalized complexes.

    The expanded side has, in simplicial degree r, one full algebra summand
    per order-preserving injection [r] -> {1..n+1}; faces compose the label
    with a coface and apply the matching face pullback.  Total homology
    dimensions of both sides must agree in every total degree 2k - r.
    Both sides are empty for k > 2n - 1 (r <= n strands carry <= 2r - 1 factors).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 3:
        raise CapacityError("brute-force comparison is limited to n <= 3")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")

    report = KanReport()
    for k in range(0, min(k_max, 2 * n - 1) + 1):
        plain = column_homology(n, k, f)
        _accumulate(report.rhs_dims, {l: h for l, h in enumerate(plain) if normalized_basis(l, k)}, k)
        _accumulate(report.lhs_dims, _expanded_column_homology(n, k, f), k)
    return report


def _accumulate(dims, per_level, k):
    for level, h in per_level.items():
        t = 2 * k - level
        dims[t] = dims.get(t, 0) + h


def _expanded_column_homology(n: int, k: int, f: Field) -> dict:
    bases = {}
    for r in range(0, n + 1):
        labels = list(itertools.combinations(range(1, n + 2), r + 1))
        bases[r] = [(lab, m.factors) for lab in labels for m in basis_monomials(r, k)]

    def dmat(r: int) -> SparseMatrix:
        src = bases[r]
        tgt_index = {key: i for i, key in enumerate(bases[r - 1])}
        entries = {}
        for c, (lab, mono) in enumerate(src):
            for i in range(0, r + 1):
                newlab = lab[:i] + lab[i + 1:]
                sign = -1 if i % 2 else 1
                for m, ic in _face_monomial(i, r, mono):
                    key = (tgt_index[(newlab, m)], c)
                    entries[key] = entries.get(key, 0) + sign * ic
        return SparseMatrix(len(bases[r - 1]), len(src), f, entries)

    hs = homology_dim([dmat(r) for r in range(1, n + 1)])
    return {r: h for r, h in enumerate(hs) if bases[r]}
