"""Exact scalar fields and sparse matrices.

Scalars are plain Python values over the rationals, `int` when integral
and `fractions.Fraction` otherwise, and `int` residues in [0, p) over a
prime field F_p, p < 2**64.  A matrix carries the `Field` that interprets
it, and its constructor is the only place where a scalar is reduced into
it (`Field.coerce`); in between, scalars meet only plain `+`, `-` and `*`.

Over F_2 a rank is an XOR basis of packed-int lines (`_rank_f2`): one XOR
per row update, and at most min(rows, cols)**2 / 8 bytes of basis.

Every other rank goes through one eliminator, over Q or odd F_p alike,
and one pivot step (`_pivot`) is the only code that updates a row.  A
structured presolve (LaMacchia & Odlyzko, CRYPTO '90) first pivots on every
row of weight 1 or 2: a weight-1 row takes out its column, a weight-2 row
merges two columns.  One left-to-right sweep over the columns then pivots
on the sparsest active row of each column, ties broken by lowest row index;
fill-in lands only right of the pivot column, so the pivot search never
rescans.  Over Q the rows are cleared of denominators and kept primitive:
each updated row is divided by the gcd of its entries, which bounds
coefficient swell by the minors of the integer matrix, and a pivot row
leading with -1 is negated, so the rows it updates are not rescaled.  Over
F_p each pivot row is scaled to a leading 1 and rows hold residues.

Both rank routines can report the rows they pivot on.  ``homology_dim``
uses them for clearing: the columns of d_i that are pivot rows of d_{i+1}
carry no rank of d_i and are skipped (the lemma is in its docstring).  The
lemma holds only on a complex, so every composite d_i * d_{i+1} is checked
to vanish before the first rank.
"""

from __future__ import annotations

import math


class ShapeError(ValueError):
    """Matrix dimensions do not line up."""


class ComplexError(ValueError):
    """A pair of differentials does not compose to zero."""


class ConsistencyError(RuntimeError):
    """A computed result violates a structural guarantee; signals a bug upstream."""


# largest basis (chord diagrams, or monomials of one column) a request may
# build, and the most entries an e2 table may hold
CAPACITY_LIMIT = 200_000


class CapacityError(RuntimeError):
    """The requested computation exceeds the configured resource bounds."""


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Miller-Rabin on the prime bases 2..37, which is exact for p < 2**64."""
    if p < 2 or any(p % a == 0 for a in _WITNESSES):
        return p in _WITNESSES
    s = ((p - 1) & -(p - 1)).bit_length() - 1  # p - 1 = d * 2**s, d odd
    for a in _WITNESSES:
        x = pow(a, (p - 1) >> s, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


class Field:
    """The rationals (p is None) or the prime field F_p, p < 2**64."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None and not (p < 2**64 and _is_prime(p)):
            shown = p if abs(p) < 2**64 else f"a {p.bit_length()}-bit integer"  # size, not digits
            raise ValueError(f"{shown} is not below 2**64" if p >= 2**64 else f"{shown} is not prime")
        self.p = p

    @classmethod
    def from_spec(cls, spec: str) -> "Field":
        """Parse a field spec string: "q" or "fp:<prime>"."""
        shown = repr(spec) if len(spec) <= 24 else repr(spec[:24]) + "..."  # errors echo a prefix
        s = spec.strip().lower()
        if s == "q":
            return cls(None)
        if s.startswith("fp:"):
            try:
                p = int(s[3:])
            except ValueError:
                raise ValueError(f"bad field spec {shown}") from None
            return cls(p)
        raise ValueError(f"bad field spec {shown}")

    def spec(self) -> str:
        return "q" if self.p is None else f"fp:{self.p}"

    def coerce(self, x):
        """Normalize a scalar into this field; integral rationals become int.

        Over Q any value ``Fraction`` takes exactly is accepted.  Over F_p only
        an int (bool included) or a Fraction is: any other scalar raises
        TypeError, since a float's residue is neither an int nor exact.
        """
        if type(x) is int:
            return x if self.p is None else x % self.p
        from fractions import Fraction  # loaded only once a non-int scalar arrives

        if self.p is None:
            x = Fraction(x)
            return x.numerator if x.denominator == 1 else x
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(den, -1, self.p) % self.p
        if isinstance(x, int):
            return x % self.p
        raise TypeError(f"cannot reduce a {type(x).__name__} into {self.spec()}")

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return f"Field({self.spec()!r})"


class SparseMatrix:
    """Sparse matrix over an exact field.

    ``entries`` maps (row, col) to a nonzero scalar of ``field``.  All
    operations return new values.
    """

    __slots__ = ("rows", "cols", "field", "entries")

    def __init__(self, rows: int, cols: int, field: Field, entries=None):
        self.rows = rows
        self.cols = cols
        self.field = field
        clean = {}
        for (r, c), v in (entries or {}).items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ShapeError(f"entry ({r},{c}) outside {rows}x{cols}")
            v = field.coerce(v)
            if v != 0:
                clean[(r, c)] = v
        self.entries = clean

    def is_zero(self) -> bool:
        return not self.entries

    def compose(self, other: "SparseMatrix") -> "SparseMatrix":
        """Exact matrix product self * other (apply other first)."""
        if self.field != other.field:
            raise ShapeError("mismatched fields")
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        self_cols = {}
        for (r, k), a in self.entries.items():
            self_cols.setdefault(k, []).append((r, a))
        other_cols = {}
        for (k, c), b in other.entries.items():
            other_cols.setdefault(c, []).append((k, b))
        p = self.field.p
        out = {}
        for c, col in other_cols.items():  # one output column at a time, keyed by row
            acc = {}
            for k, b in col:
                for r, a in self_cols.get(k, ()):
                    acc[r] = acc.get(r, 0) + a * b
            for r, v in acc.items():
                # a sum that cancels, or vanishes mod p, never reaches the constructor
                if v and (p is None or v % p):
                    out[r, c] = v
        return SparseMatrix(self.rows, other.cols, self.field, out)

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.field == other.field
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, {len(self.entries)} nonzero, {self.field.spec()})"

    def rank(self, skip=(), pivots=None) -> int:
        """Rank of the columns outside ``skip``.

        ``pivots``, when given, is a set that receives as many rows as the
        rank, on which those columns have full rank: the rows ``_pivot``
        pops, or over F_2 the lines entering the XOR basis (their
        leading-bit coordinates when the lines are columns).
        """
        entries = self.entries
        if skip:
            entries = {rc: v for rc, v in entries.items() if rc[1] not in skip}
        if self.field.p == 2:
            return _rank_f2(entries, self.rows < self.cols, pivots)
        rows = {}
        for (r, c), v in entries.items():
            rows.setdefault(r, {})[c] = v
        return _eliminate(rows, self.field.p, pivots)


def _pivot(rows, col_rows, i, x, p, queue=None) -> None:
    """Eliminate column ``x`` from every other row with row ``i``, then drop both.

    Each updated row becomes ``a * row - g * (row i)``, where over F_p row i
    is first scaled so that a = 1.  Over Q a row i that leads with -1 is
    negated once, so that a = 1 there too and no updated row flips sign;
    each updated row is then divided by its content: it is proportional to
    bordered minors of the input, so its primitive part stays bounded.  Updated rows of weight <= 2 are appended to ``queue``.
    """
    prow = rows.pop(i)
    for c in prow:
        col_rows[c].discard(i)
    a = prow.pop(x)
    if p is not None and a != 1:
        inv = pow(a, -1, p)
        prow = {c: v * inv % p for c, v in prow.items()}
        a = 1
    elif a == -1:
        prow = {c: -v for c, v in prow.items()}
        a = 1
    for j in col_rows.pop(x):
        row = rows[j]
        g = row.pop(x)
        if a != 1:
            for c in row:
                row[c] *= a
        for c, v in prow.items():
            old = row.get(c, 0)
            new = old - g * v
            if p is not None:
                new %= p
            if new:
                if not old:
                    col_rows[c].add(j)
                row[c] = new
            elif old:
                del row[c]
                col_rows[c].discard(j)
        if not row:
            del rows[j]
            continue
        if queue is not None and len(row) <= 2:
            queue.append(j)
        if p is None:
            content = math.gcd(*row.values())
            if content > 1:
                for c in row:
                    row[c] //= content


def _presolve(rows, col_rows, p, pivots=None) -> int:
    """Structured elimination of weight-1 and weight-2 rows; returns their
    rank and adds the rows it pivots on to ``pivots`` when given.

    Each such row pivots on its column with fewer rows to update: a weight-1
    row deletes its column, a weight-2 row merges its pivot column into its
    other one.  Rows whose weight drops to <= 2 re-enter the queue.  Works
    in place and keeps ``col_rows`` exact.
    """
    rank = 0
    queue = [i for i, row in rows.items() if len(row) <= 2]
    while queue:
        i = queue.pop()
        row = rows.get(i)
        if row is None or len(row) > 2:
            continue
        _pivot(rows, col_rows, i, min(row, key=lambda c: len(col_rows[c])), p, queue)
        rank += 1
        if pivots is not None:
            pivots.add(i)
    return rank


def _eliminate(rows, p, pivots=None) -> int:
    """Rank of ``rows`` ({index: {col: nonzero value}}) over Q (p is None)
    or F_p; the row dicts are consumed, and the indices of the rows pivoted
    on are added to ``pivots`` when given.

    After the presolve, the sweep visits the columns in increasing order and
    pivots on the sparsest active row of each.  Columns left of the current
    one are empty and fill-in only copies columns of the pivot row, so no
    column is met twice and no new column appears.
    """
    if p is None:
        for row in rows.values():  # clear denominators rowwise (rank-invariant)
            den = math.lcm(*(v.denominator for v in row.values()))
            for c, v in row.items():
                row[c] = v.numerator * (den // v.denominator)
    col_rows = {}
    for i, row in rows.items():
        for c in row:
            col_rows.setdefault(c, set()).add(i)
    rank = _presolve(rows, col_rows, p, pivots)
    for pc in sorted(col_rows):
        cand = col_rows[pc]
        if cand:
            i = min(cand, key=lambda i: (len(rows[i]), i))
            _pivot(rows, col_rows, i, pc, p)
            rank += 1
            if pivots is not None:
                pivots.add(i)
    return rank


def _rank_f2(entries, transpose, pivots=None) -> int:
    """Rank over F_2 of the matrix whose nonzero entries sit at the keys of
    ``entries``; the values are not read.

    The keys are grouped into one list per row, or per column when
    ``transpose`` is set (pass it when the matrix is wider than tall, so that
    the lines run along the longer side).  In increasing index order, each
    line is packed, only when its turn comes, into one int with index 0 on
    the highest bit, then reduced against a basis of packed lines keyed by
    leading bit: each step is one XOR.  The basis holds at most
    min(rows, cols) ints of as many bits, at most min(rows, cols)**2 / 8
    bytes.  ``pivots``, when given, receives the row indices of the basis:
    the lines that enter it, or, for column lines, their leading bits.
    """
    lines = {}
    for r, c in entries:
        if transpose:
            r, c = c, r
        lines.setdefault(r, []).append(c)
    top = max(map(max, lines.values()), default=0)
    basis = {}
    entering = pivots is not None and not transpose
    for k in sorted(lines):
        x = 0
        for i in lines[k]:
            x |= 1 << (top - i)
        size = len(basis)
        while x:
            y = basis.setdefault(x.bit_length(), x)
            if y is x:  # entered, or a cached small int equal to y: then x ^ y = 0
                break
            x ^= y
        if entering and len(basis) > size:
            pivots.add(k)
    if pivots is not None and transpose:
        pivots.update(top + 1 - b for b in basis)
    return len(basis)


def homology_dim(differentials) -> list:
    """Homology dimensions [h_0, ..., h_m] of 0 <- C_0 <- C_1 <- ... <- C_m <- 0.

    ``differentials`` is [d_1, ..., d_m] with d_i : C_i -> C_{i-1}, so d_i
    is a dim C_{i-1} x dim C_i matrix.  Every consecutive composite
    d_i * d_{i+1} must vanish, and it is checked first: the ranks below
    rely on it.  Each d_i is then ranked once, from d_m down, with clearing
    (Chen & Kerber, EuroCG 2011; Bauer, Kerber & Reininghaus, 2014): d_i
    skips the columns P that d_{i+1}'s rank returns as pivot rows.  Since
    d_{i+1}[P, :] has full rank, im d_{i+1} projects isomorphically onto
    the coordinates P, so C_i = im d_{i+1} + span{e_j : j not in P} is a
    direct sum; d_i kills the first summand, and its rank is that of its
    columns outside P, over every field.  The two end maps have rank 0.
    """
    ds = list(differentials)
    if not ds:
        raise ValueError("a complex needs at least one differential")
    for i in range(1, len(ds)):
        if not ds[i - 1].compose(ds[i]).is_zero():
            raise ComplexError(f"d_{i} * d_{i + 1} != 0")
    ranks = [0] * (len(ds) + 2)
    pivots = set()
    for i in range(len(ds), 0, -1):
        cleared, pivots = pivots, set()
        ranks[i] = ds[i - 1].rank(cleared, pivots)
    dims = [ds[0].rows] + [d.cols for d in ds]
    out = [dims[i] - ranks[i] - ranks[i + 1] for i in range(len(dims))]
    if min(out) < 0:
        raise ConsistencyError(f"negative homology dimension in {out}")
    return out
