"""Exact scalar fields and sparse matrices.

Scalars are plain Python values over the rationals, `int` when integral
and `fractions.Fraction` otherwise, and `int` residues in [0, p) over a
prime field F_p, p < 2**64.  Containers (matrices, algebra elements) carry
the `Field` that interprets them, and their constructors are the only place
where a scalar is reduced into it (`Field.coerce`); in between, scalars
meet only plain `+`, `-` and `*`.

Every rank goes through one eliminator, over Q or F_p alike, and one pivot
step (`_pivot`) is the only code that updates a row.  A structured presolve
(LaMacchia & Odlyzko, CRYPTO '90) first pivots on every row of weight 1 or
2: a weight-1 row takes out its column, a weight-2 row merges two columns.
One left-to-right sweep over the columns then pivots on the sparsest active
row of each column, ties broken by lowest row index; fill-in lands only
right of the pivot column, so the pivot search never rescans.  Over Q the
rows are cleared of denominators and kept primitive: each updated row is
divided by the gcd of its entries, which bounds coefficient swell by the
minors of the integer matrix.  Over F_p each pivot row is scaled to a
leading 1 and rows hold residues.
"""

from __future__ import annotations

import math
from fractions import Fraction


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
    def rationals(cls) -> "Field":
        return cls(None)

    @classmethod
    def prime(cls, p: int) -> "Field":
        return cls(p)

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
        """Normalize an int or Fraction into this field; integral rationals become int."""
        if self.p is None:
            if type(x) is not int:
                x = Fraction(x)
                if x.denominator == 1:
                    x = x.numerator
            return x
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(den, -1, self.p) % self.p
        return x % self.p

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return f"Field({self.spec()!r})"


class SparseMatrix:
    """Immutable sparse matrix over an exact field.

    ``entries`` maps (row, col) to a nonzero scalar of ``field``.  All
    operations return new values; instances are safe to share between
    concurrent workers.
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

    @classmethod
    def zero(cls, rows: int, cols: int, field: Field) -> "SparseMatrix":
        return cls(rows, cols, field)

    @classmethod
    def identity(cls, n: int, field: Field) -> "SparseMatrix":
        return cls(n, n, field, {(i, i): 1 for i in range(n)})

    @classmethod
    def from_rows(cls, dense, field: Field, cols: int | None = None) -> "SparseMatrix":
        """Build from a list of dense row lists."""
        rows = len(dense)
        if cols is None:
            cols = len(dense[0]) if dense else 0
        ent = {}
        for r, row in enumerate(dense):
            for c, v in enumerate(row):
                if v:
                    ent[(r, c)] = v
        return cls(rows, cols, field, ent)

    def is_zero(self) -> bool:
        return not self.entries

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(
            self.cols, self.rows, self.field,
            {(c, r): v for (r, c), v in self.entries.items()},
        )

    def compose(self, other: "SparseMatrix") -> "SparseMatrix":
        """Exact matrix product self * other (apply other first)."""
        if self.field != other.field:
            raise ShapeError("mismatched fields")
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        by_row = {}
        for (k, c), v in other.entries.items():
            by_row.setdefault(k, []).append((c, v))
        acc = {}
        for (r, k), a in self.entries.items():
            for c, b in by_row.get(k, ()):
                acc[r, c] = acc.get((r, c), 0) + a * b
        return SparseMatrix(self.rows, other.cols, self.field, acc)

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.field == other.field
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, {len(self.entries)} nonzero, {self.field.spec()})"

    def rank(self) -> int:
        rows = {}
        for (r, c), v in self.entries.items():
            rows.setdefault(r, {})[c] = v
        return _eliminate(rows, self.field.p)


def _pivot(rows, col_rows, i, x, p, queue=None) -> None:
    """Eliminate column ``x`` from every other row with row ``i``, then drop both.

    Each updated row becomes ``a * row - g * (row i)``, where over F_p row i
    is first scaled so that a = 1; over Q it is then divided by its content:
    it is proportional to bordered minors of the input, so its primitive part
    stays bounded.  Updated rows of weight <= 2 are appended to ``queue``.
    """
    prow = rows.pop(i)
    for c in prow:
        col_rows[c].discard(i)
    a = prow.pop(x)
    if p is not None and a != 1:
        inv = pow(a, -1, p)
        prow = {c: v * inv % p for c, v in prow.items()}
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


def _presolve(rows, col_rows, p) -> int:
    """Structured elimination of weight-1 and weight-2 rows; returns their rank.

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
    return rank


def _eliminate(rows, p) -> int:
    """Rank of ``rows`` ({index: {col: nonzero value}}) over Q (p is None)
    or F_p; the row dicts are consumed.

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
    rank = _presolve(rows, col_rows, p)
    for pc in sorted(col_rows):
        cand = col_rows[pc]
        if cand:
            _pivot(rows, col_rows, min(cand, key=lambda i: (len(rows[i]), i)), pc, p)
            rank += 1
    return rank


def homology_dim(differentials) -> list:
    """Homology dimensions [h_0, ..., h_m] of 0 <- C_0 <- C_1 <- ... <- C_m <- 0.

    ``differentials`` is [d_1, ..., d_m] with d_i : C_i -> C_{i-1}, so d_i
    is a dim C_{i-1} x dim C_i matrix.  Every consecutive composite
    d_i * d_{i+1} must vanish; each d_i is ranked once, and the two end
    maps have rank 0.
    """
    ds = list(differentials)
    if not ds:
        raise ValueError("a complex needs at least one differential")
    for i in range(1, len(ds)):
        if not ds[i - 1].compose(ds[i]).is_zero():
            raise ComplexError(f"d_{i} * d_{i + 1} != 0")
    ranks = [0] + [d.rank() for d in ds] + [0]
    dims = [ds[0].rows] + [d.cols for d in ds]
    out = [dims[i] - ranks[i] - ranks[i + 1] for i in range(len(dims))]
    if min(out) < 0:
        raise ConsistencyError(f"negative homology dimension in {out}")
    return out
