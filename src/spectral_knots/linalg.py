"""Exact scalar fields and sparse matrices.

Scalars are plain Python values: `fractions.Fraction` over the rationals,
`int` residues in [0, p) over a prime field.  Containers (matrices, algebra
elements) carry the `Field` that interprets them; there is no per-scalar
wrapper object.

Rank over the rationals uses fraction-free (Bareiss-style) elimination on
integer rows: intermediate entries are minors of the cleared-denominator
matrix, which bounds coefficient swell.  Rows untouched by a pivot step are
rescaled lazily, so sparsity is preserved.  Pivot choice is deterministic:
leftmost column, then sparsest row, ties broken by lowest row index.
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


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Field:
    """The rationals (p is None) or the prime field F_p."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None and not _is_prime(p):
            raise ValueError(f"{p} is not prime")
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
        s = spec.strip().lower()
        if s == "q":
            return cls(None)
        if s.startswith("fp:"):
            try:
                p = int(s[3:])
            except ValueError:
                raise ValueError(f"bad field spec {spec!r}") from None
            return cls(p)
        raise ValueError(f"bad field spec {spec!r}")

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    def spec(self) -> str:
        return "q" if self.p is None else f"fp:{self.p}"

    def coerce(self, x):
        """Normalize an int or Fraction into this field."""
        if self.p is None:
            return Fraction(x)
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(den, -1, self.p) % self.p
        return x % self.p

    def zero(self):
        return Fraction(0) if self.p is None else 0

    def one(self):
        return Fraction(1) if self.p is None else 1

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def inv(self, a):
        if self.p is None:
            return 1 / Fraction(a)
        return pow(a, -1, self.p)

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
        return cls(n, n, field, {(i, i): field.one() for i in range(n)})

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
        f = self.field
        by_row = {}
        for (k, c), v in other.entries.items():
            by_row.setdefault(k, []).append((c, v))
        acc = {}
        for (r, k), a in self.entries.items():
            for c, b in by_row.get(k, ()):
                key = (r, c)
                acc[key] = f.add(acc.get(key, f.zero()), f.mul(a, b))
        return SparseMatrix(self.rows, other.cols, f, acc)

    def __mul__(self, other):
        return self.compose(other)

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.field == other.field
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, {len(self.entries)} nonzero, {self.field.spec()})"

    def _row_dicts(self):
        rows = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def rank(self) -> int:
        if not self.entries:
            return 0
        if self.field.is_rationals:
            return _rank_rational(self._row_dicts())
        return _rank_prime(self._row_dicts(), self.field.p)


def _pick_pivot(active, col_rows):
    """Deterministic pivot: leftmost column, sparsest row, lowest index."""
    pc = min(c for i in active for c in active[i])
    cand = [i for i in col_rows[pc] if i in active]
    pr = min(cand, key=lambda i: (len(active[i]), i))
    return pc, pr


def _rank_rational(rows) -> int:
    # Clear denominators rowwise (rank-invariant), then run fraction-free
    # elimination with lazy pivot rescaling of untouched rows.
    int_rows = []
    for row in rows:
        if not row:
            continue
        den = math.lcm(*(Fraction(v).denominator for v in row.values()))
        int_rows.append({c: int(v * den) for c, v in row.items()})

    active = {i: r for i, r in enumerate(int_rows)}
    state = {i: 0 for i in active}  # elimination steps already applied
    col_rows = {}
    for i, r in active.items():
        for c in r:
            col_rows.setdefault(c, set()).add(i)
    pivots = [1]  # pivots[s] = pivot value of step s

    def catch_up(i, step):
        # untouched rows scale by pivots[step]/pivots[state[i]]; division exact
        s = state[i]
        if s == step:
            return
        num, den = pivots[step], pivots[s]
        row = active[i]
        for c in row:
            q, rem = divmod(row[c] * num, den)
            if rem:
                raise ConsistencyError("fraction-free invariant violated")
            row[c] = q
        state[i] = step

    rank = 0
    while active:
        pc, pr = _pick_pivot(active, col_rows)
        catch_up(pr, rank)
        prow = active.pop(pr)
        piv = prow[pc]
        prev = pivots[rank]
        for j in [j for j in col_rows[pc] if j in active]:
            catch_up(j, rank)
            row = active[j]
            f = row[pc]
            new = {}
            for c in set(row) | set(prow):
                v = piv * row.get(c, 0) - f * prow.get(c, 0)
                if v:
                    q, rem = divmod(v, prev)
                    if rem:
                        raise ConsistencyError("fraction-free invariant violated")
                    new[c] = q
            for c in row:
                if c not in new:
                    col_rows[c].discard(j)
            for c in new:
                col_rows.setdefault(c, set()).add(j)
            if new:
                active[j] = new
                state[j] = rank + 1
            else:
                del active[j]
        pivots.append(piv)
        rank += 1
    return rank


def _rank_prime(rows, p: int) -> int:
    active = {i: dict(r) for i, r in enumerate(rows) if r}
    col_rows = {}
    for i, r in active.items():
        for c in r:
            col_rows.setdefault(c, set()).add(i)
    rank = 0
    while active:
        pc, pr = _pick_pivot(active, col_rows)
        prow = active.pop(pr)
        inv = pow(prow[pc], -1, p)
        for j in [j for j in col_rows[pc] if j in active]:
            row = active[j]
            f = row[pc] * inv % p
            new = {}
            for c in set(row) | set(prow):
                v = (row.get(c, 0) - f * prow.get(c, 0)) % p
                if v:
                    new[c] = v
            for c in row:
                if c not in new:
                    col_rows[c].discard(j)
            for c in new:
                col_rows.setdefault(c, set()).add(j)
            if new:
                active[j] = new
            else:
                del active[j]
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
