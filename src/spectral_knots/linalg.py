"""Exact scalar fields and sparse matrices.

Scalars are plain Python values over the rationals, `int` when integral
and `fractions.Fraction` otherwise, and `int` residues in [0, p) over a
prime field F_p, p < 2**64.  A matrix carries the `Field` that interprets
it, and its constructor is the only place where a scalar is reduced into
it, a column at a time (`Field.coerce`, which keeps a column of ints as it
is over Q and takes it mod p over F_p); in between, scalars meet only plain
`+`, `-` and `*`.

A matrix is held as its columns, one {row: nonzero} dict each, the lines
its builders make (compressed-column storage: T. A. Davis, Direct Methods
for Sparse Linear Systems, SIAM 2006); ``compose`` and ``rank`` read them
as they stand, and the {(row, col): value} view ``entries`` is built only
when something reads it.

Over F_2 a rank is an XOR basis of packed-int lines (`_rank_f2`): one XOR
per line update.  The lines are the columns or the rows, whichever side is
shorter, so that few of them are dependent, while that basis, at most
min(rows, cols) ints of max(rows, cols) bits, fits `_F2_BASIS_BUDGET`;
past it they run along the longer side, with at most min(rows, cols)**2 / 8
bytes of basis (`_f2_columns_as_lines`).

Every other rank goes through one eliminator, over Q or odd F_p alike,
and one pivot step (`_pivot`) is the only code that updates a row.  It
takes the kept columns of the matrix as its rows.  A structured presolve
(LaMacchia & Odlyzko, CRYPTO '90) first pivots on every row of weight 1 or
2: a weight-1 row takes out its column, a weight-2 row merges two columns.
One left-to-right sweep over the columns then pivots on the sparsest
active row of each column, ties broken by lowest row index; fill-in lands
only right of the pivot column, so the pivot search never rescans.  Over Q
the rows are cleared of denominators and kept primitive: each updated row
is divided by the gcd of its entries, which bounds coefficient swell by the
minors of the integer matrix, and a pivot row leading with -1 is negated,
so the rows it updates are not rescaled.  Over F_p each pivot row is
scaled to a leading 1 and rows hold residues.

Both rank routines can report pivot rows of the matrix, as many as the
rank, on which the ranked columns have full rank: the eliminator's pivot
positions, or over F_2 the leading positions of a column basis or the rows
entering a row basis.  ``homology_dim`` uses them for clearing: the columns
of d_i that are pivot rows of d_{i+1} carry no rank of d_i and are skipped
(the lemma is in its docstring).  The lemma holds only on a complex, so
every composite d_i * d_{i+1} is checked to vanish before the first rank.
"""

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

# largest XOR basis, in bytes, for which an F_2 rank runs its lines along
# the shorter side (``_f2_columns_as_lines``): the Sinha diagonal at n = 6
# needs 6.2 MB and the circular chord matrix at n = 7 8.7 MB, while the
# Sinha diagonal at n = 7 would need 1.26 GB and keeps the longer side
_F2_BASIS_BUDGET = 64 << 20


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


# the scalar types of a line of ints, which needs no Fraction arithmetic
_INT = frozenset((int,))


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

    def coerce(self, line: dict) -> dict:
        """The scalars of a line {index: scalar} normalized into this field,
        as a new dict with the zeros kept; integral rationals become int.

        A line of ints is copied as it is over Q and taken mod p over F_p.
        Otherwise over Q any value ``Fraction`` takes exactly is accepted, and
        over F_p only an int (bool included) or a Fraction is: any other
        scalar raises TypeError, since a float's residue is neither an int
        nor exact.
        """
        p = self.p
        if set(map(type, line.values())) <= _INT:
            return dict(line) if p is None else {r: v % p for r, v in line.items()}
        from fractions import Fraction  # loaded only once a non-int scalar arrives

        out = {}
        for r, x in line.items():
            if p is None:
                x = Fraction(x)
                out[r] = x.numerator if x.denominator == 1 else x
            elif isinstance(x, Fraction):
                den = x.denominator % p
                if den == 0:
                    raise ZeroDivisionError(f"denominator of {x} vanishes mod {p}")
                out[r] = x.numerator * pow(den, -1, p) % p
            elif isinstance(x, int):
                out[r] = x % p
            else:
                raise TypeError(f"cannot reduce a {type(x).__name__} into {self.spec()}")
        return out

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return f"Field({self.spec()!r})"


class SparseMatrix:
    """Sparse matrix over an exact field, held as its columns.

    ``columns`` is a list of ``cols`` dicts; column c maps a row index to a
    nonzero scalar of ``field``.  The constructor copies the columns it is
    given, reduces their scalars into ``field`` and drops the zeros.  All
    operations return new values.
    """

    __slots__ = ("rows", "cols", "field", "columns", "_entries")

    def __init__(self, rows: int, cols: int, field: Field, columns=None):
        if columns is None:
            columns = [{}] * cols
        elif len(columns) != cols:
            raise ShapeError(f"{len(columns)} columns given for a {rows}x{cols} matrix")
        self.rows = rows
        self.cols = cols
        self.field = field
        clean = []
        for c, col in enumerate(columns):
            if col and not (min(col) >= 0 and max(col) < rows):
                r = min(col) if min(col) < 0 else max(col)
                raise ShapeError(f"entry ({r},{c}) outside {rows}x{cols}")
            col = field.coerce(col)
            if not all(col.values()):
                col = {r: v for r, v in col.items() if v}
            clean.append(col)
        self.columns = clean
        self._entries = None

    @property
    def entries(self):
        """Read-only {(row, col): value} view of the nonzero entries, built
        on the first read and kept; no command reads it."""
        if self._entries is None:
            from types import MappingProxyType

            self._entries = MappingProxyType(
                {(r, c): v for c, col in enumerate(self.columns) for r, v in col.items()})
        return self._entries

    def is_zero(self) -> bool:
        return not any(self.columns)

    def compose(self, other: "SparseMatrix") -> "SparseMatrix":
        """Exact matrix product self * other (apply other first)."""
        if self.field != other.field:
            raise ShapeError("mismatched fields")
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        left = self.columns
        p = self.field.p
        out = []
        for col in other.columns:  # column c of the product is self * (column c of other)
            acc = {}
            for k, b in col.items():
                for r, a in left[k].items():
                    acc[r] = acc.get(r, 0) + a * b
            # a sum that cancels, or vanishes mod p, never reaches the constructor
            out.append({r: v for r, v in acc.items() if v and (p is None or v % p)})
        return SparseMatrix(self.rows, other.cols, self.field, out)

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.field == other.field
            and self.columns == other.columns
        )

    def __repr__(self):
        nnz = sum(map(len, self.columns))
        return f"SparseMatrix({self.rows}x{self.cols}, {nnz} nonzero, {self.field.spec()})"

    def rank(self, skip=(), pivots=None) -> int:
        """Rank of the columns outside ``skip``.

        ``pivots``, when given, is a set that receives as many rows as the
        rank, on which those columns have full rank: the pivot positions of
        ``_eliminate``, or over F_2 the leading positions of the XOR basis
        when its lines are the columns, and the rows entering it when they
        are the rows (``_f2_columns_as_lines``).
        """
        lines = {c: col for c, col in enumerate(self.columns) if col and c not in skip}
        if self.field.p != 2:
            return _eliminate({c: dict(col) for c, col in lines.items()}, self.field.p, pivots)
        if _f2_columns_as_lines(self.rows, len(lines)):
            basis = _rank_f2(lines, self.rows)
            if pivots is not None:
                pivots.update(self.rows - b for b in basis)
            return len(basis)
        rows = {}
        for c, col in lines.items():
            for r in col:
                rows.setdefault(r, []).append(c)
        return len(_rank_f2(rows, self.cols, pivots))


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
    rank and adds the columns it pivots on to ``pivots`` when given.

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
        x = min(row, key=lambda c: len(col_rows[c]))
        _pivot(rows, col_rows, i, x, p, queue)
        rank += 1
        if pivots is not None:
            pivots.add(x)
    return rank


def _eliminate(rows, p, pivots=None) -> int:
    """Rank of ``rows`` ({index: {col: nonzero value}}) over Q (p is None)
    or F_p; the row dicts are consumed, and the columns pivoted on are added
    to ``pivots`` when given.  ``SparseMatrix.rank`` passes its kept columns
    as these rows, so the columns pivoted on are matrix rows: the pivot
    positions, on which the ranked columns have full rank.

    After the presolve, the sweep visits the columns in increasing order and
    pivots on the sparsest active row of each.  Columns left of the current
    one are empty and fill-in only copies columns of the pivot row, so no
    column is met twice and no new column appears.
    """
    if p is None:
        for row in rows.values():  # clear denominators rowwise (rank-invariant)
            if set(map(type, row.values())) <= _INT:  # a row of ints has none
                continue
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
                pivots.add(pc)
    return rank


def _f2_columns_as_lines(rows: int, cols: int) -> bool:
    """Whether an F_2 rank of a rows x cols matrix packs its columns as the
    lines of ``_rank_f2``, not its rows.

    The lines run along the shorter side, so that few of them are
    dependent, while that basis bound, min(rows, cols) ints of
    max(rows, cols) bits, is within ``_F2_BASIS_BUDGET``; past it they run
    along the longer side, whose basis is at most min(rows, cols)**2 / 8
    bytes.
    """
    shorter = cols <= rows
    return shorter if rows * cols <= 8 * _F2_BASIS_BUDGET else not shorter


def _rank_f2(lines, width, entering=None) -> dict:
    """XOR basis over F_2 of ``lines`` ({index: positions in range(width)}),
    keyed by leading bit; the rank is its size.

    In increasing index order, each line is packed, only when its turn
    comes, into one int with position i on bit width - 1 - i, so a key b
    is the leading position width - b.  It is then reduced against the
    basis: each step is one XOR.  The positions of a line are only
    iterated, so a column dict of ``SparseMatrix`` is a line as it stands.
    ``entering``, when given, receives the index of each line that enters
    the basis.
    """
    top = width - 1
    basis = {}
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
        if entering is not None and len(basis) > size:
            entering.add(k)
    return basis


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
