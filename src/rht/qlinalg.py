"""Exact linear algebra over the rationals.

Everything here is Gaussian elimination and Fourier-Motzkin elimination;
there is no floating point anywhere.  Rows are eliminated as primitive
integer rows: a rational row is scaled by the lcm of its denominators and
divided by its content (the gcd of its entries), two rows are combined by
cross-multiplication, a * row_i - b * row_r, and the result is divided by
its content again.  This is gcd-reduced fraction-free elimination in the
spirit of E. H. Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22 (1968).  Results
are exact `Fraction`s: a pivot row is divided by its pivot only when it is
returned, and since the reduced row echelon form is canonical it is the
one rational elimination would reach.

There is one Gauss-Jordan loop, `EchelonSpan`: it keeps a span in
reduced echelon form and grows it one candidate at a time, so choosing
the candidates that extend a span costs one reduction per candidate
rather than one elimination of the whole span.  A `QMatrix` stores dense
rows, the right trade at the sizes this package meets (tens to a few
hundred rows), and every elimination of a matrix enters through one door,
`_echelon`, which adds its rows to an `EchelonSpan` and stops once the
rank reaches the column count; a matrix keeps that span, so it is
eliminated at most once.  A span's reduced rows have one reader,
`EchelonSpan.kernel_vector`, and every kernel answer is built from it:
`kernel_basis`; `quotient_basis`, which picks the kernel vectors whose
classes form a basis of a quotient ker / im, and the sparse rows that read
a class in their basis, from one elimination of the image's columns on the
kernel's free columns; and `invert`, from one elimination of [m | -I].

`positive_integer_kernel` answers the question the weight solver needs:
does the kernel of an integer matrix meet the open positive orthant, and
if so, which coprime positive integer vector does the deterministic
elimination order produce.  Each connected component of the row-column
incidence graph is solved once, and the joined points are the whole
matrix's, since a block matrix's elimination stays inside its blocks.
When some component is infeasible, the answer is certified by the greedy
minimal infeasible row set of row order (the deletion filter of J. W.
Chinneck and E. W. Dravnieks, ORSA J. Computing 3 (1991)), run on each
infeasible component alone: the whole matrix's is the one of these whose
first kept row is latest.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)


class QMatrix:
    """Immutable rational matrix stored as dense rows.

    `from_rows` is the one constructor.  Each row is a list of ints or
    Fractions, kept as given; every algorithm reads the rows through one
    door, `_echelon`, which feeds them to the one elimination loop,
    `EchelonSpan`, and stops at full column rank.  `echelon` keeps that
    span, and no caller extends it.  The class is a value type:
    operations return new matrices.
    """

    __slots__ = ("rows", "cols", "_rows", "_span")

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "QMatrix":
        """The matrix with a copy of each row.  `cols` is the shape, read
        from the first row when omitted; a matrix with no rows needs it."""
        dense = [list(row) for row in rows]
        if cols is None:
            cols = len(dense[0]) if dense else 0
        if cols < 0:
            raise ValueError("negative dimension")
        if any(len(row) != cols for row in dense):
            raise ValueError(f"every row must have length {cols}")
        m = cls.__new__(cls)
        m.rows, m.cols, m._rows, m._span = len(dense), cols, dense, None
        return m

    def echelon(self) -> "EchelonSpan":
        """The span of the rows, eliminated on first use; read, never extended."""
        if self._span is None:
            self._span = _echelon(self._rows, self.cols)
        return self._span

    def entry(self, i: int, j: int) -> Fraction:
        return self._rows[i][j]

    def dense_rows(self) -> list[list[Fraction]]:
        return [list(row) for row in self._rows]

    def row(self, i: int) -> Vector:
        return tuple(self._rows[i])

    def submatrix(self, rows: list[int], cols: list[int]) -> "QMatrix":
        """The entries at the given rows and columns, in the given order."""
        return QMatrix.from_rows(
            [[self._rows[i][j] for j in cols] for i in rows], len(cols)
        )

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise ValueError("length mismatch")
        return tuple(sum((a * x for a, x in zip(row, v) if a), _ZERO) for row in self._rows)

    def __eq__(self, other):
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._rows == other._rows
        )

    def __repr__(self):
        return f"QMatrix({self.rows}x{self.cols}, {self._rows})"


def _primitive(row: list[int]) -> list[int]:
    """Divide an integer row by its content; the zero row stays as it is."""
    g = 0
    for x in row:
        if x:
            g = gcd(g, x)
            if g == 1:
                return row
    if g > 1:
        return [x // g for x in row]
    return row


def _integer_row(v) -> list[int]:
    """The primitive integer row on the ray of a row of ints or Fractions."""
    l = lcm(*[x.denominator for x in v])
    return _primitive([x.numerator * (l // x.denominator) for x in v])


def _eliminate(row: list[int], c: int, pivot_row: list[int]) -> list[int]:
    """Clear column c of row against a row with a positive pivot at c.

    The result is primitive and a positive multiple of
    pivot_row[c] * row - row[c] * pivot_row.
    """
    p, a = pivot_row[c], row[c]
    g = gcd(p, a)
    p //= g
    a //= g
    return _primitive([p * x - a * y for x, y in zip(row, pivot_row)])


def _echelon(rows, ncols: int) -> EchelonSpan:
    """The one door into elimination: the rows of ints or Fractions added
    one at a time to an `EchelonSpan`, stopping once the rank reaches the
    column count, since no later row can then extend the span."""
    span = EchelonSpan(ncols)
    for row in rows:
        if len(span.pivots) == ncols:
            break
        span.add(row)
    return span


def rref(m: QMatrix) -> tuple[QMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the tuple of pivot columns.

    Pivot entries are 1 and are alone in their column; the row order is the
    pivot-column order, so the result is canonical for the row space.  The
    nonzero rows are padded with zero rows to the row count of m.
    """
    span = _echelon(m._rows, m.cols)
    zero_rows = [[_ZERO] * m.cols for _ in range(m.rows - len(span.pivots))]
    return QMatrix.from_rows(span.rows + zero_rows, m.cols), tuple(span.pivots)


def rank(m: QMatrix) -> int:
    return len(m.echelon().pivots)


def kernel_basis(m: QMatrix) -> list[Vector]:
    """Basis of the right kernel: `EchelonSpan.kernel_vector` at each free
    column, in column order."""
    span = m.echelon()
    return [span.kernel_vector(f) for f in span.free_columns()]


class EchelonSpan:
    """A span of row vectors kept in reduced row echelon form.

    The span is stored as `integer_rows`: primitive integer rows, each
    with a positive entry in its pivot column and zeros in every other
    pivot column.  `rows` divides each by its pivot; rows are ordered by
    their pivot columns, so they always equal the nonzero rows of the RREF
    of the vectors added so far.  This is the one Gauss-Jordan loop of the
    package: `_echelon` feeds it the rows of every matrix it eliminates.
    """

    __slots__ = ("ncols", "integer_rows", "pivots")

    def __init__(self, ncols: int, vectors=()):
        self.ncols = ncols
        self.integer_rows: list[list[int]] = []
        self.pivots: list[int] = []
        for v in vectors:
            self.add(v)

    @property
    def rows(self) -> list[list[Fraction]]:
        return [[Fraction(x, row[p]) for x in row] for row, p in zip(self.integer_rows, self.pivots)]

    def add(self, v) -> bool:
        """Insert v (ints or Fractions) if it lies outside the span; report
        whether it did."""
        if len(v) != self.ncols:
            raise ValueError("length mismatch")
        if not any(v):
            return False
        r = _integer_row(v)
        for row, p in zip(self.integer_rows, self.pivots):
            if r[p]:
                r = _eliminate(r, p, row)
        c = next((j for j, x in enumerate(r) if x), None)
        if c is None:
            return False
        if r[c] < 0:
            r = [-x for x in r]
        for i, row in enumerate(self.integer_rows):
            if row[c]:
                self.integer_rows[i] = _eliminate(row, c, r)
        k = bisect(self.pivots, c)
        self.integer_rows.insert(k, r)
        self.pivots.insert(k, c)
        return True

    def free_columns(self) -> list[int]:
        """The columns that hold no pivot, in increasing order."""
        pivots = set(self.pivots)
        return [c for c in range(self.ncols) if c not in pivots]

    def kernel_vector(self, f: int) -> Vector:
        """The kernel vector of the span at free column f: 1 there, minus
        the reduced entry at f of each pivot's row in that pivot's slot,
        and zero at every other free column."""
        v = [_ZERO] * self.ncols
        v[f] = Fraction(1)
        for row, p in zip(self.integer_rows, self.pivots):
            if row[f]:
                v[p] = Fraction(-row[f], row[p])
        return tuple(v)


def independent_columns(m: QMatrix) -> list[Vector]:
    """The pivot columns of m: each column independent of those before it."""
    return [tuple(row[j] for row in m._rows) for j in m.echelon().pivots]


def quotient_basis(d_in: QMatrix, d_out: QMatrix) -> tuple[list[Vector], list[dict[int, Fraction]]]:
    """Kernel vectors of d_out whose classes form a basis of ker d_out / im d_in,
    and rows T with T . rep_j = e_j and T . b = 0 on every column b of d_in.

    A kernel vector is fixed by its entries on the free columns of d_out,
    where `kernel_basis(d_out)` is the unit basis.  So one elimination of
    `independent_columns(d_in)` on the free columns, taken last first,
    decides both: a kernel vector is picked when its free column is no
    pivot, which is when it is independent of the coboundaries and of the
    vectors before it, and its T row is that elimination's kernel vector at
    the pick, read back on the free columns of d_out.  A T row is sparse,
    {column of d_out: nonzero entry}, since it vanishes off the free columns.
    """
    kernel = d_out.echelon()
    free = kernel.free_columns()[::-1]
    span = _echelon([[b[f] for f in free] for b in independent_columns(d_in)], len(free))
    reps, t_rows = [], []
    for i in reversed(span.free_columns()):
        reps.append(kernel.kernel_vector(free[i]))
        t_rows.append({f: c for f, c in zip(free, span.kernel_vector(i)) if c})
    return reps, t_rows


def invert(m: QMatrix) -> list[Vector] | None:
    """The rows of the inverse of a square matrix, or None when it is
    singular.  The rows [m | -I] are eliminated once; m is invertible
    exactly when the pivots are the first n columns, and then column j of
    the inverse is the first n entries of the kernel vector at n + j."""
    n = m.rows
    if m.cols != n:
        raise ValueError(f"cannot invert a {n}x{m.cols} matrix")
    span = _echelon([row + [-int(i == j) for j in range(n)] for i, row in enumerate(m._rows)], 2 * n)
    if span.pivots != list(range(n)):
        return None
    columns = [span.kernel_vector(n + j)[:n] for j in range(n)]
    return list(zip(*columns))


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a positive-kernel search.

    Exactly one of `solution` and `witness` is set.  `solution` is a
    coprime strictly positive integer vector in the kernel.  `witness` is a
    subset of row indices of the input matrix, in ascending order, that is
    already infeasible on its own; removing any witness row makes the
    remainder feasible.  It is the greedy witness of row order: each row in
    turn is deleted when the rows kept without it stay infeasible.  Both
    come from one solve per component of the row-column incidence graph,
    and the witness lies in one component.
    """

    solution: tuple[int, ...] | None
    witness: tuple[int, ...] | None

    @property
    def feasible(self) -> bool:
        return self.solution is not None


def _fourier_motzkin(rows: list[list[int]], nvars: int) -> list[Fraction] | None:
    """Solve the strict homogeneous system {r . c > 0} by elimination.

    The rows are primitive integer rows.  Variables are eliminated left to
    right, each combined row divided by its content, so every row is the
    canonical representative of its direction and duplicate inequalities
    (up to positive scaling) are dropped as equal rows.  Returns one exact
    solution vector, or None when some combination collapses to 0 > 0.

    Its one caller passes the nonzero coordinate rows of a kernel basis, so
    each variable's unit row, its free column's row, is a lower row at its
    stage, and a row outliving the last stage would be a zero combination.
    """
    system = [tuple(r) for r in rows]
    # (var, lower rows, upper rows) stacks for back-substitution
    stages: list[tuple[int, list[tuple[int, ...]], list[tuple[int, ...]]]] = []
    for var in range(nvars):
        seen: set[tuple[int, ...]] = set()
        zero, lower, upper = [], [], []
        for r in system:
            if r in seen:
                continue
            seen.add(r)
            c = r[var]
            if c > 0:
                lower.append(r)
            elif c < 0:
                upper.append(r)
            else:
                zero.append(r)
        combined = list(zero)
        for p in lower:
            for n in upper:
                new = _eliminate(n, var, p)
                if not any(new):
                    return None
                combined.append(tuple(new))
        stages.append((var, lower, upper))
        system = combined
    values = [Fraction(0)] * nvars

    def tail(r: tuple[int, ...], var: int) -> Fraction:
        return sum((r[j] * values[j] for j in range(var + 1, nvars)), Fraction(0))

    for var, lower, upper in reversed(stages):
        lo = [(-tail(r, var)) / r[var] for r in lower]
        hi = [(-tail(r, var)) / r[var] for r in upper]
        values[var] = (max(lo) + min(hi)) / 2 if hi else max(lo) + 1
    return values


def _positive_kernel_point(m: QMatrix) -> list[Fraction] | None:
    """A strictly positive rational kernel vector of m, or None."""
    basis = kernel_basis(m)
    if not basis:
        return None
    coord_rows = [_integer_row([v[j] for v in basis]) for j in range(m.cols)]
    if not all(map(any, coord_rows)):
        return None
    combo = _fourier_motzkin(coord_rows, len(basis))
    if combo is None:
        return None
    point = [sum(v[j] * combo[k] for k, v in enumerate(basis)) for j in range(m.cols)]
    if not all(x > 0 for x in point):
        raise AssertionError("kernel point is not strictly positive")
    return point


def _row_components(m: QMatrix) -> tuple[list[int | None], dict[int, list[int]]]:
    """The connected components of the row-column incidence graph of m.

    Returns a label per row, the root column of a small union-find over the
    columns the row touches (None for an all-zero row, which touches none),
    and the columns of each label.
    """
    parent = list(range(m.cols))

    def find(j: int) -> int:
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    supports = [[j for j, x in enumerate(row) if x] for row in m._rows]
    for support in supports:
        for j in support[1:]:
            parent[find(j)] = find(support[0])
    columns: dict[int, list[int]] = {}
    for j in range(m.cols):
        columns.setdefault(find(j), []).append(j)
    return [find(s[0]) if s else None for s in supports], columns


def _deletion_filter(m: QMatrix, rows: list[int], cols: list[int]) -> tuple[int, ...]:
    """The greedy minimal infeasible subset of `rows` of m, on `cols`: each
    row in turn is dropped when the rows kept without it, if any, have no
    positive kernel point; an empty trial counts as feasible."""
    kept = list(rows)
    for i in rows:
        trial = [j for j in kept if j != i]
        if trial and _positive_kernel_point(m.submatrix(trial, cols)) is None:
            kept = trial
    return tuple(kept)


def positive_integer_kernel(m: QMatrix) -> FeasibilityResult:
    """Decide whether ker(m) meets the open positive orthant.

    The rows are split into the components of the row-column incidence
    graph, and each component's rows are solved once, on its own columns.
    Feasible: returns the joined component points, a column no row
    touches taking 1, normalised once by `_integer_row`.  That is
    the whole-matrix solve's vector: the RREF, the kernel vectors and every
    Fourier-Motzkin row of a block matrix stay inside one block.
    Infeasible: returns the greedy minimal infeasible row subset of row
    order, which is the `_deletion_filter` of the infeasible component
    whose own filter keeps the latest first row: the whole-matrix filter
    drops every row before it, then every row of the other components,
    whose rows after their own first kept row are feasible.
    """
    label, columns = _row_components(m)
    rows_of: dict[int, list[int]] = {}
    for i, c in enumerate(label):
        if c is not None:
            rows_of.setdefault(c, []).append(i)
    point = [Fraction(1)] * m.cols
    infeasible = []
    for c, rows in rows_of.items():
        part = _positive_kernel_point(m.submatrix(rows, columns[c]))
        if part is None:
            infeasible.append(c)
        for j, x in zip(columns[c], part or ()):
            point[j] = x
    if infeasible:
        witness = max((_deletion_filter(m, rows_of[c], columns[c]) for c in infeasible),
                      key=lambda w: w[0])
        return FeasibilityResult(solution=None, witness=witness)
    solution = tuple(_integer_row(point))
    if any(sum(a * x for a, x in zip(row, solution) if a) for row in m._rows):
        raise AssertionError("positive solution is not in the kernel")
    return FeasibilityResult(solution=solution, witness=None)
