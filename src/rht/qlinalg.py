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

There is one row format, {column: nonzero entry}, from a matrix through
a span's rows to its kernel vectors, so a step costs the nonzero entries
it touches, not the width (T. A. Davis, *Direct Methods for Sparse
Linear Systems*, SIAM, 2006).  There is one Gauss-Jordan loop,
`EchelonSpan`: it keeps a span in reduced echelon form and grows it one
candidate at a time, so choosing the candidates that extend a span costs
one reduction per candidate rather than one elimination of the whole
span.  Every elimination of a `QMatrix` enters through one door,
`_echelon`, which adds its rows to an `EchelonSpan` and stops once the
rank reaches the column count; a matrix keeps that span, so it is
eliminated at most once.  A span's reduced rows have one reader,
`EchelonSpan.kernel_vector`, and every kernel answer is built from it:
`kernel_basis`; `quotient_basis`, which picks the kernel vectors whose
classes form a basis of a quotient ker / im, and the rows that read a
class in their basis, from one elimination of the image's columns on the
kernel's free columns; and `invert`, from one elimination of [m | -I].
The answers are in the same row format, so a caller reads the nonzero
entries alone.

`positive_integer_kernel` answers the question the weight solver needs:
does the kernel of an integer matrix meet the open positive orthant, and
if so, which coprime positive integer vector does the deterministic
elimination order produce.  Each connected component of the row-column
incidence graph is solved once, and the joined points are the whole
matrix's, since a block matrix's elimination stays inside its blocks.
A solve reads its kernel basis by substitution in dependency order when
every row has the shape of a weight constraint, a single negative entry,
-1, at its source (`_substitution_kernel`), and from `kernel_basis`
otherwise; both give the same basis.  When some component is infeasible,
the answer is certified by the greedy minimal infeasible row set of row
order (the deletion filter of J. W. Chinneck and E. W. Dravnieks, ORSA
J. Computing 3 (1991)), run on each infeasible component alone: the
whole matrix's is the one of these whose first kept row is latest.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul


class QMatrix:
    """Immutable rational matrix stored as sparse rows.

    `from_rows` is the one constructor.  A row is given dense, a sequence
    of ints or Fractions, or sparse, a dict {column: entry}; either way it
    is stored as {column: nonzero entry}, the entries kept as given.  Every
    algorithm reads the rows through one door, `_echelon`, which feeds them
    to the one elimination loop, `EchelonSpan`, and stops at full column
    rank.  `echelon` keeps that span, and no caller extends it.  The class
    is a value type: operations return new matrices.
    """

    __slots__ = ("rows", "cols", "_rows", "_span")

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "QMatrix":
        """The matrix with a copy of each row.  `cols` is the shape, read
        from the first row when omitted; sparse rows and a matrix with no
        rows need it."""
        rows = list(rows)
        if cols is None:
            cols = len(rows[0]) if rows else 0
        if cols < 0:
            raise ValueError("negative dimension")
        if any(not isinstance(row, dict) and len(row) != cols for row in rows):
            raise ValueError(f"every row must have length {cols}")
        sparse = [{j: x for j, x in (row.items() if isinstance(row, dict) else enumerate(row)) if x} for row in rows]
        if any(min(row) < 0 or max(row) >= cols for row in sparse if row):
            raise ValueError(f"every column must lie in 0..{cols - 1}")
        return cls._of(sparse, cols)

    @classmethod
    def _of(cls, sparse: list[dict], cols: int) -> "QMatrix":
        m = cls.__new__(cls)
        m.rows, m.cols, m._rows, m._span = len(sparse), cols, sparse, None
        return m

    def echelon(self) -> "EchelonSpan":
        """The span of the rows, eliminated on first use; read, never extended."""
        if self._span is None:
            self._span = _echelon(self._rows, self.cols)
        return self._span

    def widened(self, row_at: Sequence[int], rows: int, cols: int) -> "QMatrix":
        """The matrix with `rows` rows and `cols` columns whose row row_at[i]
        is row i, the other rows and the appended columns zero.  Neither
        changes the RREF of the row space, so the span is carried: its rows
        and pivots as they are, eliminated no second time."""
        if cols < self.cols or len(row_at) != self.rows:
            raise ValueError(f"cannot widen a {self.rows}x{self.cols} matrix to {rows}x{cols}")
        out = [{} for _ in range(rows)]
        for i, row in zip(row_at, self._rows):
            out[i] = row
        old = self.echelon()
        m = QMatrix._of(out, cols)
        m._span = span = EchelonSpan(cols)
        span.pivots, span._row_at = list(old.pivots), dict(old._row_at)
        return m

    def supports(self) -> list[list[int]]:
        """The columns of each row's nonzero entries."""
        return [list(row) for row in self._rows]

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "QMatrix":
        """The entries at the given rows and columns, in the given order."""
        at = {j: k for k, j in enumerate(cols)}
        return QMatrix._of([{at[j]: x for j, x in self._rows[i].items() if j in at} for i in rows], len(cols))

    def __eq__(self, other):
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._rows == other._rows
        )

    def __repr__(self):
        return f"QMatrix({self.rows}x{self.cols}, {self._rows})"


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """Divide a sparse integer row by its content; the zero row stays as it is."""
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else row


def _integer_row(v: dict) -> dict[int, int]:
    """The primitive integer row on the ray of a sparse row of ints or
    Fractions, zero entries dropped."""
    l = lcm(*[x.denominator for x in v.values()])
    return _primitive({j: x.numerator * (l // x.denominator) for j, x in v.items() if x})


def _eliminate(row: dict[int, int], c: int, pivot_row: dict[int, int]) -> dict[int, int]:
    """Clear column c of a sparse row against a row with a positive pivot
    at c, touching only the two rows' nonzero entries.

    The result is primitive and a positive multiple of
    pivot_row[c] * row - row[c] * pivot_row.
    """
    p, a = pivot_row[c], row[c]
    g = gcd(p, a)
    p //= g
    a //= g
    out = {j: p * x for j, x in row.items()} if p != 1 else dict(row)
    for j, y in pivot_row.items():
        x = out.get(j, 0) - a * y
        if x:
            out[j] = x
        else:
            del out[j]
    return _primitive(out)


def _echelon(rows, ncols: int) -> EchelonSpan:
    """The one door into elimination: the sparse rows added one at a time
    to an `EchelonSpan`, fewest nonzero entries first, stopping once the
    rank reaches the column count, since no later row can then extend the
    span.  Sparse rows first fill in less; the RREF of the span, and with
    it every row and pivot kept, does not depend on the order."""
    span = EchelonSpan(ncols)
    for row in sorted(rows, key=len):
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
    rows = [{j: Fraction(x, row[p]) for j, x in row.items()} for row, p in zip(span.integer_rows, span.pivots)]
    return QMatrix._of(rows + [{} for _ in range(m.rows - len(rows))], m.cols), tuple(span.pivots)


def rank(m: QMatrix) -> int:
    return len(m.echelon().pivots)


def kernel_basis(m: QMatrix) -> list[dict[int, Fraction]]:
    """Basis of the right kernel: `EchelonSpan.kernel_vector` at each free
    column, in column order."""
    span = m.echelon()
    return [span.kernel_vector(f) for f in span.free_columns()]


class EchelonSpan:
    """A span of row vectors kept in reduced row echelon form.

    Each row is a primitive integer row {column: nonzero int}, found by its
    pivot column, positive there and zero in every other pivot column.  `add`
    and `kernel_vector` read no zero entry, only one lookup per stored row
    for the column they clear or read.  Each row divided by its pivot is a
    nonzero row of the RREF of the vectors added so far.  This is the one
    Gauss-Jordan loop of the package:
    `_echelon` feeds it the rows of every matrix it eliminates.
    """

    __slots__ = ("ncols", "pivots", "_row_at")

    def __init__(self, ncols: int, vectors=()):
        self.ncols = ncols
        self.pivots: list[int] = []
        self._row_at: dict[int, dict[int, int]] = {}
        for v in vectors:
            self.add(v)

    @property
    def integer_rows(self) -> list[dict[int, int]]:
        """The stored rows, in pivot order."""
        return [self._row_at[p] for p in self.pivots]

    def add(self, v: dict) -> bool:
        """Insert v, {column: int or Fraction entry}, if it lies outside the
        span; report whether it did."""
        r = _integer_row(v)
        row_at = self._row_at
        for p in [j for j in r if j in row_at]:
            r = _eliminate(r, p, row_at[p])
        if not r:
            return False
        c = min(r)
        if r[c] < 0:
            r = {j: -x for j, x in r.items()}
        for p, row in row_at.items():
            if c in row:
                row_at[p] = _eliminate(row, c, r)
        row_at[c] = r
        insort(self.pivots, c)
        return True

    def free_columns(self) -> list[int]:
        """The columns that hold no pivot, in increasing order."""
        return [c for c in range(self.ncols) if c not in self._row_at]

    def kernel_vector(self, f: int) -> dict[int, Fraction]:
        """The kernel vector of the span at free column f, sparse: 1 at f,
        and minus the reduced entry at f of each pivot's row in that pivot's
        slot where that entry is nonzero."""
        v = {f: Fraction(1)}
        for p, row in self._row_at.items():
            if f in row:
                v[p] = Fraction(-row[f], row[p])
        return v


def independent_columns(m: QMatrix) -> list[dict[int, Fraction]]:
    """The pivot columns of m, each independent of those before it, read
    from the rows' nonzero entries, {row: entry}."""
    columns = {j: {} for j in m.echelon().pivots}
    for i, row in enumerate(m._rows):
        for j, x in row.items():
            if j in columns:
                columns[j][i] = x
    return list(columns.values())


def quotient_basis(d_in: QMatrix, d_out: QMatrix) -> tuple[list[dict[int, Fraction]], list[dict[int, Fraction]]]:
    """Kernel vectors of d_out whose classes form a basis of ker d_out / im d_in,
    and rows T with T . rep_j = e_j and T . b = 0 on every column b of d_in.

    A kernel vector is fixed by its entries on the free columns of d_out,
    where the kernel vectors of d_out's span are the unit basis.  So one
    elimination of `independent_columns(d_in)` on the free columns, taken
    last first, decides both: a kernel vector is picked when its free column
    is no pivot, which is when it is independent of the coboundaries and of
    the vectors before it, and its T row is that elimination's kernel vector
    at the pick, read back on the free columns of d_out.  Representatives
    and T rows are sparse, {column of d_out: nonzero entry}.
    """
    kernel = d_out.echelon()
    free = kernel.free_columns()[::-1]
    at = {f: k for k, f in enumerate(free)}
    span = _echelon([{at[i]: x for i, x in b.items() if i in at} for b in independent_columns(d_in)], len(free))
    reps, t_rows = [], []
    for i in reversed(span.free_columns()):
        reps.append(kernel.kernel_vector(free[i]))
        t_rows.append({free[k]: c for k, c in span.kernel_vector(i).items()})
    return reps, t_rows


def invert(m: QMatrix) -> list[dict[int, Fraction]] | None:
    """The columns of the inverse of a square matrix, {row: nonzero
    entry}, or None when it is singular.  The rows [m | -I] are eliminated
    once; m is invertible exactly when the pivots are the first n columns,
    and then column j of the inverse is the first n entries of the kernel
    vector at n + j."""
    n = m.rows
    if m.cols != n:
        raise ValueError(f"cannot invert a {n}x{m.cols} matrix")
    span = _echelon([{**row, n + i: -1} for i, row in enumerate(m._rows)], 2 * n)
    if span.pivots != list(range(n)):
        return None
    return [{i: x for i, x in span.kernel_vector(n + j).items() if i < n} for j in range(n)]


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
                g = gcd(p[var], n[var])
                a, b = p[var] // g, n[var] // g
                new = [a * x - b * y for x, y in zip(n, p)]
                g = gcd(*new)
                if not g:
                    return None
                combined.append(tuple(x // g for x in new))
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


def _substitution_kernel(m: QMatrix) -> list[dict[int, Fraction]] | None:
    """`kernel_basis(m)` by substitution, or None unless each row has one
    negative entry, a -1 at its source, and no sources' first rows form a
    cycle.  Each source's first row writes its column as a form in the free
    columns (no row's source), resolved in dependency order; each later row
    is a condition on the free columns, and one `EchelonSpan` of those gives
    their kernel.  Lifted to full vectors, it is echelonned with the column
    order reversed and read back: the RREF kernel basis is exactly that
    form, as its vector at free column f has a 1 at f, zeros at the RREF's
    other free columns and nothing after f."""
    rows = m._rows
    first, later = {}, []
    for i, row in enumerate(rows):
        negative = [j for j, x in row.items() if x < 0]
        if len(negative) != 1 or row[negative[0]] != -1:
            return None
        if negative[0] in first:
            later.append((negative[0], i))
        else:
            first[negative[0]] = i
    free = [j for j in range(m.cols) if j not in first]
    forms = {j: {k: 1} for k, j in enumerate(free)}

    def image(s: int, i: int) -> dict[int, int]:
        """The form that row i gives its source s, {free index: coefficient}."""
        out: dict[int, int] = {}
        for j, x in rows[i].items():
            if j != s:
                for k, y in forms[j].items():
                    out[k] = out.get(k, 0) + x * y
        return out

    todo = list(first)
    while todo:
        ready = [s for s in todo if all(j in forms for j in rows[first[s]] if j != s)]
        if not ready:
            return None
        forms.update((s, image(s, first[s])) for s in ready)
        todo = [s for s in todo if s not in forms]
    # each later row's condition: the form of s minus the form the row gives s
    span = _echelon(({**forms[s], **{k: forms[s].get(k, 0) - x for k, x in image(s, i).items()}}
                     for s, i in later), len(free))
    last = m.cols - 1
    lifted = [{last - j: sum(x * u[k] for k, x in form.items() if k in u) for j, form in forms.items()}
              for u in (_integer_row(span.kernel_vector(f)) for f in span.free_columns())]
    span = _echelon(lifted, m.cols)
    return [{last - j: Fraction(x, row[p]) for j, x in row.items()}
            for row, p in zip(reversed(span.integer_rows), reversed(span.pivots))]


def _positive_kernel_point(m: QMatrix) -> tuple[list[int], int] | None:
    """A strictly positive rational kernel vector of m, as integer
    numerators over one positive denominator, or None.

    The basis is `kernel_basis(m)` by one of two paths: substitution when
    every row has the weight-constraint shape, as every subset of the rows
    of a valid presentation does, and the elimination of every row when
    some row does not (a cyclic dependency, an entry below -1, no or two
    negative entries)."""
    basis = _substitution_kernel(m)
    if basis is None:
        basis = kernel_basis(m)
    if not basis:
        return None
    # the basis times l and the combination times d are integers
    l = lcm(*[x.denominator for v in basis for x in v.values()])
    columns = [[0] * len(basis) for _ in range(m.cols)]
    for k, v in enumerate(basis):
        for j, x in v.items():
            columns[j][k] = x.numerator * (l // x.denominator)
    if not all(map(any, columns)):
        return None
    combo = _fourier_motzkin([[x // g for x in c] for c in columns for g in [gcd(*c)]], len(basis))
    if combo is None:
        return None
    d = lcm(*[c.denominator for c in combo])
    combo = [c.numerator * (d // c.denominator) for c in combo]
    point = [sum(map(mul, combo, c)) for c in columns]
    if not all(x > 0 for x in point):
        raise AssertionError("kernel point is not strictly positive")
    return point, d * l


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

    supports = m.supports()
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
            continue
        for j, x in zip(columns[c], part[0]):
            point[j] = Fraction(x, part[1])
    if infeasible:
        witness = max((_deletion_filter(m, rows_of[c], columns[c]) for c in infeasible),
                      key=lambda w: w[0])
        return FeasibilityResult(solution=None, witness=witness)
    solution = tuple(_integer_row(dict(enumerate(point))).values())
    if any(sum(x * solution[j] for j, x in row.items()) for row in m._rows):
        raise AssertionError("positive solution is not in the kernel")
    return FeasibilityResult(solution=solution, witness=None)
