"""Exact linear algebra: RREF, kernels, positive kernel points."""

import importlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    FractionEchelonSpan,
    dense,
    fraction_kernel_basis,
    fraction_positive_integer_kernel,
    fraction_quotient_transform,
    fraction_rref,
    greedy_witness,
    random_presentation,
)
from rht.corpus import load_presentation
from rht.qlinalg import (
    EchelonSpan,
    QMatrix,
    _substitution_kernel,
    independent_columns,
    invert,
    kernel_basis,
    positive_integer_kernel,
    quotient_basis,
    rank,
    rref,
)
from rht.weights import extract_constraints

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

fractions = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


def matrices(max_rows=4, max_cols=4):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(fractions, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(QMatrix.from_rows)
        )
    )


@given(matrices())
def test_rref_is_idempotent(m):
    r1, piv1 = rref(m)
    r2, piv2 = rref(r1)
    assert r1 == r2
    assert piv1 == piv2


def _dense_rows(m):
    """The rows of a QMatrix written out as lists."""
    return [list(dense(row, m.cols)) for row in m._rows]


def _reduced_rows(span):
    """The nonzero rows of the RREF an EchelonSpan keeps: each stored
    integer row divided by its pivot, written out as a list."""
    return [list(dense({j: Fraction(x, row[p]) for j, x in row.items()}, span.ncols))
            for row, p in zip(span.integer_rows, span.pivots)]


@given(matrices())
def test_rank_plus_nullity_is_column_count(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols


@given(matrices())
def test_kernel_vectors_are_killed(m):
    for v in kernel_basis(m):
        assert all(sum(a * b for a, b in zip(row, dense(v, m.cols))) == 0 for row in _dense_rows(m))


def _brute_positive_point(m, box):
    from itertools import product

    rows = _dense_rows(m)
    for cand in product(range(1, box + 1), repeat=m.cols):
        if all(sum(a * c for a, c in zip(row, cand)) == 0 for row in rows):
            return list(cand)
    return None


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda r: st.integers(1, 3).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-3, 3).map(Fraction), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(QMatrix.from_rows)
        )
    )
)
def test_positive_kernel_matches_brute_force(m):
    res = positive_integer_kernel(m)
    brute = _brute_positive_point(m, box=9)
    if res.feasible:
        point = res.solution
        assert all(isinstance(v, int) and v >= 1 for v in point)
        assert all(sum(a * c for a, c in zip(row, point)) == 0 for row in _dense_rows(m))
    else:
        # solver infeasible: the box search must come up empty too
        assert brute is None
    if brute is not None:
        assert res.feasible


def test_positive_kernel_simple_feasible():
    # single row x - 2y = 0
    m = QMatrix.from_rows([[Fraction(1), Fraction(-2)]])
    res = positive_integer_kernel(m)
    assert res.feasible
    assert list(res.solution) == [2, 1]


def test_positive_kernel_forced_zero_is_infeasible():
    # x + y = 0 has no positive solutions
    m = QMatrix.from_rows([[Fraction(1), Fraction(1)]])
    res = positive_integer_kernel(m)
    assert not res.feasible


def test_positive_kernel_conflicting_ratios():
    # x = 2y and x = 3y force y = 0
    m = QMatrix.from_rows(
        [[Fraction(1), Fraction(-2)], [Fraction(1), Fraction(-3)]]
    )
    assert not positive_integer_kernel(m).feasible


def test_positive_kernel_point_is_coprime():
    # 2x - 4y = 0: infinitely many positive points, smallest is (2, 1)
    m = QMatrix.from_rows([[Fraction(2), Fraction(-4)]])
    res = positive_integer_kernel(m)
    assert list(res.solution) == [2, 1]


def test_empty_constraint_matrix_gives_all_ones():
    m = QMatrix.from_rows([], 3)
    res = positive_integer_kernel(m)
    assert res.feasible
    assert list(res.solution) == [1, 1, 1]


def test_witness_rows_are_minimal_for_conflict():
    # x = 2y, x = 3y: both rows together are infeasible, either alone is fine
    m = QMatrix.from_rows(
        [[Fraction(1), Fraction(-2)], [Fraction(1), Fraction(-3)]]
    )
    res = positive_integer_kernel(m)
    assert sorted(res.witness) == [0, 1]


# ------------------------------------------------------- echelon span core


@given(matrices())
def test_echelon_span_add_reports_rank_increase(m):
    span = EchelonSpan(m.cols)
    accepted = []
    for v in _dense_rows(m):
        before = rank(QMatrix.from_rows(accepted)) if accepted else 0
        grew = rank(QMatrix.from_rows(accepted + [v])) > before
        assert span.add(dict(enumerate(v))) == grew
        if grew:
            accepted.append(v)
    assert len(span.integer_rows) == len(accepted)


@given(matrices())
def test_echelon_span_rows_are_rref_of_accepted_vectors(m):
    span = EchelonSpan(m.cols)
    accepted = [v for v in _dense_rows(m) if span.add(dict(enumerate(v)))]
    if not accepted:
        assert _reduced_rows(span) == []
        return
    reduced, pivots = rref(QMatrix.from_rows(accepted))
    nonzero = _dense_rows(reduced)[:len(pivots)]
    assert _reduced_rows(span) == nonzero
    assert span.pivots == list(pivots)


@pytest.mark.parametrize("seeded", [False, True])
def test_echelon_span_refuses_zero_rows_and_keeps_its_state(seeded):
    seeds = [[1, 2, Fraction(1, 2)], [0, 0, 3]] if seeded else []
    span = EchelonSpan(3, [dict(enumerate(row)) for row in seeds])
    rows, pivots = _reduced_rows(span), list(span.pivots)
    for zero in ([0, 0, 0], [Fraction(0)] * 3, [0, Fraction(0), 0]):
        assert span.add(dict(enumerate(zero))) is False
        assert (_reduced_rows(span), span.pivots) == (rows, pivots)
    empty = EchelonSpan(0)
    assert empty.add({}) is False
    assert (_reduced_rows(empty), empty.pivots) == ([], [])


@given(matrices())
def test_rank_kernel_and_columns_share_one_elimination(m):
    module = importlib.import_module("rht.qlinalg")
    calls = []
    echelon = module._echelon

    def counting(rows, ncols):
        calls.append(ncols)
        return echelon(rows, ncols)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_echelon", counting)
        r, kernel, columns = rank(m), kernel_basis(m), independent_columns(m)
    assert len(calls) == 1
    assert r == len(columns) == m.cols - len(kernel)


def test_kernel_check_survives_optimized_mode():
    # a wrong kernel vector must be caught even when python -O strips asserts
    script = """
import rht.qlinalg as q
q.kernel_basis = lambda m: [{0: 1, 1: 1}]
try:
    q.positive_integer_kernel(q.QMatrix.from_rows([[1, -2]]))
except AssertionError:
    raise SystemExit(0)
raise SystemExit(1)
"""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


# ------------------------------------ integer core against the Fraction oracle

wide_entries = st.one_of(
    st.integers(-50, 50).map(Fraction),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.just(Fraction(0)),
)


@st.composite
def dense_systems(draw, max_rows=5, max_cols=6, square=False):
    """(rows, ncols) with wide entries, some rows and columns forced to zero;
    0 x n and n x 0 shapes included, or n x n ones when `square`."""
    r = draw(st.integers(0, max_rows))
    c = r if square else draw(st.integers(0, max_cols))
    rows = [[draw(wide_entries) for _ in range(c)] for _ in range(r)]
    zero_rows = draw(st.sets(st.sampled_from(range(r)))) if r else set()
    zero_cols = draw(st.sets(st.sampled_from(range(c)))) if c else set()
    for i in range(r):
        for j in range(c):
            if i in zero_rows or j in zero_cols:
                rows[i][j] = Fraction(0)
    return rows, c


@st.composite
def positive_kernel_systems(draw):
    """Dense systems, half of them built to have a known positive kernel
    vector so the feasible branch is exercised as often as the witness."""
    rows, c = draw(dense_systems(max_rows=4, max_cols=5))
    if c and draw(st.booleans()):
        x = [draw(st.integers(1, 7)) for _ in range(c)]
        for row in rows:
            row[-1] = -sum(a * xj for a, xj in zip(row[:-1], x[:-1])) / x[-1]
    return rows, c


@st.composite
def tall_full_rank_systems(draw):
    """(rows, ncols) of full column rank with more rows than columns: a
    shuffled triangular block of rank ncols, then further rows, so the
    elimination reaches full rank before the last row."""
    c = draw(st.integers(1, 5))
    block = [[draw(wide_entries) if j > i else Fraction(0) for j in range(c)] for i in range(c)]
    for i in range(c):
        block[i][i] = draw(wide_entries.filter(bool))
    extra = draw(st.lists(st.lists(wide_entries, min_size=c, max_size=c), min_size=1, max_size=4))
    return draw(st.permutations(block)) + extra, c


def _qmatrix(rows, ncols):
    return QMatrix.from_rows(rows, ncols)


def _assert_fractions(*vectors):
    for v in vectors:
        assert all(type(x) is Fraction for x in v)


@settings(max_examples=300, deadline=None)
@given(dense_systems())
def test_rref_rows_matches_fraction_oracle(system):
    # integral entries given as ints still come back as Fractions
    rows, ncols = system
    ints = [[int(x) if x.denominator == 1 else x for x in row] for row in rows]
    reduced, pivots = rref(QMatrix.from_rows(ints, ncols))
    assert (_dense_rows(reduced), list(pivots)) == fraction_rref(rows, ncols)
    _assert_fractions(*_dense_rows(reduced))


@settings(max_examples=300, deadline=None)
@given(dense_systems())
def test_rref_matches_fraction_oracle(system):
    rows, ncols = system
    reduced, pivots = rref(_qmatrix(rows, ncols))
    expected_rows, expected_pivots = fraction_rref(rows, ncols)
    assert _dense_rows(reduced) == expected_rows
    assert pivots == tuple(expected_pivots)


@settings(max_examples=300, deadline=None)
@given(dense_systems())
def test_kernel_basis_matches_fraction_oracle(system):
    rows, ncols = system
    got = [dense(v, ncols) for v in kernel_basis(_qmatrix(rows, ncols))]
    assert got == fraction_kernel_basis(rows, ncols)
    _assert_fractions(*got)


@settings(max_examples=300, deadline=None)
@given(st.one_of(dense_systems(), tall_full_rank_systems()))
def test_rank_matches_fraction_oracle(system):
    rows, ncols = system
    assert rank(_qmatrix(rows, ncols)) == len(fraction_rref(rows, ncols)[1])


@settings(max_examples=300, deadline=None)
@given(st.one_of(dense_systems(), tall_full_rank_systems()))
def test_independent_columns_match_fraction_oracle(system):
    rows, ncols = system
    pivots = fraction_rref(rows, ncols)[1]
    expected = [tuple(row[j] for row in rows) for j in pivots]
    assert [dense(column, len(rows)) for column in independent_columns(_qmatrix(rows, ncols))] == expected


@settings(max_examples=200, deadline=None)
@given(tall_full_rank_systems())
def test_rref_and_kernel_after_an_early_stop_match_fraction_oracle(system):
    rows, ncols = system
    reduced, pivots = rref(QMatrix.from_rows(rows, ncols))
    assert (_dense_rows(reduced), list(pivots)) == fraction_rref(rows, ncols)
    assert kernel_basis(_qmatrix(rows, ncols)) == []


@settings(max_examples=300, deadline=None)
@given(dense_systems(square=True))
def test_invert_matches_fraction_oracle(system):
    # the T rows of [columns | I] read a vector in the basis of the columns,
    # so on square columns they are the rows of the inverse; invert returns
    # its columns
    rows, n = system
    columns = [tuple(row[j] for row in rows) for j in range(n)]
    got = invert(_qmatrix(rows, n))
    if got is not None:
        got = [dense(column, n) for column in got]
        _assert_fractions(*got)
        got = list(zip(*got))
    want = fraction_quotient_transform(columns, n)
    assert got == (None if want is None else want[0])


@st.composite
def square_matrices(draw):
    """(kind, rows) of a square matrix: "invertible", a triangular matrix
    with a nonzero diagonal after some row additions, rows then shuffled;
    "singular", whose last row combines the others; or "random"."""
    kind = draw(st.sampled_from(["invertible", "singular", "random"]))
    n = draw(st.integers(int(kind == "singular"), 5))
    rows = [[draw(wide_entries) for _ in range(n)] for _ in range(n)]
    if kind == "invertible":
        for i in range(n):
            rows[i][:i] = [Fraction(0)] * i
            rows[i][i] = draw(wide_entries.filter(bool))
        for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
            i, j = draw(st.permutations(range(n)))[:2]
            rows[i] = [a + b for a, b in zip(rows[i], rows[j])]
        rows = draw(st.permutations(rows))
    elif kind == "singular":
        combo = [draw(st.integers(-2, 2)) for _ in range(n - 1)]
        rows[-1] = [sum((c * row[j] for c, row in zip(combo, rows)), Fraction(0)) for j in range(n)]
    return kind, rows


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_invert_is_a_right_inverse_exactly_when_the_rank_is_full(case):
    kind, rows = case
    n = len(rows)
    m = _qmatrix(rows, n)
    inverse = invert(m)
    assert (inverse is None) == (rank(m) < n)
    if kind != "random":
        assert (inverse is None) == (kind == "singular")
    if inverse is not None:
        assert len(inverse) == n
        columns = [dense(column, n) for column in inverse]
        _assert_fractions(*columns)
        for i, row in enumerate(rows):
            for j, column in enumerate(columns):
                assert sum(a * b for a, b in zip(row, column)) == (i == j)


def test_invert_refuses_a_matrix_that_is_not_square():
    for rows, cols in (([[1, 2]], 2), ([], 1), ([[1], [2]], 1)):
        with pytest.raises(ValueError, match="cannot invert"):
            invert(QMatrix.from_rows(rows, cols))


def _eliminated_shapes(call):
    """(row count, row lengths, column count) of each elimination that
    call() runs; a sparse row is written out dense, and `from_rows` refuses
    one with a column outside the elimination's width."""
    module = importlib.import_module("rht.qlinalg")
    echelon, shapes = module._echelon, []

    def recording(rows, ncols):
        m = module.QMatrix.from_rows(rows, ncols)
        shapes.append((m.rows, {len(row) for row in _dense_rows(m)}, ncols))
        return echelon(m._rows, ncols)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_echelon", recording)
        call()
    return shapes


@settings(max_examples=200, deadline=None)
@given(dense_systems(square=True))
def test_invert_eliminates_n_rows_of_width_2n_once(system):
    # the n rows [m | -I], whether or not m is invertible
    rows, n = system
    shapes = _eliminated_shapes(lambda: invert(_qmatrix(rows, n)))
    assert shapes == [(n, {2 * n} if n else set(), 2 * n)]


def test_s2xs3_readers_eliminate_the_coboundaries_on_the_free_columns():
    # each degree's reader is one elimination past the d-matrices' own: the
    # rank d_(n-1) independent coboundaries, each restricted to the
    # dim C^n - rank d_n free columns of d_n
    cohomology = importlib.import_module("rht.cohomology")
    cx = cohomology.complex_for(load_presentation("s2xs3"))
    degrees = range(cx.certified_through + 1)
    for n in range(-1, cx.certified_through + 1):
        cx.d_matrix(n).echelon()
    shapes = _eliminated_shapes(lambda: [cx.quotient_data(n) for n in degrees])
    expected = []
    for n in degrees:
        bound, free = rank(cx.d_matrix(n - 1)), len(cx.basis(n)) - rank(cx.d_matrix(n))
        expected.append((bound, {free} if bound else set(), free))
    assert shapes == expected


@settings(max_examples=300, deadline=None)
@given(dense_systems(), st.data())
def test_quotient_basis_picks_the_greedy_complement_and_reads_it(system, data):
    # d_out drawn, d_in's columns integer combinations of d_out's kernel
    rows, ncols = system
    d_out = _qmatrix(rows, ncols)
    kernel = [dense(v, ncols) for v in kernel_basis(d_out)]
    combo = st.lists(st.integers(-2, 2), min_size=len(kernel), max_size=len(kernel))
    image = [
        [sum((c * v[i] for c, v in zip(cs, kernel)), Fraction(0)) for i in range(ncols)]
        for cs in data.draw(st.lists(combo, max_size=4))
    ]
    d_in = _qmatrix([[col[i] for col in image] for i in range(ncols)], len(image))
    reps, t_rows = quotient_basis(d_in, d_out)
    # the old rule: the kernel vectors independent of the image and of the
    # vectors picked before them
    span = FractionEchelonSpan(ncols)
    for col in image:
        span.add(col)
    # representatives and T rows are sparse, {column: nonzero entry}
    assert reps == [{j: x for j, x in enumerate(v) if x} for v in kernel if span.add(v)]
    assert len(t_rows) == len(reps)
    _assert_fractions(*(row.values() for row in reps + t_rows))
    for i, row in enumerate(t_rows):
        assert all(row.values()) and set(row) <= set(range(ncols))
        unit = [int(i == j) for j in range(len(reps))]
        assert [sum(c * v.get(j, 0) for j, c in row.items()) for v in reps] == unit
        assert not any(sum(c * col[j] for j, c in row.items()) for col in image)


@settings(max_examples=300, deadline=None)
@given(dense_systems(), st.booleans())
def test_echelon_span_matches_fraction_oracle(system, as_ints):
    rows, ncols = system
    span, reference = EchelonSpan(ncols), FractionEchelonSpan(ncols)
    for row in rows:
        v = [int(x) if as_ints and x.denominator == 1 else x for x in row]
        assert span.add(dict(enumerate(v))) == reference.add(row)
        assert _reduced_rows(span) == reference.rows
        assert span.pivots == reference.pivots


@settings(max_examples=300, deadline=None)
@given(st.one_of(dense_systems(), tall_full_rank_systems()), st.data())
def test_a_shuffled_row_order_keeps_every_row_pivot_and_kernel_vector(system, data):
    # the RREF of a row space is canonical, so neither the fewest-nonzeros
    # order in which `_echelon` adds a matrix's rows nor any other order
    # changes what a span keeps
    rows, ncols = system
    shuffled = data.draw(st.permutations(rows))
    m, s = QMatrix.from_rows(rows, ncols), QMatrix.from_rows(shuffled, ncols)
    span = m.echelon()
    added = EchelonSpan(ncols, [dict(enumerate(row)) for row in shuffled])
    for other in (s.echelon(), added):
        assert (other.integer_rows, other.pivots) == (span.integer_rows, span.pivots)
    assert kernel_basis(s) == kernel_basis(m)


@settings(max_examples=300, deadline=None)
@given(st.one_of(dense_systems(), tall_full_rank_systems()), st.booleans(), st.booleans())
def test_echelon_span_reads_sparse_rows_as_it_reads_dense_ones(system, as_ints, keep_zeros):
    # each row fed to QMatrix dense and as {column: entry}, and to
    # EchelonSpan with or without its zero entries, gives one matrix and
    # one span; no stored row or kernel vector holds a zero, and each
    # stored row is primitive, with a positive pivot
    rows, ncols = system
    rows = [[int(x) if as_ints and x.denominator == 1 else x for x in row] for row in rows]
    sparse_rows = [{j: x for j, x in enumerate(row) if x or keep_zeros} for row in rows]
    assert QMatrix.from_rows(sparse_rows, ncols) == QMatrix.from_rows(rows, ncols)
    full, sparse = EchelonSpan(ncols), EchelonSpan(ncols)
    for row, sparse_row in zip(rows, sparse_rows):
        assert full.add(dict(enumerate(row))) == sparse.add(sparse_row)
    assert (_reduced_rows(sparse), sparse.pivots) == (_reduced_rows(full), full.pivots)
    assert sparse.free_columns() == full.free_columns()
    kernel = [sparse.kernel_vector(f) for f in sparse.free_columns()]
    assert kernel == [full.kernel_vector(f) for f in full.free_columns()]
    assert all(all(v.values()) for v in kernel)
    assert all(all(row.values()) for span in (full, sparse) for row in span.integer_rows)
    assert all(gcd(*row.values()) == 1 and row[p] > 0 for row, p in zip(sparse.integer_rows, sparse.pivots))


@settings(max_examples=200, deadline=None)
@given(positive_kernel_systems())
def test_positive_integer_kernel_matches_fraction_oracle(system):
    rows, ncols = system
    res = positive_integer_kernel(_qmatrix(rows, ncols))
    assert (res.solution, res.witness) == fraction_positive_integer_kernel(rows, ncols)


# --------------------------------------- witness search on several components

block_entries = st.integers(-3, 3)


@st.composite
def block_diagonal_systems(draw, max_block_rows=3, max_block_cols=3, feasible=False):
    """(rows, ncols): 2-4 blocks on disjoint columns, at least one of them
    infeasible, plus up to two zero rows; rows and columns then shuffled.
    With `feasible`, every block is feasible and up to two all-zero
    columns are mixed in.

    Feasible and infeasible blocks start from rows built around a positive
    kernel vector x.  An infeasible block then gets one more row
    s - sum(l_k r_k) over those rows r_k, with l_k > 0 and s >= 0 nonzero:
    the row combination with weights (l, 1) is s, which no positive vector
    annihilates (Stiemke), so the witness takes that row and some of the
    r_k.  Random blocks keep their random entries.
    """
    if feasible:
        kinds = ["feasible"] * draw(st.integers(2, 4))
    else:
        kinds = draw(st.lists(st.sampled_from(["feasible", "infeasible", "random"]),
                              min_size=2, max_size=4))
        kinds[draw(st.integers(0, len(kinds) - 1))] = "infeasible"
    blocks = []
    for kind in kinds:
        c = draw(st.integers(2, max_block_cols))
        block = [[Fraction(draw(block_entries)) for _ in range(c)]
                 for _ in range(draw(st.integers(1, max_block_rows)))]
        if kind != "random":
            x = [draw(st.integers(1, 5)) for _ in range(c)]
            for row in block:
                row[-1] = -sum(a * xj for a, xj in zip(row[:-1], x[:-1])) / x[-1]
        if kind == "infeasible":
            s = [Fraction(draw(st.integers(0, 2))) for _ in range(c)]
            s[draw(st.integers(0, c - 1))] = Fraction(draw(st.integers(1, 2)))
            for row in block:
                l = draw(st.integers(1, 3))
                s = [a - l * b for a, b in zip(s, row)]
            block.insert(draw(st.integers(0, len(block))), s)
        blocks.append(block)
    ncols = sum(len(b[0]) for b in blocks) + (draw(st.integers(0, 2)) if feasible else 0)
    rows, offset = [], 0
    for block in blocks:
        width = len(block[0])
        rows += [[Fraction(0)] * offset + row + [Fraction(0)] * (ncols - offset - width)
                 for row in block]
        offset += width
    rows += [[Fraction(0)] * ncols for _ in range(draw(st.integers(0, 2)))]
    rows = draw(st.permutations(rows))
    order = draw(st.permutations(range(ncols)))
    return [[row[j] for j in order] for row in rows], ncols


@settings(max_examples=300, deadline=None)
@given(block_diagonal_systems())
def test_witness_on_block_systems_matches_fraction_oracle(system):
    rows, ncols = system
    res = positive_integer_kernel(_qmatrix(rows, ncols))
    assert not res.feasible
    assert (res.solution, res.witness) == fraction_positive_integer_kernel(rows, ncols)


@settings(max_examples=200, deadline=None)
@given(block_diagonal_systems(max_block_rows=7, max_block_cols=6))
# with witnesses (1,), (2,) and (1,): the witness is neither the first
# infeasible component's filter nor that of the last row's component
@example(([[1, 1, 0, 0], [0, 0, 1, 1]], 4))
@example(([[1, -1, 0, 0], [0, 0, 1, 1], [1, 1, 0, 0]], 4))
@example(([[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1], [1, -1, 0, 0]], 4))
def test_witness_on_larger_block_systems_matches_whole_matrix_greedy_filter(system):
    rows, ncols = system
    m = _qmatrix(rows, ncols)
    res = positive_integer_kernel(m)
    assert not res.feasible
    assert res.witness == greedy_witness(m)


@settings(max_examples=300, deadline=None)
@given(block_diagonal_systems(max_block_rows=4, max_block_cols=4, feasible=True))
# the points (1/2, 1), (1, 1) and (1) join to (1, 2, 2, 2, 2) once
# normalised; each normalised on its own would give (1, 2, 1, 1, 1)
@example(([[2, -1, 0, 0, 0], [0, 0, 1, -1, 0]], 5))
def test_joined_component_points_match_the_whole_matrix_solution(system):
    rows, ncols = system
    res = positive_integer_kernel(_qmatrix(rows, ncols))
    assert res.feasible
    assert res.solution == fraction_positive_integer_kernel(rows, ncols)[0]


# --------------------------------------------- weight-constraint shape kernels

shape_entries = st.sampled_from([0, 0, 1, 2, 3, Fraction(1, 2)])


@st.composite
def shaped_systems(draw, max_cols=7):
    """(rows, ncols) with the shape of a weight constraint matrix: column
    j > 0 of a dependency DAG on the columns in order is the source of zero
    to three rows, each with a -1 at j and nonnegative entries only on
    columns before j; rows and columns then shuffled.  The first row of
    each source fixes its entry of a point x, and half the later rows are
    made to agree with x at one entry, so feasible draws are common as
    well as infeasible ones (a source set to 0, or two rows of one source
    that disagree)."""
    c = draw(st.integers(1, max_cols))
    rows, x = [], []
    for j in range(c):
        own = []
        for _ in range(draw(st.integers(0, 3)) if j else 0):
            row = [draw(shape_entries) if k < j else 0 for k in range(c)]
            if own and draw(st.booleans()):
                k = draw(st.integers(0, j - 1))
                row[k], rest = 0, sum(a * b for a, b in zip(row, x))
                if rest > x[j]:
                    row, rest = [0] * c, 0
                row[k] = Fraction(x[j] - rest) / x[k] if x[k] else 0
            if not own:
                x.append(sum(a * b for a, b in zip(row, x)))
            row[j] = -1
            own.append(row)
        if not own:
            x.append(draw(st.integers(1, 3)))
        rows += own
    rows = draw(st.permutations(rows))
    order = draw(st.permutations(range(c)))
    return [[row[j] for j in order] for row in rows], c


# one matrix for each way a matrix misses the shape, with the answer the
# general elimination gives it
UNSHAPED = [
    ([[-1, 1], [1, -1]], (1, 1), None),  # the sources' first rows form a 2-cycle
    ([[-2, 1, 0], [1, 1, -1]], (1, 2, 3), None),  # an entry below -1
    ([[-1, -1, 2]], (1, 1, 1), None),  # two negative entries
    ([[1, 1, 0], [0, 1, -1]], None, (0,)),  # no negative entry
]


@settings(max_examples=300, deadline=None)
@given(shaped_systems())
def test_substitution_kernel_is_the_rref_kernel_basis_on_shaped_matrices(system):
    rows, ncols = system
    m = _qmatrix(rows, ncols)
    basis = _substitution_kernel(m)
    assert basis == kernel_basis(m)
    assert [dense(v, ncols) for v in basis] == fraction_kernel_basis(rows, ncols)
    _assert_fractions(*(v.values() for v in basis))


@settings(max_examples=300, deadline=None)
@given(shaped_systems())
@example(([[-1, 1], [1, -1]], 2))
@example(([[-2, 1, 0], [1, 1, -1]], 3))
@example(([[-1, -1, 2]], 3))
@example(([[1, 1, 0], [0, 1, -1]], 3))
def test_positive_integer_kernel_on_shaped_matrices_matches_fraction_oracle(system):
    # solution and witness, feasible or not; every deletion trial is shaped too
    rows, ncols = system
    res = positive_integer_kernel(_qmatrix(rows, ncols))
    assert (res.solution, res.witness) == fraction_positive_integer_kernel(rows, ncols)


@pytest.mark.parametrize("rows,solution,witness", UNSHAPED)
def test_matrices_without_the_shape_take_the_general_elimination(rows, solution, witness):
    m = QMatrix.from_rows(rows)
    assert _substitution_kernel(m) is None
    res = positive_integer_kernel(m)
    assert (res.solution, res.witness) == (solution, witness)


# ------------------------------------------------ answers in the row format


def _assert_sparse(rows, ncols):
    """Each answer row a dict {column: entry} on columns 0..ncols-1 with no
    stored zero."""
    for row in rows:
        assert type(row) is dict and all(row.values()) and set(row) <= set(range(ncols)), row


@settings(max_examples=200, deadline=None)
@given(dense_systems(), shaped_systems(), dense_systems(square=True), st.data())
def test_answers_are_sparse_rows_that_write_out_to_the_fraction_oracle(system, shaped, square, data):
    rows, ncols = system
    m = _qmatrix(rows, ncols)
    kernel = kernel_basis(m)
    _assert_sparse(kernel, ncols)
    assert [dense(v, ncols) for v in kernel] == fraction_kernel_basis(rows, ncols)
    columns = independent_columns(m)
    _assert_sparse(columns, len(rows))
    assert [dense(c, len(rows)) for c in columns] == [tuple(row[j] for row in rows)
                                                      for j in fraction_rref(rows, ncols)[1]]
    shaped_rows, shaped_cols = shaped
    basis = _substitution_kernel(_qmatrix(shaped_rows, shaped_cols))
    _assert_sparse(basis, shaped_cols)
    assert [dense(v, shaped_cols) for v in basis] == fraction_kernel_basis(shaped_rows, shaped_cols)
    square_rows, n = square
    inverse = invert(_qmatrix(square_rows, n))
    want = fraction_quotient_transform([tuple(row[j] for row in square_rows) for j in range(n)], n)
    if inverse is None:
        assert want is None
    else:
        # the oracle's rows are the inverse's rows, invert's answers its columns
        _assert_sparse(inverse, n)
        assert list(zip(*[dense(c, n) for c in inverse])) == want[0]
    # quotient_basis on d_out = m and an image of kernel combinations; its T
    # rows are the oracle inverse of [reps | image basis] on m's free columns
    combo = st.lists(st.integers(-2, 2), min_size=len(kernel), max_size=len(kernel))
    image = [[sum((c * v.get(i, 0) for c, v in zip(cs, kernel)), Fraction(0)) for i in range(ncols)]
             for cs in data.draw(st.lists(combo, max_size=3))]
    reps, t_rows = quotient_basis(_qmatrix([[col[i] for col in image] for i in range(ncols)], len(image)), m)
    _assert_sparse(reps + t_rows, ncols)
    span = FractionEchelonSpan(ncols)
    bound = [col for col in image if span.add(col)]
    picked = [v for v in fraction_kernel_basis(rows, ncols) if span.add(v)]
    assert [dense(v, ncols) for v in reps] == picked
    free = [j for j in range(ncols) if j not in fraction_rref(rows, ncols)[1]]
    reader = fraction_quotient_transform([[v[j] for j in free] for v in picked + bound], len(free))[0]
    assert [dense(row, ncols) for row in t_rows] == [
        dense(dict(zip(free, row)), ncols) for row in reader[:len(picked)]
    ]


@pytest.fixture(scope="module")
def simplex():
    return pytest.importorskip("sympy.solvers.simplex")


def _simplex_feasible(simplex, rows, ncols):
    """Whether ker m meets the open positive orthant, by sympy's exact
    simplex: the largest t <= 1 with m x = 0 and every x_j >= t >= 0 is 1
    when it does, since a positive kernel vector scales to one with every
    entry at least 1, and 0 when it does not.  The origin is a vertex of
    that program, so the simplex needs no search for a feasible start: on
    these degenerate systems sympy 1.14's search can return a point that
    breaks a constraint, or cycle.  Its point is checked before t is read."""
    from sympy import Matrix, eye, ones, zeros

    k = len(rows)
    m = Matrix(k, ncols, [x for row in rows for x in row])
    a = Matrix.vstack(m.row_join(zeros(k, 1)), (-m).row_join(zeros(k, 1)),
                      (-eye(ncols)).row_join(ones(ncols, 1)), zeros(1, ncols).row_join(ones(1, 1)))
    b = Matrix.vstack(zeros(2 * k + ncols, 1), ones(1, 1))
    _, v = simplex.linprog(zeros(1, ncols).row_join(-ones(1, 1)), A=a, b=b)
    x, t = Matrix(v[:ncols]), v[ncols]
    assert not any(m * x) and all(xj >= t for xj in x) and t in (0, 1)
    return t == 1


def _constraint_system(seed):
    system = extract_constraints(random_presentation(random.Random(seed)))
    return [list(r.coefficients) for r in system.rows], len(system.generator_names)


@settings(max_examples=200, deadline=None)
@given(st.one_of(shaped_systems(), st.integers(0, 10**9).map(_constraint_system)))
def test_feasibility_matches_an_exact_simplex(simplex, system):
    rows, ncols = system
    res = positive_integer_kernel(_qmatrix(rows, ncols))
    assert res.feasible == _simplex_feasible(simplex, rows, ncols)


# ------------------------------------------------------- QMatrix row contract


def test_from_rows_without_rows_keeps_the_column_shape():
    m = QMatrix.from_rows([], 3)
    assert (m.rows, m.cols) == (0, 3)
    assert [dense(v, 3) for v in kernel_basis(m)] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    m = QMatrix.from_rows([])
    assert (m.rows, m.cols) == (0, 0)
    assert kernel_basis(m) == []


def test_from_rows_refuses_ragged_rows():
    with pytest.raises(ValueError):
        QMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        QMatrix.from_rows([[1, 2]], 3)


def test_from_rows_copies_the_callers_rows():
    rows = [[1, 2], [3, 4]]
    m = QMatrix.from_rows(rows)
    rows[0][0] = 9
    rows.append([5, 6])
    assert (m.rows, m.cols) == (2, 2)
    assert _dense_rows(m) == [[1, 2], [3, 4]]


def _indices(n):
    return st.lists(st.integers(0, n - 1), unique=True, max_size=n) if n else st.just([])


@settings(max_examples=200, deadline=None)
@given(dense_systems(), st.data())
def test_qmatrix_accessors_agree_with_plain_lists(system, data):
    rows, ncols = system
    m = QMatrix.from_rows(rows, ncols)
    numerators = [[x.numerator for x in row] for row in rows]
    assert QMatrix.from_rows(numerators, ncols) == QMatrix.from_rows(
        [[Fraction(x) for x in row] for row in numerators], ncols
    )
    assert _dense_rows(m) == rows
    picked_rows = data.draw(_indices(len(rows)))
    picked_cols = data.draw(_indices(ncols))
    sub = m.submatrix(picked_rows, picked_cols)
    assert (sub.rows, sub.cols) == (len(picked_rows), len(picked_cols))
    assert _dense_rows(sub) == [[rows[i][j] for j in picked_cols] for i in picked_rows]
