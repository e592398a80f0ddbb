"""Exact linear algebra: RREF, kernels, positive kernel points."""

import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    FractionEchelonSpan,
    fraction_kernel_basis,
    fraction_positive_integer_kernel,
    fraction_quotient_transform,
    fraction_rref,
    greedy_witness,
)
from rht.corpus import load_presentation
from rht.qlinalg import (
    EchelonSpan,
    QMatrix,
    independent_columns,
    invert,
    kernel_basis,
    positive_integer_kernel,
    quotient_basis,
    rank,
    rref,
)

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


@given(matrices())
def test_rank_plus_nullity_is_column_count(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols


@given(matrices())
def test_kernel_vectors_are_killed(m):
    for v in kernel_basis(m):
        assert all(c == 0 for c in m.apply(v))


def _brute_positive_point(m, box):
    from itertools import product

    for cand in product(range(1, box + 1), repeat=m.cols):
        if all(
            sum(m.entry(i, j) * cand[j] for j in range(m.cols)) == 0
            for i in range(m.rows)
        ):
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
        assert all(
            sum(m.entry(i, j) * point[j] for j in range(m.cols)) == 0
            for i in range(m.rows)
        )
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
    for i in range(m.rows):
        v = m.row(i)
        before = rank(QMatrix.from_rows(accepted)) if accepted else 0
        grew = rank(QMatrix.from_rows(accepted + [list(v)])) > before
        assert span.add(v) == grew
        if grew:
            accepted.append(list(v))
    assert len(span.rows) == len(accepted)


@given(matrices())
def test_echelon_span_rows_are_rref_of_accepted_vectors(m):
    span = EchelonSpan(m.cols)
    accepted = [list(m.row(i)) for i in range(m.rows) if span.add(m.row(i))]
    if not accepted:
        assert span.rows == []
        return
    reduced, pivots = rref(QMatrix.from_rows(accepted))
    nonzero = [list(reduced.row(i)) for i in range(len(pivots))]
    assert span.rows == nonzero
    assert span.pivots == list(pivots)


@pytest.mark.parametrize("seeded", [False, True])
def test_echelon_span_refuses_zero_rows_and_keeps_its_state(seeded):
    span = EchelonSpan(3, [[1, 2, Fraction(1, 2)], [0, 0, 3]] if seeded else ())
    rows, pivots = span.rows, list(span.pivots)
    for zero in ([0, 0, 0], [Fraction(0)] * 3, [0, Fraction(0), 0]):
        assert span.add(zero) is False
        assert (span.rows, span.pivots) == (rows, pivots)
    empty = EchelonSpan(0)
    assert empty.add([]) is False and empty.add(()) is False
    assert (empty.rows, empty.pivots) == ([], [])


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
q.kernel_basis = lambda m: [(1, 1)]
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
    assert (reduced.dense_rows(), list(pivots)) == fraction_rref(rows, ncols)
    _assert_fractions(*reduced.dense_rows())


@settings(max_examples=300, deadline=None)
@given(dense_systems())
def test_rref_matches_fraction_oracle(system):
    rows, ncols = system
    reduced, pivots = rref(_qmatrix(rows, ncols))
    expected_rows, expected_pivots = fraction_rref(rows, ncols)
    assert reduced.dense_rows() == expected_rows
    assert pivots == tuple(expected_pivots)


@settings(max_examples=300, deadline=None)
@given(dense_systems())
def test_kernel_basis_matches_fraction_oracle(system):
    rows, ncols = system
    got = kernel_basis(_qmatrix(rows, ncols))
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
    assert independent_columns(_qmatrix(rows, ncols)) == expected


@settings(max_examples=200, deadline=None)
@given(tall_full_rank_systems())
def test_rref_and_kernel_after_an_early_stop_match_fraction_oracle(system):
    rows, ncols = system
    reduced, pivots = rref(QMatrix.from_rows(rows, ncols))
    assert (reduced.dense_rows(), list(pivots)) == fraction_rref(rows, ncols)
    assert kernel_basis(_qmatrix(rows, ncols)) == []


@settings(max_examples=300, deadline=None)
@given(dense_systems(square=True))
def test_invert_matches_fraction_oracle(system):
    # the T rows of [columns | I] read a vector in the basis of the columns,
    # so on square columns they are the rows of the inverse
    rows, n = system
    columns = [tuple(row[j] for row in rows) for j in range(n)]
    got = invert(_qmatrix(rows, n))
    want = fraction_quotient_transform(columns, n)
    assert got == (None if want is None else want[0])
    if got is not None:
        _assert_fractions(*got)


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
        _assert_fractions(*inverse)
        for i, row in enumerate(rows):
            for j in range(n):
                assert sum(a * inv[j] for a, inv in zip(row, inverse)) == (i == j)


def test_invert_refuses_a_matrix_that_is_not_square():
    for rows, cols in (([[1, 2]], 2), ([], 1), ([[1], [2]], 1)):
        with pytest.raises(ValueError, match="cannot invert"):
            invert(QMatrix.from_rows(rows, cols))


def _eliminated_shapes(call):
    """(row count, row lengths, column count) of each elimination that
    call() runs."""
    module = importlib.import_module("rht.qlinalg")
    echelon, shapes = module._echelon, []

    def recording(rows, ncols):
        rows = [list(row) for row in rows]
        shapes.append((len(rows), {len(row) for row in rows}, ncols))
        return echelon(rows, ncols)

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
    kernel = kernel_basis(d_out)
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
    assert reps == [v for v in kernel if span.add(v)]
    assert len(t_rows) == len(reps)
    _assert_fractions(*reps, *(row.values() for row in t_rows))
    for i, row in enumerate(t_rows):
        # a sparse row, {column: nonzero entry}
        assert all(row.values()) and set(row) <= set(range(ncols))
        unit = [int(i == j) for j in range(len(reps))]
        assert [sum(c * v[j] for j, c in row.items()) for v in reps] == unit
        assert not any(sum(c * col[j] for j, c in row.items()) for col in image)


@settings(max_examples=300, deadline=None)
@given(dense_systems(), st.booleans())
def test_echelon_span_matches_fraction_oracle(system, as_ints):
    rows, ncols = system
    span, reference = EchelonSpan(ncols), FractionEchelonSpan(ncols)
    for row in rows:
        v = [int(x) if as_ints and x.denominator == 1 else x for x in row]
        assert span.add(v) == reference.add(row)
        assert span.rows == reference.rows
        assert span.pivots == reference.pivots
        _assert_fractions(*span.rows)


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


# ------------------------------------------------------- QMatrix row contract


def test_from_rows_without_rows_keeps_the_column_shape():
    m = QMatrix.from_rows([], 3)
    assert (m.rows, m.cols) == (0, 3)
    assert kernel_basis(m) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
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
    assert m.dense_rows() == [[1, 2], [3, 4]]


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
    assert m.dense_rows() == rows
    for i, row in enumerate(rows):
        assert m.row(i) == tuple(row)
        assert all(m.entry(i, j) == x for j, x in enumerate(row))
    v = data.draw(st.lists(wide_entries, min_size=ncols, max_size=ncols))
    assert m.apply(v) == tuple(sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in rows)
    picked_rows = data.draw(_indices(len(rows)))
    picked_cols = data.draw(_indices(ncols))
    sub = m.submatrix(picked_rows, picked_cols)
    assert (sub.rows, sub.cols) == (len(picked_rows), len(picked_cols))
    assert sub.dense_rows() == [[rows[i][j] for j in picked_cols] for i in picked_rows]
