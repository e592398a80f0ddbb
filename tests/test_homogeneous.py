"""Pure models of Grassmannians and complete flag manifolds against their
closed forms: Betti numbers, formal dimension, weights and readers."""

from fractions import Fraction

import pytest

from oracles import flag_presentation, grassmannian_presentation
from rht.cohomology import checked_formal_dimension, cohomology, complex_for
from rht.weights import find_weights


def _poly_add(a, b):
    out = [0] * max(len(a), len(b))
    for p in (a, b):
        for i, x in enumerate(p):
            out[i] += x
    return out


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _gaussian_binomial(n, k):
    """Coefficients in q of [n choose k]_q, by [n, k] = [n-1, k-1] + q^k [n-1, k]."""
    if k in (0, n):
        return [1]
    return _poly_add(_gaussian_binomial(n - 1, k - 1), [0] * k + _gaussian_binomial(n - 1, k))


def _q_factorial(n):
    """Coefficients in q of [n]_q! = prod over i <= n of 1 + q + ... + q^(i-1)."""
    out = [1]
    for i in range(1, n + 1):
        out = _poly_mul(out, [1] * i)
    return out


# the Poincaré polynomial in q = t^2, and the sizes fixed here
CASES = [
    (grassmannian_presentation(2, 4), _gaussian_binomial(4, 2), 8),
    (grassmannian_presentation(2, 5), _gaussian_binomial(5, 2), 12),
    (grassmannian_presentation(3, 6), _gaussian_binomial(6, 3), 18),
    (flag_presentation(3), _q_factorial(3), 6),
    (flag_presentation(4), _q_factorial(4), 12),
]
IDS = [p.name for p, _, _ in CASES]


def test_the_closed_forms():
    assert _gaussian_binomial(4, 2) == [1, 1, 2, 1, 1]
    assert _q_factorial(3) == [1, 2, 2, 1]
    assert [sum(_gaussian_binomial(n, k)) for n, k in ((4, 2), (5, 2), (6, 3))] == [6, 10, 20]


@pytest.mark.parametrize("p,poincare,dim", CASES, ids=IDS)
def test_betti_numbers_and_formal_dimension(p, poincare, dim):
    assert p.validate() == []
    betti = [0] * (p.truncation_degree)
    for m, b in enumerate(poincare):
        betti[2 * m] = b
    assert cohomology(p).betti_list() == betti
    assert len(poincare) == dim // 2 + 1
    assert checked_formal_dimension(p) == dim


@pytest.mark.parametrize("p,poincare,dim", CASES, ids=IDS)
def test_weight_i_on_degrees_2i_and_2i_minus_1(p, poincare, dim):
    report = find_weights(p)
    assert report.feasible
    assert report.assignment.weights == {g.name: (g.degree + 1) // 2 for g in p.generators}


def _read(t_rows, x):
    return [sum((c * x.coefficient(m) for m, c in row.terms.items()), Fraction(0)) for row in t_rows]


@pytest.mark.parametrize("p,poincare,dim", CASES, ids=IDS)
def test_readers_read_their_representatives(p, poincare, dim):
    # T . rep_j = e_j for the default reader and for one on the
    # representatives reversed, which inverts their class coordinates
    cx = complex_for(p)
    for n in range(p.truncation_degree):
        reps = cx.representatives(n)
        for basis, t_rows in (cx.quotient_data(n), cx.quotient_for(n, reps[::-1])):
            assert len(basis) == cx.betti(n)
            for j, x in enumerate(basis):
                assert _read(t_rows, x) == [int(i == j) for i in range(len(basis))], (n, j)
