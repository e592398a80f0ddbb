"""Diagonalisation certificates against sympy's characteristic polynomial.

The certificate reads the eigenvalue multiset from the trace and checks
only that the squarefree product of (M - t^w I) vanishes.  Here sympy, which
shares no code with the package, confirms that every accepted matrix has
the characteristic polynomial prod (X - t^w)^(m_w), and conjugated Jordan
blocks, whose characteristic polynomial has the same shape, are refused.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from rht.cohomology import ActionReport, diagonalization_certificate
from rht.scalars import Laurent

T, X = sympy.symbols("t X")

LOWEST = -2
small = st.integers(-3, 3)
exponents = st.integers(LOWEST, 4)


def _invertible(draw, n: int) -> sympy.Matrix:
    p = sympy.Matrix(n, n, lambda i, j: draw(small))
    assume(p.det() != 0)
    return p


@st.composite
def conjugated(draw, jordan: bool):
    """P (D + N) P^-1 with D = diag(t^w), w sorted; N is strictly upper
    triangular and joins only equal exponents, nonzero when jordan."""
    n = draw(st.integers(2 if jordan else 1, 4))
    ws = sorted(draw(st.lists(exponents, min_size=n, max_size=n)))
    if jordan:
        i = draw(st.integers(0, n - 2))
        ws[i + 1] = ws[i]
        ws.sort()
    core = sympy.diag(*[T**w for w in ws])
    if jordan:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if ws[i] == ws[j]]
        for i, j in pairs:
            core[i, j] = draw(small)
        assume(any(core[i, j] for i, j in pairs))
    p = _invertible(draw, n)
    return ws, (p * core * p.inv()).applyfunc(sympy.expand)


def _laurent(entry) -> Laurent:
    terms = {}
    for (power,), coeff in sympy.Poly(entry * T**-LOWEST, T).terms():
        terms[power + LOWEST] = Fraction(int(coeff.p), int(coeff.q))
    return Laurent(terms)


def _certificate(m: sympy.Matrix):
    return diagonalization_certificate(
        ActionReport(
            presentation_name="oracle",
            degree=0,
            variance="cohomology",
            basis=[],
            matrix=[[_laurent(m[i, j]) for j in range(m.cols)] for i in range(m.rows)],
        )
    )


def _split_charpoly(ws) -> sympy.Expr:
    out = sympy.Integer(1)
    for w in ws:
        out *= X - T**w
    return out


@settings(max_examples=40, deadline=None)
@given(conjugated(jordan=False))
def test_conjugated_diagonal_is_certified_and_charpoly_splits(case):
    ws, m = case
    cert = _certificate(m)
    assert cert.diagonalizable, cert.reason
    assert cert.eigenvalue_powers == dict(Counter(ws))
    # the certificate's unchecked consequence, checked independently
    assert sympy.expand(m.charpoly(X).as_expr() - _split_charpoly(ws)) == 0


@settings(max_examples=40, deadline=None)
@given(conjugated(jordan=True))
def test_conjugated_jordan_block_is_refused(case):
    ws, m = case
    cert = _certificate(m)
    assert not cert.diagonalizable
    assert cert.reason == "matrix is not annihilated by its candidate eigenvalues"
    # same characteristic polynomial as a diagonal matrix: only the
    # annihilator tells the two apart
    assert sympy.expand(m.charpoly(X).as_expr() - _split_charpoly(ws)) == 0
