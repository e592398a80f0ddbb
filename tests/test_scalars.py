"""Laurent scalars in t: ring laws, evaluation, canonical strings."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    FractionLaurent,
    fraction_diagonalization_certificate,
    fraction_mat_mul,
)
from rht.algebra import RATIONAL, Element
from rht.cohomology import ActionReport, _mat_mul, diagonalization_certificate
from rht.corpus import load_corpus_family
from rht.errors import SchemaError
from rht.families import evaluate
from rht.model import BasisClass, GradedAlgebraTable
from rht.scalars import Laurent

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)


@st.composite
def laurents(draw):
    n = draw(st.integers(0, 3))
    terms = {}
    for _ in range(n):
        terms[draw(st.integers(-3, 3))] = draw(coeffs)
    return Laurent(terms)


@given(laurents(), laurents(), laurents())
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Laurent.zero() == a
    assert a * Laurent.one() == a
    assert a - a == Laurent.zero()


@given(laurents(), st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool))
def test_eval_t_is_a_ring_map(a, q):
    b = Laurent.t(2) - Laurent.from_rational(Fraction(1, 2))
    assert (a * b).eval_t(q) == a.eval_t(q) * b.eval_t(q)
    assert (a + b).eval_t(q) == a.eval_t(q) + b.eval_t(q)


@given(laurents())
def test_parse_of_str_round_trips(a):
    assert Laurent.parse(str(a)) == a


def test_canonical_string_examples():
    x = Laurent({2: Fraction(1, 2), 1: Fraction(-1)})
    assert str(x) == "1/2*t^2 - t"
    assert str(Laurent.zero()) == "0"
    assert str(Laurent.one()) == "1"
    assert str(Laurent.t(-1)) == "t^-1"
    assert str(Laurent({0: -1, -2: 3})) == "-1 + 3*t^-2"


def test_t_power_zero_is_one():
    assert Laurent.t(0) == Laurent.one()


def test_monomial_t_power():
    assert Laurent.t(4).monomial_t_power() == 4
    assert (Laurent.t(2) + Laurent.t(3)).monomial_t_power() is None
    assert (Laurent.t(2) * Laurent.from_rational(Fraction(3))).monomial_t_power() is None
    assert Laurent.zero().monomial_t_power() is None


def test_as_rational_rejects_t_terms():
    with pytest.raises(Exception):
        Laurent.t(1).as_rational()
    assert Laurent.from_rational(Fraction(7, 3)).as_rational() == Fraction(7, 3)


def test_parse_rejects_garbage():
    for bad in ("t^", "1//2", "t**2", "q + 1", ""):
        with pytest.raises(SchemaError):
            Laurent.parse(bad)


@given(laurents(), st.integers(0, 4))
def test_integer_powers_agree_with_repeated_product(a, n):
    acc = Laurent.one()
    for _ in range(n):
        acc = acc * a
    assert a**n == acc


# ------------------------------------------ against the Fraction oracle
#
# The oracle keeps (t-power, s-power) keys; a Laurent in t alone is its
# s-power 0 part.

term_dicts = st.dictionaries(
    st.integers(-3, 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    max_size=4,
)


def _reference(terms) -> FractionLaurent:
    return FractionLaurent({(k, 0): c for k, c in terms.items()})


def _pair(terms):
    return Laurent(terms), _reference(terms)


def _agrees(x: Laurent, ref: FractionLaurent) -> bool:
    """Same value, and x keeps the storage invariant: no zero, an int
    exactly when the coefficient is integral."""
    items = x.items()
    canonical = all(
        c and (type(c) is int or (type(c) is Fraction and c.denominator != 1))
        for _, c in items
    )
    return canonical and {(k, 0): c for k, c in items} == ref.terms


@given(term_dicts, term_dicts)
def test_ring_operations_match_fraction_oracle(ta, tb):
    (a, ra), (b, rb) = _pair(ta), _pair(tb)
    assert _agrees(a, ra) and _agrees(b, rb)
    assert _agrees(a + b, ra + rb)
    assert _agrees(a - b, ra - rb)
    assert _agrees(a * b, ra * rb)
    assert _agrees(-a, -ra)
    assert _agrees(a - a, FractionLaurent())


@given(term_dicts, st.integers(0, 4))
def test_nonnegative_powers_match_fraction_oracle(terms, n):
    a, ra = _pair(terms)
    assert _agrees(a**n, ra**n)


@given(
    st.integers(-3, 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool),
    st.integers(-4, -1),
)
def test_negative_powers_match_fraction_oracle(key, coeff, n):
    a, ra = _pair({key: coeff})
    assert _agrees(a**n, ra**n)
    assert a**n * a ** (-n) == Laurent.one()


@given(term_dicts, st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool))
def test_substitutions_match_fraction_oracle(terms, q):
    a, ra = _pair(terms)
    assert _agrees(a.eval_t(q), ra.eval_t(q))
    assert _agrees(a.eval_t(q.numerator), ra.eval_t(q.numerator))


@given(term_dicts)
def test_equal_values_hash_equal_however_the_coefficient_was_given(terms):
    a = Laurent(terms)
    integral = {k: v.numerator for k, v in terms.items() if v.denominator == 1}
    halves = Laurent({0: Fraction(1, 2)})
    for x, y in (
        (Laurent(integral), Laurent({k: Fraction(v) for k, v in integral.items()})),
        (a * Fraction(3, 2) * Fraction(2, 3), a),
        (halves + halves, Laurent.one()),
        (Laurent.from_rational(Fraction(6, 3)), Laurent.from_rational(2)),
        (Laurent.one(), 1),
        (Laurent.zero(), 0),
        (halves, Fraction(1, 2)),
        (Laurent.from_rational(Fraction(6, 3)), 2),
        (Laurent({0: terms.get(0, 0)}), terms.get(0, 0)),
    ):
        assert x == y and hash(x) == hash(y)


@given(st.fractions(min_value=-4, max_value=4, max_denominator=3))
def test_as_rational_returns_a_fraction(q):
    c = Laurent.from_rational(q)
    for x, want in ((c, q), (c * 2, 2 * q), (q - Laurent.zero(), q)):
        got = x.as_rational()
        assert type(got) is Fraction and got == want


def _exact_scalar_takers():
    """Rational elements and family evaluation on s2xs3, each as a function
    of one scalar."""
    fam = load_corpus_family("s2xs3-conjugated")
    alg = fam.presentation.algebra
    x = alg.gen("x")
    (mono,) = x.terms
    return [
        lambda c: Element(alg, RATIONAL, {mono: c}),
        lambda c: alg.element({mono: c}),
        x.scale,
        lambda c: evaluate(fam, c),
    ]


def _table_product(c):
    """A graded algebra table with a . a = c b."""
    basis = [BasisClass("1", 0), BasisClass("a", 2), BasisClass("b", 4)]
    return GradedAlgebraTable("t", basis, "1", {("a", "a"): {"b": c}})


def test_floats_and_bools_are_refused():
    takers = _exact_scalar_takers() + [_table_product]
    for bad in (0.1, 0.5, 1.0, True, False):
        with pytest.raises(TypeError):
            Laurent({0: bad})
        with pytest.raises(TypeError):
            Laurent({1: bad})
        with pytest.raises(TypeError):
            Laurent.from_rational(bad)
        for take in takers:
            with pytest.raises(TypeError):
                take(bad)
    with pytest.raises(TypeError):
        Laurent.t() * 0.5
    with pytest.raises(TypeError):
        0.5 * Laurent.t()
    with pytest.raises(TypeError):
        Laurent.t() + True
    with pytest.raises(TypeError):
        Laurent.sum_of_products([(Laurent.t(), 0.5)])
    # a bool is not a scalar, so it compares unequal instead of raising
    assert Laurent.one() != True and Laurent.zero() != False


@pytest.mark.parametrize("good", [2, Fraction(2), "2", "4/2"], ids=["int", "Fraction", "str", "str-quotient"])
def test_ints_fractions_and_rational_strings_are_accepted(good):
    element, element_from_dict, scaled, evaluated = (take(good) for take in _exact_scalar_takers())
    assert element == element_from_dict == scaled
    assert set(element.terms.values()) == {Fraction(2)}
    assert evaluated.parameter == Fraction(2)


def test_cancellation_stores_no_zero_term():
    t, u = Laurent.t(), Laurent.t(-2) + 3
    for x, count in (
        ((t + 1) * (t - 1), 2),
        ((t - Fraction(1, 2)) * (t + Fraction(1, 2)), 2),
        ((t - 1).eval_t(1), 0),
        (Laurent.sum_of_products([(t, u), (-u, t)]), 0),
        (_mat_mul([[t, 1], [1, t]], [[t, -1], [-1, t]])[0][1], 0),
    ):
        assert x.term_count() == count and all(c for _, c in x.items())


@st.composite
def matrix_pairs(draw):
    n = draw(st.integers(0, 5))
    def matrix():
        return [[draw(term_dicts) for _ in range(n)] for _ in range(n)]
    return matrix(), matrix()


def _laurents(rows):
    return [[Laurent(t) for t in row] for row in rows]


def _oracle(rows):
    return [[_reference(t) for t in row] for row in rows]


@settings(max_examples=60, deadline=None)
@given(matrix_pairs())
def test_fused_matrix_product_matches_naive_product(pair):
    a, b = pair
    got = _mat_mul(_laurents(a), _laurents(b))
    want = fraction_mat_mul(_oracle(a), _oracle(b))
    assert all(_agrees(x, y) for row, ref in zip(got, want) for x, y in zip(row, ref))
    assert len(got) == len(a)


@st.composite
def certificate_cases(draw):
    """A random matrix, or U (diag(t^w) + J) U^-1 with U unipotent and
    integral, where J is zero or one entry joining two equal exponents."""
    kind = draw(st.sampled_from(["random", "diagonal", "jordan"]))
    n = draw(st.integers(2 if kind == "jordan" else 0, 4))
    if kind == "random":
        return [[draw(term_dicts) for _ in range(n)] for _ in range(n)]
    ws = draw(st.lists(st.integers(-2, 3), min_size=n, max_size=n))
    if kind == "jordan":
        ws[1] = ws[0]
    ws.sort()
    core = [
        [FractionLaurent({(ws[i], 0): 1}) if i == j else FractionLaurent() for j in range(n)]
        for i in range(n)
    ]
    if kind == "jordan":
        i = draw(st.sampled_from([i for i in range(n - 1) if ws[i] == ws[i + 1]]))
        core[i][i + 1] = FractionLaurent({(0, 0): draw(st.integers(1, 3))})
    # U = I + N with N strictly upper triangular, so U^-1 = sum of (-N)^k
    neg_nil = [
        [FractionLaurent({(0, 0): -draw(st.integers(-2, 2)) if j > i else 0}) for j in range(n)]
        for i in range(n)
    ]
    identity = [[FractionLaurent({(0, 0): int(i == j)}) for j in range(n)] for i in range(n)]
    u = [[x - y for x, y in zip(r, s)] for r, s in zip(identity, neg_nil)]
    inverse = power = identity
    for _ in range(n):
        power = fraction_mat_mul(power, neg_nil)
        inverse = [[x + y for x, y in zip(r, s)] for r, s in zip(inverse, power)]
    m = fraction_mat_mul(fraction_mat_mul(u, core), inverse)
    return [[{pt: c for (pt, _), c in x.terms.items()} for x in row] for row in m]


@settings(max_examples=80, deadline=None)
@given(certificate_cases())
def test_certificate_matches_fraction_oracle(rows):
    cert = diagonalization_certificate(
        ActionReport("oracle", 0, "cohomology", [], _laurents(rows))
    )
    verdict, powers, reason = fraction_diagonalization_certificate(_oracle(rows))
    assert (cert.diagonalizable, cert.eigenvalue_powers, cert.reason) == (verdict, powers, reason)
