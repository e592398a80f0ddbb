"""Free graded-commutative algebra: signs, products, bases, extensions.

The monomial count checks run against the Hilbert series oracle in
oracles.py, which knows nothing about the package's basis enumeration.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    canonical_monomial,
    enumerate_words,
    monomial_count_series,
    multiply_words,
    random_presentation,
    sort_word,
)
from rht.algebra import LAURENT, RATIONAL, FreeGCA, Generator, extend_algebra_map
from rht.scalars import Laurent
from rht.errors import AmbientMismatchError

# mixed parities, repeated degrees on purpose
GENS = [
    Generator(0, "a", 2),
    Generator(1, "b", 3),
    Generator(2, "c", 3),
    Generator(3, "e", 4),
    Generator(4, "f", 5),
]


@pytest.fixture(scope="module")
def alg():
    return FreeGCA(GENS)


def degrees():
    return {g.gid: g.degree for g in GENS}


words = st.lists(st.sampled_from([g.gid for g in GENS]), min_size=0, max_size=4)


@given(words, words)
def test_product_signs_match_transposition_count(w1, w2):
    alg = FreeGCA(GENS)
    n1 = alg.normalize_word(list(w1))
    n2 = alg.normalize_word(list(w2))
    if n1 is None or n2 is None:
        return
    s1, m1 = n1
    s2, m2 = n2
    x = alg.element({m1: Fraction(s1)})
    y = alg.element({m2: Fraction(s2)})
    got = x * y
    sign, merged = multiply_words(tuple(w1), tuple(w2), degrees())
    if sign == 0:
        assert got.is_zero()
        return
    s3, m3 = alg.normalize_word(list(merged))
    assert s3 == 1  # oracle already sorted it
    assert got.terms == {m3: Fraction(sign)}


@given(words, words)
def test_graded_commutativity(w1, w2):
    alg = FreeGCA(GENS)
    n1 = alg.normalize_word(list(w1))
    n2 = alg.normalize_word(list(w2))
    if n1 is None or n2 is None:
        return
    x = alg.element({n1[1]: Fraction(1)})
    y = alg.element({n2[1]: Fraction(1)})
    d1 = sum(degrees()[g] for g in w1)
    d2 = sum(degrees()[g] for g in w2)
    sign = -1 if (d1 % 2 == 1 and d2 % 2 == 1) else 1
    assert x * y == (y * x).scale(Fraction(sign))


def test_odd_generator_squares_to_zero(alg):
    b = alg.gen("b")
    assert (b * b).is_zero()


def test_zeroth_power_is_the_unit(alg):
    for name in ("a", "b"):
        assert alg.gen(name).power(0) == alg.one()
    assert alg.zero().power(0) == alg.one()


def test_even_generator_powers_survive(alg):
    a = alg.gen("a")
    cube = a * a * a
    assert not cube.is_zero()
    assert list(cube.terms.values()) == [Fraction(1)]


@settings(deadline=None)
@given(st.integers(0, 12))
def test_monomial_basis_count_matches_hilbert_series(n):
    alg = FreeGCA(GENS)
    series = monomial_count_series([g.degree for g in GENS], 12)
    assert len(alg.monomial_basis(n)) == series[n]


def test_monomial_basis_is_sorted_and_unique(alg):
    for n in range(10):
        basis = alg.monomial_basis(n)
        assert len(set(basis)) == len(basis)
        ranked = [tuple((alg._rank[g], e) for g, e in m) for m in basis]
        assert ranked == sorted(ranked)


@st.composite
def unsorted_degrees(draw):
    """(generator degrees, n): the degrees are not in id order, and one or
    two generators are above n, placed before a smaller one."""
    n = draw(st.integers(2, 12))
    degrees = draw(st.lists(st.integers(2, 7), min_size=1, max_size=5))
    for _ in range(draw(st.integers(1, 2))):
        big = max(n, *degrees) + draw(st.integers(1, 3))
        degrees.insert(draw(st.integers(0, len(degrees) - 1)), big)
    return degrees, n


@settings(max_examples=200, deadline=None)
@given(unsorted_degrees())
def test_monomial_basis_is_the_sorted_oracle_enumeration(case):
    # the enumeration stops a branch at the first generator above the degree
    # left, which needs the (degree, id) order; the oracle recurses over ids
    gen_degrees, n = case
    degrees = dict(enumerate(gen_degrees))
    alg = FreeGCA(Generator(g, f"g{g}", d) for g, d in degrees.items())
    oracle = [canonical_monomial(w, degrees)[1] for w in enumerate_words(degrees, n)]
    key = lambda m: [((degrees[g], g), e) for g, e in m]
    assert alg.monomial_basis(n) == sorted(oracle, key=key)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(2, 7), min_size=1, max_size=6), st.integers(0, 14))
def test_monomial_basis_comes_out_in_canonical_order(gen_degrees, n):
    # the degrees are drawn in arbitrary order, so id order and the
    # canonical (degree, id) order differ; the enumeration sorts nothing
    alg = FreeGCA(Generator(g, f"g{g}", d) for g, d in enumerate(gen_degrees))
    basis = alg.monomial_basis(n)
    keys = [alg.monomial_key(m) for m in basis]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert basis == sorted(basis, key=alg.monomial_key)


def test_elements_from_different_ambients_do_not_mix(alg):
    other = FreeGCA([Generator(0, "a", 2)])
    with pytest.raises(AmbientMismatchError):
        alg.gen("a") + other.gen("a")


def test_extend_derivation_satisfies_leibniz(alg):
    from rht.algebra import extend_derivation

    # d(a) = 0, d(b) = a^2, d(c) = 0, d(e) = 0, d(f) = a e
    _, a2 = alg.normalize_word([0, 0])
    _, ae = alg.normalize_word([0, 3])
    d = extend_derivation(
        alg, {1: alg.element({a2: Fraction(1)}), 4: alg.element({ae: Fraction(1)})}
    )
    x = alg.gen("a") * alg.gen("b")
    y = alg.gen("c") * alg.gen("e")
    left = d(x * y)
    # deg(ab) = 5, odd
    right = d(x) * y + (x * d(y)).scale(Fraction(-1))
    assert left == right


def test_derivation_of_a_power_keeps_a_fractional_coefficient_and_the_lower_power(alg):
    from rht.algebra import extend_derivation

    # d(a) = b/2, so d(a^e) = e/2 a^(e-1) b: a^2 keeps one factor a, and the
    # coefficient 1/2 is read as it is, not as its numerator
    a, b = alg.gen("a"), alg.gen("b")
    d = extend_derivation(alg, {0: b.scale(Fraction(1, 2))})
    assert d(a) == b.scale(Fraction(1, 2))
    assert d(a * a) == a * b
    assert d(a.power(3)) == (a * a * b).scale(Fraction(3, 2))
    assert d.of_monomial(((0, 2),)) == {((0, 1), (1, 1)): 1}


def _sample_derivation(alg):
    from rht.algebra import extend_derivation

    # d(b) = a^2, d(f) = a e, zero on the other generators
    _, a2 = alg.normalize_word([0, 0])
    _, ae = alg.normalize_word([0, 3])
    return extend_derivation(
        alg, {1: alg.element({a2: Fraction(1)}), 4: alg.element({ae: Fraction(1)})}
    )


# degree 1 has no monomials
NONEMPTY_DEGREES = st.sampled_from([0, 2, 3, 4, 5, 6, 7, 8])


@pytest.fixture(scope="module")
def warm_d(alg):
    # shared across examples, so its monomial cache is hit in every state:
    # empty, holding some suffixes of a word, or holding the word itself
    return _sample_derivation(alg)


@settings(deadline=None)
@given(NONEMPTY_DEGREES, NONEMPTY_DEGREES, st.data())
def test_derivation_obeys_leibniz_on_monomials_whatever_is_cached(alg, warm_d, m, n, data):
    x = alg.element({data.draw(st.sampled_from(alg.monomial_basis(m))): Fraction(1)})
    y = alg.element({data.draw(st.sampled_from(alg.monomial_basis(n))): Fraction(1)})
    cold = _sample_derivation(alg)
    left = warm_d(x * y)
    assert left == cold(x * y)
    assert left == warm_d(x) * y + (x * warm_d(y)).scale(Fraction((-1) ** m))


def test_extend_algebra_map_is_multiplicative(alg):
    from rht.algebra import extend_algebra_map

    images = {
        0: alg.gen("a").scale(Fraction(2)),
        1: alg.gen("b") + alg.gen("c"),
        2: alg.gen("c"),
        3: alg.gen("e"),
        4: alg.gen("f"),
    }
    phi = extend_algebra_map(alg, images)
    x = alg.gen("a") * alg.gen("b")
    y = alg.gen("c") + alg.gen("b")
    assert phi(x * y) == phi(x) * phi(y)
    assert phi(x + y.scale(Fraction(3))) == phi(x) + phi(y).scale(Fraction(3))


def test_partial_algebra_map_fixes_the_absent_generators(alg):
    from rht.algebra import LAURENT, extend_algebra_map
    from rht.scalars import Laurent

    # only a has an image; b, c, e and f map to themselves
    phi = extend_algebra_map(alg, {0: alg.gen("a").scale(Fraction(2))})
    a, b, e = alg.gen("a"), alg.gen("b"), alg.gen("e")
    assert phi(b) == b
    assert phi(a * a * b * e) == (a * a * b * e).scale(Fraction(4))
    assert phi(b * alg.gen("c") + e) == b * alg.gen("c") + e
    # in a Laurent map the absent generators are Laurent too
    lam = extend_algebra_map(alg, {0: a.with_laurent_scalars().scale(Laurent.t(1))})
    assert lam.kind == LAURENT
    assert lam(a * b * e) == (a * b * e).with_laurent_scalars().scale(Laurent.t(1))
    assert lam(b * e) == (b * e).with_laurent_scalars()


@given(words)
def test_sort_word_oracle_agrees_with_normalize(w):
    alg = FreeGCA(GENS)
    n = alg.normalize_word(list(w))
    s2, sorted_w = sort_word(tuple(w), degrees())
    if s2 == 0:
        assert n is None
        return
    assert n is not None
    s1, m1 = n
    # package canonical order is (degree, gid); oracle sorts by gid.
    # both must produce the same signed monomial, so compare elements.
    s3, m3 = alg.normalize_word(list(sorted_w))
    assert m1 == m3
    assert s1 == s2 * s3


def test_extensions_refuse_a_foreign_image_with_one_message(alg):
    from rht.algebra import extend_algebra_map, extend_derivation

    foreign = FreeGCA([Generator(0, "z", 3)]).gen("z")
    for extend in (extend_derivation, extend_algebra_map):
        with pytest.raises(AmbientMismatchError, match="image of a lives in a different algebra"):
            extend(alg, {0: foreign})


def _sample_images(alg):
    # the rational algebra map of test_extend_algebra_map_is_multiplicative
    return {
        0: alg.gen("a").scale(Fraction(2)),
        1: alg.gen("b") + alg.gen("c"),
        2: alg.gen("c"),
        3: alg.gen("e"),
        4: alg.gen("f"),
    }


laurent_parts = st.lists(
    st.tuples(
        st.integers(-2, 2),
        NONEMPTY_DEGREES,
        st.integers(0, 30),
        st.integers(-3, 3).filter(bool),
    ),
    min_size=1,
    max_size=4,
)


@settings(deadline=None)
@given(laurent_parts)
def test_a_maps_kind_comes_from_its_images(alg, parts):
    # x = sum t^a x_a with rational x_a; a rational map or derivation
    # keeps the kind of its argument and commutes with the Laurent scalars
    from rht.algebra import LAURENT, RATIONAL, extend_algebra_map, extend_derivation
    from rht.scalars import Laurent

    phi = extend_algebra_map(alg, _sample_images(alg))
    d = _sample_derivation(alg)
    pieces = []
    for a, n, pick, coeff in parts:
        basis = alg.monomial_basis(n)
        pieces.append(
            (Laurent({a: 1}), alg.element({basis[pick % len(basis)]: Fraction(coeff)}))
        )
    x = alg.zero(LAURENT)
    for scalar, x_a in pieces:
        x = x + x_a.with_laurent_scalars().scale(scalar)
    for f in (phi, d):
        expected = alg.zero(LAURENT)
        for scalar, x_a in pieces:
            image = f(x_a)
            assert image.kind == RATIONAL
            expected = expected + image.with_laurent_scalars().scale(scalar)
        got = f(x)
        assert got.kind == LAURENT
        assert got == expected
    # one Laurent image makes the whole map Laurent: it widens a rational
    # argument, and a widened image changes no value
    images = _sample_images(alg)
    images[0] = images[0].with_laurent_scalars()
    widened = extend_algebra_map(alg, images)
    for _, x_a in pieces:
        assert widened(x_a) == phi(x_a).with_laurent_scalars()


SCALARS = [0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2)]


@st.composite
def arithmetic_cases(draw):
    """A kind, two elements of it over a small monomial pool with small
    coefficients, so sums and products cancel often, and a scalar."""
    from rht.algebra import LAURENT, RATIONAL
    from rht.scalars import Laurent

    kind = draw(st.sampled_from([RATIONAL, LAURENT]))
    pool = [m for n in (2, 3, 5) for m in FreeGCA(GENS).monomial_basis(n)]
    rational = st.sampled_from(SCALARS)
    if kind == RATIONAL:
        coeff = rational.map(Fraction)
    else:
        coeff = st.dictionaries(st.integers(-1, 1), rational, max_size=2).map(Laurent)
    element = st.dictionaries(st.sampled_from(pool), coeff, max_size=4)
    scalar = rational if kind == RATIONAL else st.one_of(rational, coeff)
    return kind, draw(element), draw(element), draw(scalar)


@given(arithmetic_cases())
def test_arithmetic_results_equal_the_validated_terms(alg, case):
    # sums, products, scalings and negations build their results without
    # re-validation; each must equal its raw terms passed through the
    # validating constructor, with no zero and no wrong-kind coefficient
    from rht.algebra import RATIONAL, Element
    from rht.scalars import Laurent

    kind, tx, ty, q = case
    x, y = Element(alg, kind, tx), Element(alg, kind, ty)
    raw_sum = dict(x.terms)
    for m, c in y.terms.items():
        raw_sum[m] = raw_sum[m] + c if m in raw_sum else c
    raw_product: dict = {}
    for ma, ca in x.terms.items():
        for mb, cb in y.terms.items():
            merged = alg.multiply_monomials(ma, mb)
            if merged is not None:
                sign, m = merged
                c = ca * cb * sign
                raw_product[m] = raw_product[m] + c if m in raw_product else c
    coefficient_type = Fraction if kind == RATIONAL else Laurent
    for got, raw in (
        (x + y, raw_sum),
        (x * y, raw_product),
        (x.scale(q), {m: c * q for m, c in x.terms.items()}),
        (-x, {m: -c for m, c in x.terms.items()}),
        (x + -x, {}),
    ):
        assert got == Element(alg, kind, raw)
        assert all(c and type(c) is coefficient_type for c in got.terms.values())


def test_repr_lists_generators_with_their_degrees_in_id_order():
    assert repr(FreeGCA(GENS)) == "FreeGCA(a:2, b:3, c:3, e:4, f:5)"
    assert repr(FreeGCA([])) == "FreeGCA()"


def _random_image(rng, alg, degree, kind):
    """A random element of the given degree, in the given scalar kind."""

    def coeff():
        c = Fraction(rng.choice([1, -1, 2, -3]), rng.choice([1, 1, 2]))
        return Laurent({rng.randint(-2, 2): c, rng.randint(-2, 2): 1}) if kind == LAURENT else c

    basis = alg.monomial_basis(degree)
    chosen = rng.sample(basis, rng.randint(0, min(3, len(basis))))
    return alg.element({m: coeff() for m in chosen}, kind)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([RATIONAL, LAURENT]))
def test_cached_prefixes_give_each_monomial_the_naive_image(seed, kind):
    # every word's image equals the product of its generators' images in
    # word order, taken from 1, whatever the map was asked before
    rng = random.Random(seed)
    p = random_presentation(rng)
    alg = p.algebra
    images = {g.gid: _random_image(rng, alg, g.degree, kind) for g in p.generators if rng.random() < 0.8}
    phi = extend_algebra_map(alg, images)
    full = {g.gid: images.get(g.gid, alg.gen(g.gid)) for g in p.generators}
    if phi.kind == LAURENT:
        full = {gid: img.with_laurent_scalars() for gid, img in full.items()}
    monos = [m for n in range(p.truncation_degree) for m in alg.monomial_basis(n)]
    for mono in rng.sample(monos, min(len(monos), 40)):
        naive = alg.one(phi.kind)
        for gid, e in mono:
            for _ in range(e):
                naive = naive * full[gid]
        assert alg.element(phi.of_monomial(mono), phi.kind) == naive, alg.monomial_name(mono)
        assert phi(alg.element({mono: 3})) == naive.scale(3)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([RATIONAL, LAURENT]))
def test_power_is_the_n_fold_product_from_one(seed, kind):
    rng = random.Random(seed)
    alg = FreeGCA(GENS)
    x = _random_image(rng, alg, rng.choice([2, 3, 4]), kind)
    naive = alg.one(kind)
    for n in range(5):
        assert x.power(n) == naive, n
        naive = naive * x
