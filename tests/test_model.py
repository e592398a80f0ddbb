"""Presentation and table layer: validation, serialization, degree gates."""

import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import naive_rational, naive_terms_to_element, random_presentation
from rht.algebra import LAURENT, Element, FreeGCA, Generator
from rht.errors import SchemaError
from rht.model import (
    GradedAlgebraTable,
    SullivanPresentation,
    _parse_monomial,
    parse_presentation,
    parse_table,
    serialize_presentation,
    terms_to_element,
)
from rht.scalars import Laurent, parse_rational


def two_sphere():
    gens = [Generator(0, "x", 2), Generator(1, "y", 3)]
    alg = FreeGCA(gens)
    _, x2 = alg.normalize_word([0, 0])
    return SullivanPresentation(
        "s2", gens, {1: alg.element({x2: Fraction(1)})}, 6, 2
    )


def test_valid_presentation_has_no_violations():
    assert two_sphere().validate() == []


def test_generator_of_the_truncation_degree_is_valid():
    # y has degree exactly N = 3; only a degree above N is flagged
    p = two_sphere()
    p = SullivanPresentation("s2", p.generators, p.differential, 3, 2)
    assert p.validate() == []


def test_degree_one_generator_is_flagged():
    gens = [Generator(0, "x", 1)]
    p = SullivanPresentation("bad", gens, {}, 5, None)
    assert any("degree" in str(v) for v in p.validate())


def test_non_decomposable_differential_is_flagged():
    gens = [Generator(0, "x", 2), Generator(1, "y", 1 + 2)]
    alg = FreeGCA(gens)
    _, xw = alg.normalize_word([0])
    p = SullivanPresentation("bad", gens, {1: alg.element({xw: Fraction(1)})}, 6, None)
    bad = p.validate()
    assert any("decompos" in str(v) for v in bad)


def test_wrong_image_degree_is_flagged():
    gens = [Generator(0, "x", 2), Generator(1, "y", 5)]
    alg = FreeGCA(gens)
    _, x2 = alg.normalize_word([0, 0])
    # deg x^2 = 4 but deg y + 1 = 6
    p = SullivanPresentation("bad", gens, {1: alg.element({x2: Fraction(1)})}, 8, None)
    assert p.validate()


def test_d_squared_violation_is_flagged():
    gens = [Generator(0, "x", 2), Generator(1, "y", 3), Generator(2, "z", 4)]
    alg = FreeGCA(gens)
    _, x2 = alg.normalize_word([0, 0])
    _, xy = alg.normalize_word([0, 1])
    p = SullivanPresentation(
        "bad",
        gens,
        {1: alg.element({x2: Fraction(1)}), 2: alg.element({xy: Fraction(1)})},
        8,
        None,
    )
    # d(z) = xy, d(xy) = x * x^2 != 0
    assert any("d(d(" in str(v) for v in p.validate())


def test_round_trip_is_byte_identical():
    p = two_sphere()
    text = serialize_presentation(p)
    again = serialize_presentation(parse_presentation(text))
    assert again == text


def test_round_trip_on_random_presentations():
    rng = random.Random(7)
    for _ in range(25):
        p = random_presentation(rng)
        text = serialize_presentation(p)
        back = parse_presentation(text)
        assert back == p
        assert serialize_presentation(back) == text


def test_parse_rejects_missing_fields():
    with pytest.raises(SchemaError):
        parse_presentation(json.dumps({"name": "x"}))


def test_parse_rejects_unknown_generator_in_differential():
    doc = {
        "name": "bad",
        "truncation_degree": 5,
        "generators": [{"name": "x", "degree": 2}],
        "differential": {"q": []},
    }
    with pytest.raises(SchemaError):
        parse_presentation(json.dumps(doc))


def test_parse_rejects_bad_json_text():
    with pytest.raises(SchemaError):
        parse_presentation("{not json")


def test_d_of_unlisted_generator_is_zero():
    p = two_sphere()
    assert p.d_of(0).is_zero()


# ---------------------------------------------------------------- tables


def cp2_table():
    from rht.model import BasisClass

    return GradedAlgebraTable(
        "h-cp2",
        [BasisClass("1", 0), BasisClass("x", 2), BasisClass("x2", 4)],
        "1",
        {("x", "x"): {"x2": Fraction(1)}, ("x", "x2"): {}, ("x2", "x2"): {}},
    )


def test_table_products():
    t = cp2_table()
    x = {"x": Fraction(1)}
    assert t.multiply(x, x) == {"x2": Fraction(1)}
    assert t.multiply(x, {"x2": Fraction(1)}) == t.zero()
    assert t.multiply(t.one(), x) == x


def test_table_add_and_scale():
    t = cp2_table()
    x = {"x": Fraction(1)}
    assert t.add(x, t.scale(x, Fraction(-1))) == {}
    assert t.add(x, {"x2": Fraction(2)}) == {"x": Fraction(1), "x2": Fraction(2)}
    assert t.scale(x, Fraction(0)) == {}
    assert t.scale(x, Fraction(3, 2)) == {"x": Fraction(3, 2)}


def test_table_products_of_two_odd_classes_mirror_with_a_sign_and_cancel():
    from rht.model import BasisClass

    # S^3 x S^3: u v = w, so v u = -w, and (u + v)(u - v) = -u v + v u = -2w;
    # in CP^2 # CP^2, x^2 = y^2 = w, so (x + y)(x - y) = x^2 - y^2 cancels
    t = GradedAlgebraTable(
        "h-s3xs3", [BasisClass("1", 0), BasisClass("u", 3), BasisClass("v", 3), BasisClass("w", 6)], "1",
        {("u", "v"): {"w": Fraction(1)}},
    )
    assert t.multiply({"v": Fraction(1)}, {"u": Fraction(1)}) == {"w": Fraction(-1)}
    assert t.multiply({"u": Fraction(1), "v": Fraction(1)}, {"u": Fraction(1), "v": Fraction(-1)}) == {"w": Fraction(-2)}
    t = GradedAlgebraTable(
        "h-cp2#cp2", [BasisClass("1", 0), BasisClass("x", 2), BasisClass("y", 2), BasisClass("w", 4)], "1",
        {("x", "x"): {"w": Fraction(1)}, ("y", "y"): {"w": Fraction(1)}},
    )
    assert t.multiply({"x": Fraction(1), "y": Fraction(1)}, {"x": Fraction(1), "y": Fraction(-1)}) == {}


def test_table_graded_commutativity_disagreement():
    from rht.model import BasisClass

    with pytest.raises(SchemaError):
        GradedAlgebraTable(
            "bad",
            [BasisClass("1", 0), BasisClass("x", 2), BasisClass("y", 2), BasisClass("z", 4)],
            "1",
            {
                ("x", "y"): {"z": Fraction(1)},
                ("y", "x"): {"z": Fraction(-1)},
            },
        )


def test_odd_class_with_nonzero_square_is_rejected():
    from rht.model import BasisClass

    # u*u is its own mirror, so graded commutativity asks u*u = -u*u
    with pytest.raises(SchemaError, match="violate graded commutativity"):
        GradedAlgebraTable(
            "bad",
            [BasisClass("1", 0), BasisClass("u", 3), BasisClass("v", 6)],
            "1",
            {("u", "u"): {"v": Fraction(1)}},
        )


def test_table_degree_basis():
    t = cp2_table()
    assert t.degree_basis(0) == ["1"]
    assert t.degree_basis(2) == ["x"]
    assert t.degree_basis(3) == []
    assert t.max_degree() == 4


def test_table_rejects_duplicate_class_names():
    from rht.model import BasisClass

    with pytest.raises(SchemaError):
        GradedAlgebraTable(
            "bad",
            [BasisClass("1", 0), BasisClass("x", 2), BasisClass("x", 4)],
            "1",
            {},
        )


def test_table_round_trip_from_corpus_is_byte_identical():
    from rht.corpus import load_manifest, _read_text
    from rht.model import serialize_table

    for key, rec in load_manifest()["tables"].items():
        text = _read_text(rec["file"])
        assert serialize_table(parse_table(text)) == text


def _s2_doc(y_terms):
    return {
        "name": "s2",
        "truncation_degree": 6,
        "generators": [{"name": "x", "degree": 2}, {"name": "y", "degree": 3}],
        "differential": {"y": y_terms},
    }


@pytest.mark.parametrize(
    "y_terms,message",
    [
        ([{"coeff": "0.5", "monomial": [["x", 2]]}], "differential.y[0].coeff: not an exact rational: '0.5'"),
        ([{"coeff": "1/0", "monomial": [["x", 2]]}], "differential.y[0].coeff: not an exact rational: '1/0'"),
        ([{"coeff": "t", "monomial": [["x", 2]]}], "differential.y[0].coeff: not an exact rational: 't'"),
        ([{"coeff": 1, "monomial": [["x", 2]]}], "differential.y[0].coeff: expected a string"),
        ({"coeff": "1", "monomial": [["x", 2]]}, "differential.y: expected a list of terms"),
        ([{"coeff": "1", "monomial": [["x", 2]], "note": ""}], "differential.y[0]: term must have exactly 'coeff' and 'monomial'"),
        ([{"coeff": "1", "monomial": [["x", 2, 1]]}], "differential.y[0].monomial[0]: expected [generator name, positive exponent]"),
        ([{"coeff": "1", "monomial": [["w", 2]]}], "differential.y[0].monomial[0]: unknown generator 'w'"),
    ],
)
def test_presentation_term_error_messages(y_terms, message):
    with pytest.raises(SchemaError) as exc:
        parse_presentation(json.dumps(_s2_doc(y_terms)))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "monomial,message",
    [
        ([["y", 2]], "differential.y[0].monomial: monomial repeats an odd generator"),
        ([["y", 10**12]], "differential.y[0].monomial: monomial repeats an odd generator"),
        ([["y", 1], ["x", 3], ["y", 1]], "differential.y[0].monomial: monomial repeats an odd generator"),
        # every pair is checked before the monomial is normalised
        ([["y", 2], ["q", 1]], "differential.y[0].monomial[1]: unknown generator 'q'"),
    ],
)
def test_odd_generator_powers_are_refused_after_the_pair_checks(monomial, message):
    with pytest.raises(SchemaError) as exc:
        parse_presentation(json.dumps(_s2_doc([{"coeff": "1", "monomial": monomial}])))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "edit,message",
    [
        ({"truncation_degree": 1}, "truncation_degree: expected an integer >= 2"),
        ({"formal_dimension": -1}, "formal_dimension: expected an integer >= 0"),
        ({"generators": [{"name": "x", "degree": 0}, {"name": "y", "degree": 3}]}, "generators[0].degree: expected an integer >= 1"),
    ],
)
def test_integer_fields_below_their_minimum_are_refused_by_the_reader(edit, message):
    with pytest.raises(SchemaError) as exc:
        parse_presentation(json.dumps({**_s2_doc([{"coeff": "1", "monomial": [["x", 2]]}]), **edit}))
    assert str(exc.value) == message


def test_integer_fields_at_their_minimum_are_read():
    # truncation degree 2, formal dimension 0, a degree-1 generator (left
    # for validate to flag), and a differential on generator 0
    doc = {
        "name": "edge",
        "truncation_degree": 2,
        "formal_dimension": 0,
        "generators": [{"name": "y", "degree": 3}, {"name": "x", "degree": 2}, {"name": "u", "degree": 1}],
        "differential": {"y": [{"coeff": "1", "monomial": [["x", 2]]}]},
    }
    p = parse_presentation(json.dumps(doc))
    assert (p.truncation_degree, p.formal_dimension, [g.degree for g in p.generators]) == (2, 0, [3, 2, 1])
    assert str(p.d_of(0)) == "x^2"
    assert [(v.kind, v.subject) for v in p.validate()] == [("degree", "y"), ("degree", "u")]


def test_parsed_monomials_equal_the_expanded_word():
    # exponents are summed, not expanded; the sign and the monomial must be
    # what sorting the fully expanded word gives
    alg = FreeGCA([Generator(i, n, d) for i, (n, d) in enumerate(zip("abcde", (2, 3, 5, 4, 3)))])
    rng = random.Random(8)
    for _ in range(3000):
        raw = [[rng.choice("abcde"), rng.randint(1, 3)] for _ in range(rng.randint(0, 6))]
        expected = alg.normalize_word([alg.by_name[n].gid for n, e in raw for _ in range(e)])
        if expected is None:
            with pytest.raises(SchemaError, match="repeats an odd generator"):
                _parse_monomial(alg, raw, "m")
        else:
            assert _parse_monomial(alg, raw, "m") == expected, raw


# ---- the one-pass reader against the naive one ---------------------------

# even a and d, odd b, c and e: out-of-order odd factors carry a sign
READER_ALG = FreeGCA([Generator(i, n, d) for i, (n, d) in enumerate(zip("abcde", (2, 3, 3, 4, 5)))])
LONG_INTEGER = "7" * 5000
RATIONAL_TEXTS = [
    "1", "-1", "2", "-2", "1/2", "-1/2", "0", "-0", " 3 ", "+4", "\t-5\n", "1_000", "-2_5/1_0", "1__0", "_1",
    "1_", "\u0663", "-\u0663/\u096a", "\u0661\u0662", "+\uff17", "\u00b2", "2\u00b3", "1/0", "-3/0", "0/5",
    "6/4", " 1 / 2 ", "1/-2", "1.5", "1e3", "2E1", "", "   ", "x", "--1", "+-1", "+", "-", "3/", "/3",
    "1 000", "0x10", "\u00bd", LONG_INTEGER, "-" + LONG_INTEGER, "1/" + LONG_INTEGER, "9" * 4300,
]
LAURENT_TEXTS = ["t", "-t", "t^-1", "2*t^-1 + 3", "1/2*t^2 - t", "t - t", "3*t^0", "-t^2 + t^2 - 1", "t^", "2t"]
rational_text = st.one_of(
    st.sampled_from(RATIONAL_TEXTS),
    st.integers(-(10**30), 10**30).map(str),
    st.builds("{}/{}".format, st.integers(-50, 50), st.integers(0, 20)),
    st.text(alphabet="0123456789+-/ _\t\u0663\u00b2.eE", max_size=8),
)
factor = st.one_of(
    st.tuples(st.sampled_from("abcde"), st.integers(1, 3)).map(list),
    st.sampled_from([["q", 1], ["a", 0], ["b", -1], ["a", True], ["a"], "a", ["a", 1.0], [1, 1]]),
)
monomial = st.one_of(st.lists(factor, max_size=4), st.sampled_from(["a", {"a": 1}, None]))


@st.composite
def term_lists(draw, texts):
    """Terms over a pool of one to three monomials, so repeats and
    cancellations are common; now and then a malformed term or list."""
    if draw(st.integers(0, 30)) == 0:
        return draw(st.sampled_from([{"coeff": "1", "monomial": []}, "a", None]))
    pool = draw(st.lists(monomial, min_size=1, max_size=3))
    term = st.one_of(
        st.fixed_dictionaries({"coeff": texts, "monomial": st.sampled_from(pool)}),
        st.sampled_from([{"coeff": 1, "monomial": []}, {"coeff": "1"}, {"coeff": "1", "monomial": [], "x": 0}, []]),
    )
    return draw(st.lists(term, max_size=8))


def _read_or_refuse(read, *args):
    """What a reader returns, or the type, message and path it raises."""
    try:
        return read(*args)
    except SchemaError as exc:
        return ("refused", type(exc), str(exc), exc.path)


def _term_shape(x):
    """Terms in dict order, each coefficient with its type, and a Laurent's
    own terms in their order with their types."""
    if isinstance(x, tuple):
        return x
    assert x.algebra is READER_ALG
    return x.kind, [
        (m, type(c), c, [(k, type(v), v) for k, v in c._terms.items()] if isinstance(c, Laurent) else None)
        for m, c in x.terms.items()
    ]


def _x(coeff):
    return {"coeff": coeff, "monomial": [["a", 1]]}


@settings(max_examples=300, deadline=None)
@given(term_lists(st.one_of(rational_text, st.sampled_from(RATIONAL_TEXTS))))
@example([_x("1"), _x("-1"), _x("1")])
@example([_x("1"), {"coeff": "1", "monomial": [["d", 1]]}, _x("-1"), _x("2")])
@example([{"coeff": "1", "monomial": [["c", 1], ["b", 1]]}, {"coeff": "1", "monomial": [["b", 1], ["c", 1]]}])
@example([{"coeff": LONG_INTEGER, "monomial": [["e", 1], ["c", 1], ["a", 2], ["b", 1]]}])
@example([_x("3"), _x("1/0")])
def test_one_pass_reader_agrees_with_the_naive_reader(terms):
    expected = _read_or_refuse(naive_terms_to_element, READER_ALG, terms, "d.y")
    got = _read_or_refuse(terms_to_element, READER_ALG, terms, "d.y")
    assert _term_shape(got) == _term_shape(expected)


@settings(max_examples=150, deadline=None)
@given(term_lists(st.one_of(st.sampled_from(LAURENT_TEXTS), rational_text)))
@example([_x("t"), _x("-t"), _x("t")])
@example([_x("t^-1 + 1"), _x("-1"), _x("-t^-1")])
def test_one_pass_reader_agrees_with_the_naive_reader_on_laurent_terms(terms):
    args = (READER_ALG, terms, "f.y", Laurent.parse, LAURENT)
    got = _read_or_refuse(terms_to_element, *args)
    assert _term_shape(got) == _term_shape(_read_or_refuse(naive_terms_to_element, *args))


@settings(max_examples=400, deadline=None)
@given(st.one_of(rational_text, st.text(max_size=12)))
def test_parse_rational_agrees_with_fraction_of_the_text(text):
    got = _read_or_refuse(parse_rational, text, "p")
    expected = _read_or_refuse(naive_rational, text, "p")
    assert (got, type(got)) == (expected, type(expected))


def test_every_listed_literal_reads_as_fraction_of_the_text():
    for text in RATIONAL_TEXTS:
        got = _read_or_refuse(parse_rational, text, "p")
        expected = _read_or_refuse(naive_rational, text, "p")
        assert (got, type(got)) == (expected, type(expected)), text


# ---- linear time in the number of terms ----------------------------------


def _all_quadrics_document(n=240):
    """d(y) = the sum of every x_i x_j, i <= j, over n degree-2 generators:
    n(n + 1)/2 terms, 28,920 for n = 240."""
    gens = [{"name": f"x{i}", "degree": 2} for i in range(n)] + [{"name": "y", "degree": 3}]
    terms = [{"coeff": "1", "monomial": [[f"x{i}", 1], [f"x{j}", 1]]} for i in range(n) for j in range(i, n)]
    return json.dumps({"name": "quadrics", "generators": gens, "differential": {"y": terms}, "truncation_degree": 4})


def test_reading_a_28920_term_differential_makes_one_element_per_image(monkeypatch):
    # a reader that adds the terms one Element at a time copies the running
    # total per term, which is quadratic; it also makes two Elements per term
    text = _all_quadrics_document()
    created = []
    init, trusted = Element.__init__, Element._trusted.__func__

    def counted_init(self, *args):
        created.append(1)
        init(self, *args)

    def counted_trusted(cls, *args):
        created.append(1)
        return trusted(cls, *args)

    monkeypatch.setattr(Element, "__init__", counted_init)
    monkeypatch.setattr(Element, "_trusted", classmethod(counted_trusted))
    p = parse_presentation(text)
    assert len(p.d_of(240).terms) == 28920
    assert len(created) <= len(p.generators)


def test_reading_a_28920_term_differential_takes_linear_time():
    # about 0.3-0.4 s of CPU on a 2-vCPU x86_64 VM (Python 3.11); the
    # term-by-term reader took 7.5 s
    text = _all_quadrics_document()
    t0 = time.process_time()
    p = parse_presentation(text)
    assert time.process_time() - t0 < 1.2
    assert p.validate() == []
