"""Presentation and table layer: validation, serialization, degree gates."""

import json
import random
from fractions import Fraction

import pytest

from oracles import random_presentation
from rht.algebra import FreeGCA, Generator
from rht.errors import SchemaError
from rht.model import (
    GradedAlgebraTable,
    SullivanPresentation,
    _parse_monomial,
    parse_presentation,
    parse_table,
    serialize_presentation,
)


def two_sphere():
    gens = [Generator(0, "x", 2), Generator(1, "y", 3)]
    alg = FreeGCA(gens)
    _, x2 = alg.normalize_word([0, 0])
    return SullivanPresentation(
        "s2", gens, {1: alg.element({x2: Fraction(1)})}, 6, 2
    )


def test_valid_presentation_has_no_violations():
    assert two_sphere().validate() == []


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

    with pytest.raises(SchemaError):
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
