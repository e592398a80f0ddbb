"""Shipped corpus: every recorded expectation is reproduced by the pipeline,
and every file survives a byte-identical round trip."""

from fractions import Fraction

import pytest

from rht.corpus import (
    _read_text,
    entries,
    family_keys,
    load_corpus_automorphism,
    load_corpus_family,
    load_manifest,
    load_presentation,
    load_table,
    table_keys,
)
from rht.cohomology import cohomology
from rht.errors import SchemaError
from rht.families import (
    parse_automorphism,
    parse_family,
    serialize_automorphism,
    serialize_family,
)
from rht.formal import build_formal_model
from rht.growth import dil_exponent, growth_exponent
from rht.model import parse_presentation, parse_table, serialize_presentation, serialize_table
from rht.weights import find_weights

MANIFEST = load_manifest()


@pytest.mark.parametrize("entry", entries(), ids=lambda e: e.key)
def test_feasibility_expectations_reproduce(entry):
    p = entry.load()
    report = find_weights(p)
    expected = entry.expected
    assert report.feasible == expected["feasible"]
    if expected["feasible"]:
        assert report.assignment.weights == expected["weights"]
    else:
        assert report.to_json_dict()["witness_rows"] == expected["witness_rows"]


@pytest.mark.parametrize("entry", entries(), ids=lambda e: e.key)
def test_betti_expectations_reproduce(entry):
    p = entry.load()
    assert cohomology(p).betti_list() == entry.expected["betti"]


@pytest.mark.parametrize("entry", entries(), ids=lambda e: e.key)
def test_exponent_expectations_reproduce(entry):
    expected = entry.expected
    if "growth_exponent" not in expected:
        return
    p = entry.load()
    w = find_weights(p).assignment
    assert growth_exponent(p, w) == Fraction(expected["growth_exponent"])
    assert dil_exponent(p, w) == Fraction(expected["dil_exponent"])


@pytest.mark.parametrize("key", sorted(MANIFEST["presentations"]))
def test_presentation_round_trips_byte_identical(key):
    filename = MANIFEST["presentations"][key]["file"]
    text = _read_text(filename)
    p = parse_presentation(text)
    assert serialize_presentation(p) == text


@pytest.mark.parametrize("key", table_keys())
def test_table_round_trips_byte_identical(key):
    filename = MANIFEST["tables"][key]["file"]
    text = _read_text(filename)
    assert serialize_table(parse_table(text)) == text


@pytest.mark.parametrize("key", sorted(MANIFEST["families"]))
def test_family_file_round_trips_byte_identical(key):
    record = MANIFEST["families"][key]
    text = _read_text(record["file"])
    p = load_presentation(record["presentation"])
    if record["kind"] == "automorphism":
        assert serialize_automorphism(parse_automorphism(p, text)) == text
    else:
        assert serialize_family(parse_family(p, text)) == text


def test_family_loaders_enforce_record_kind():
    assert set(family_keys()) == {"s2xs3-diagonal", "s2xs3-conjugated", "s2xs3-shear"}
    load_corpus_automorphism("s2xs3-shear")
    load_corpus_family("s2xs3-diagonal")
    with pytest.raises(Exception):
        load_corpus_family("s2xs3-shear")
    with pytest.raises(Exception):
        load_corpus_automorphism("s2xs3-diagonal")


@pytest.mark.parametrize("key", table_keys())
def test_builder_truncation_yields_certified_killers(key):
    # the recorded truncation is the one the acceptance run builds at;
    # it must be accepted by the builder and cover the table
    table = load_table(key)
    n = MANIFEST["tables"][key]["builder_truncation"]
    res = build_formal_model(table, n)
    assert res.model.truncation_degree == n
    assert res.table is table


def test_every_corpus_file_is_listed_once():
    import importlib.resources as ir

    listed = {rec["file"] for sec in MANIFEST.values() for rec in sec.values()}
    listed.add("manifest.json")
    present = {
        path.name
        for path in ir.files("rht.corpus").iterdir()
        if path.name.endswith(".json")
    }
    assert listed == present


def test_entry_notes_are_nonempty():
    for entry in entries():
        assert entry.note.strip()
    for sec in ("tables", "families"):
        for rec in MANIFEST[sec].values():
            assert rec["note"].strip()


@pytest.mark.parametrize(
    "load,section,kind",
    [
        (load_presentation, "presentations", "presentation"),
        (load_table, "tables", "table"),
        (load_corpus_family, "families", "family"),
        (load_corpus_automorphism, "families", "automorphism"),
    ],
)
def test_unknown_corpus_key_lists_the_known_keys(load, section, kind):
    with pytest.raises(SchemaError) as exc:
        load("nope")
    known = ", ".join(sorted(MANIFEST[section]))
    assert str(exc.value) == f"nope: unknown {kind} 'nope'; corpus has: {known}"


def test_wrong_kind_corpus_record_names_both_kinds():
    with pytest.raises(SchemaError) as exc:
        load_corpus_family("s2xs3-shear")
    assert str(exc.value) == "s2xs3-shear: 's2xs3-shear' is an automorphism, not a family"
    with pytest.raises(SchemaError) as exc:
        load_corpus_automorphism("s2xs3-diagonal")
    assert str(exc.value) == "s2xs3-diagonal: 's2xs3-diagonal' is a family, not an automorphism"
