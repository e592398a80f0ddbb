"""The semantics of the record classes: order, hashing, immutability,
equality, repr and defaults, whatever kind of class carries them."""

from fractions import Fraction

import pytest

from rht.algebra import FreeGCA, Generator
from rht.cohomology import DiagonalizationCertificate
from rht.corpus import entries, load_presentation
from rht.errors import ToolkitError
from rht.families import diagonal_family, evaluate
from rht.growth import CONDITIONAL_NOTE, GeneratorRatio, GrowthReport
from rht.model import BasisClass, Violation
from rht.qlinalg import FeasibilityResult
from rht.weights import ConstraintRow, WeightAssignment, find_weights


def test_generators_order_by_id_name_degree_and_work_as_keys():
    gens = [Generator(1, "b", 2), Generator(0, "z", 5), Generator(1, "a", 3), Generator(1, "a", 2)]
    assert sorted(gens) == [
        Generator(0, "z", 5),
        Generator(1, "a", 2),
        Generator(1, "a", 3),
        Generator(1, "b", 2),
    ]
    assert Generator(0, "x", 2) < Generator(0, "x", 3)
    table = {g: g.degree for g in gens}
    assert table[Generator(1, "a", 3)] == 3
    assert len({Generator(0, "x", 2), Generator(0, "x", 2)}) == 1


def _frozen_records():
    """(record, one of its fields) for every record that refuses assignment."""
    s2 = load_presentation("s2")
    rep = find_weights(s2)
    row = rep.system.rows[0]
    infeasible = find_weights(load_presentation("infeasible-synthetic"))
    family = diagonal_family(s2, rep.assignment)
    return [
        (Generator(0, "x", 2), "degree"),
        (Violation("degree", "x", "odd"), "detail"),
        (BasisClass("x", 2), "name"),
        (FeasibilityResult((1, 2), None), "solution"),
        (row, "source"),
        (rep.system, "rows"),
        (rep.assignment, "weights"),
        (rep, "feasible"),
        (infeasible, "witness_rows"),
        (DiagonalizationCertificate(True, {1: 1}), "reason"),
        (evaluate(family, Fraction(2)), "parameter"),
        (GeneratorRatio("x", 2, 1), "weight"),
        (entries()[0], "key"),
    ]


@pytest.mark.parametrize("field", ["existing", "new"])
def test_frozen_records_refuse_assignment(field):
    for record, name in _frozen_records():
        before = repr(record)
        with pytest.raises(AttributeError):
            setattr(record, name if field == "existing" else "extra", 0)
        assert repr(record) == before


@pytest.mark.parametrize("bad", [0, -1, True, 1.5])
def test_weight_assignments_refuse_non_positive_integers(bad):
    with pytest.raises(ToolkitError, match="must be a positive integer"):
        WeightAssignment({"x": 1, "y": bad})


def test_weight_assignments_compare_by_value_and_are_unhashable():
    w = WeightAssignment({"x": 1, "y": 2})
    assert w == WeightAssignment({"y": 2, "x": 1})
    assert w != WeightAssignment({"x": 1, "y": 3})
    assert w["y"] == 2
    with pytest.raises(TypeError):
        hash(w)


def test_constraint_rows_ignore_their_algebra_in_eq_hash_and_repr():
    a = FreeGCA([Generator(0, "x", 2), Generator(1, "y", 3)])
    b = FreeGCA([Generator(0, "x", 2), Generator(1, "y", 3)])
    row, twin = ConstraintRow("y", ((0, 2),), a), ConstraintRow("y", ((0, 2),), b)
    assert row == twin and hash(row) == hash(twin)
    assert row != ConstraintRow("y", ((0, 1),), a)
    assert repr(row) == "ConstraintRow(source='y', monomial=((0, 2),))"
    assert "algebra" not in repr(row) and "FreeGCA" not in repr(row)
    assert row.label == "d(y): x^2"
    assert row.entries == {0: 2, 1: -1}


def test_violations_print_as_before():
    assert str(Violation("odd-square", "x*x", "vanishes")) == "odd-square(x*x): vanishes"


def test_defaults_are_unchanged():
    assert DiagonalizationCertificate(True, None).reason == ""
    report = GrowthReport("s2", 2, [], Fraction(1), Fraction(1))
    assert report.note == CONDITIONAL_NOTE
