"""Positive weight detection: solver vs oracle, frozen cases, witnesses."""

import hashlib
import json
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

import rht.qlinalg as qlinalg
from oracles import (
    brute_force_weights,
    fraction_positive_integer_kernel,
    random_presentation,
    weight_rows,
)
from rht.corpus import entries, load_presentation, load_table
from rht.errors import ToolkitError
from rht.formal import build_formal_model
from rht.model import presentation_from_dict, presentation_to_dict
from rht.weights import WeightAssignment, check_weights, extract_constraints, find_weights


def test_two_sphere_weights():
    rep = find_weights(load_presentation("s2"))
    assert rep.feasible
    assert rep.assignment.weights == {"x": 1, "y": 2}


def test_cp3_weights():
    rep = find_weights(load_presentation("cp3"))
    assert rep.feasible
    assert rep.assignment.weights == {"x": 1, "y": 4}


def test_product_model_weights():
    rep = find_weights(load_presentation("s2xs3"))
    assert rep.feasible
    assert rep.assignment.weights == {"x": 1, "y": 2, "u": 1}


def test_closed_generators_default_to_weight_one():
    rep = find_weights(load_presentation("s3"))
    assert rep.assignment.weights == {"x": 1}


def test_every_formal_corpus_entry_is_feasible():
    for e in entries():
        rep = find_weights(e.load())
        assert rep.feasible == e.expected["feasible"], e.key
        if rep.feasible:
            assert dict(sorted(rep.assignment.weights.items())) == e.expected["weights"]


# SHA-256 of the `to_json_dict()` of `find_weights` on every corpus
# presentation, keyed by manifest key, then on the h-s2ws4 formal models at
# N = 8-21, keyed by N; frozen while every kernel came from eliminating
# every constraint row
WEIGHT_REPORTS_DIGEST = "ef89c57bf6ebdbdc03f8ee9ed7d73f0675b0c317dfab241f3db4e13a911dcae9"


def test_weight_reports_are_frozen():
    docs = [[e.key, find_weights(e.load()).to_json_dict()] for e in entries()]
    for n in range(8, 22):
        model = build_formal_model(load_table("h-s2ws4"), n).model
        docs.append([n, find_weights(model).to_json_dict()])
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    assert digest == WEIGHT_REPORTS_DIGEST


# the weight solver's two doors into a component or a trial: the point, and
# the decision that builds none
DOORS = {"point": "_positive_kernel_point", "decision": "_has_positive_kernel_point"}


def _count_doors(monkeypatch, record):
    """Patch both doors so that each call runs `record(door, m, call)`,
    which calls `call(m)` and returns its answer."""
    for door, name in DOORS.items():
        call = getattr(qlinalg, name)
        monkeypatch.setattr(qlinalg, name, lambda m, door=door, call=call: record(door, m, call))


def test_solves_add_no_more_full_width_rows_than_the_kernel_dimension(monkeypatch):
    # eliminating every row of the N=18 model's 280 x 79 matrix added 280
    add = qlinalg.EchelonSpan.add
    widths, solves = [], []

    def counted_add(self, v):
        # the span's width: a sparse row has no length of its own
        widths.append(self.ncols)
        return add(self, v)

    def counted_solve(door, m, call):
        widths.clear()
        answer = call(m)
        solves.append((door, m, widths.count(m.cols)))
        return answer

    monkeypatch.setattr(qlinalg.EchelonSpan, "add", counted_add)
    _count_doors(monkeypatch, counted_solve)
    for e in entries():
        find_weights(e.load())
    rep = find_weights(build_formal_model(load_table("h-s2ws4"), 18).model)
    monkeypatch.undo()
    assert (len(rep.system.rows), len(rep.system.generator_names)) == (280, 79)
    assert max(m.rows for _, m, _ in solves) == 280
    # the corpus's infeasible entry sends its deletion trials to the decision
    assert {door for door, _, _ in solves} == set(DOORS)
    for door, m, adds in solves:
        assert adds <= len(qlinalg.kernel_basis(m)), (door, m.rows, m.cols, adds)


def test_synthetic_entry_is_infeasible_with_frozen_witness():
    p = load_presentation("infeasible-synthetic")
    rep = find_weights(p)
    assert not rep.feasible
    assert [r.label for r in rep.witness_rows] == [
        "d(q): a^3",
        "d(z): a^2*p",
        "d(z): a^2*u",
        "d(w): a*p*u",
        "d(w): a^4",
        "d(w): p*q",
    ]


def test_witness_is_minimal():
    # dropping any single witness row restores feasibility
    from rht.qlinalg import QMatrix, positive_integer_kernel

    p = load_presentation("infeasible-synthetic")
    rep = find_weights(p)
    witness = list(rep.witness_rows)

    def feasible_without(skip):
        keep = [r for r in witness if r is not skip]
        m = QMatrix.from_rows([list(r.coefficients) for r in keep])
        return positive_integer_kernel(m).feasible

    assert all(feasible_without(r) for r in witness)


def test_constraint_rows_annihilate_any_valid_assignment():
    p = load_presentation("s2-wedge-s4")
    system = extract_constraints(p)
    rep = find_weights(p)
    w = rep.assignment
    order = [g.name for g in p.generators]
    vec = [w[name] for name in order]
    for row in system.rows:
        assert sum(c * v for c, v in zip(row.coefficients, vec)) == 0


def test_check_weights_accepts_scaled_solution():
    p = load_presentation("s2")
    assert check_weights(p, WeightAssignment({"x": 3, "y": 6})) == []


def test_check_weights_rejects_inhomogeneous():
    p = load_presentation("s2")
    bad = check_weights(p, WeightAssignment({"x": 1, "y": 3}))
    assert bad
    assert "d(y)" in str(bad[0])


def test_check_weights_requires_every_generator():
    p = load_presentation("s2")
    bad = check_weights(p, WeightAssignment({"x": 1}))
    assert bad


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9), st.lists(st.integers(1, 4), min_size=5, max_size=5))
def test_check_weights_flags_exactly_the_rows_the_assignment_breaks(seed, values):
    p = random_presentation(random.Random(seed))
    w = {g.name: values[g.gid] for g in p.generators}
    broken = [
        row for row in weight_rows(p)
        if sum(c * w[p.generators[h].name] for h, c in row.items())
    ]
    assert len(check_weights(p, WeightAssignment(w))) == len(broken)


def test_weight_assignment_rejects_nonpositive():
    with pytest.raises(ToolkitError):
        WeightAssignment({"x": 0})
    with pytest.raises(ToolkitError):
        WeightAssignment({"x": -2})


def test_solver_agrees_with_box_oracle_on_random_presentations():
    rng = random.Random(424242)
    for _ in range(60):
        p = random_presentation(rng)
        rep = find_weights(p)
        found = brute_force_weights(p, box=12)
        if rep.feasible:
            assert check_weights(p, rep.assignment) == []
            if max(rep.assignment.weights.values()) <= 12:
                assert found is not None
        else:
            assert found is None


@pytest.mark.parametrize("value", [True, 0, -1, 1.0, "1"])
def test_weight_assignment_rejects_non_positive_integers(value):
    with pytest.raises(ToolkitError, match="^weight of 'x' must be a positive integer$"):
        WeightAssignment({"x": value, "y": 2})


# ------------------------------------------- witness search on joined systems


def _join(blocks):
    """The disjoint union of (presentation, prefix) blocks, in their order,
    each generator renamed with its block's prefix."""
    gens, diff = [], {}
    for p, prefix in blocks:
        doc = presentation_to_dict(p)
        gens += [{**g, "name": prefix + g["name"]} for g in doc["generators"]]
        for src, terms in doc["differential"].items():
            diff[prefix + src] = [
                {**t, "monomial": [[prefix + g, e] for g, e in t["monomial"]]} for t in terms
            ]
    return presentation_from_dict({
        "name": "join",
        "generators": gens,
        "differential": diff,
        "truncation_degree": max(p.truncation_degree for p, _ in blocks),
    })


def _feasible(rows, ncols):
    return fraction_positive_integer_kernel(rows, ncols)[0] is not None


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_join_witness_is_the_oracle_witness_inside_the_infeasible_block(seed, synthetic_first):
    other = random_presentation(random.Random(seed), max_generators=12)
    own = find_weights(other)
    assume(own.feasible and own.system.rows)
    blocks = [(load_presentation("infeasible-synthetic"), "i_"), (other, "r_")]
    rep = find_weights(_join(blocks if synthetic_first else blocks[::-1]))
    assert not rep.feasible
    rows = [list(r.coefficients) for r in rep.system.rows]
    ncols = len(rep.system.generator_names)
    solution, witness = fraction_positive_integer_kernel(rows, ncols)
    assert solution is None
    assert [r.label for r in rep.witness_rows] == [rep.system.rows[i].label for i in witness]
    assert all(r.source.startswith("i_") for r in rep.witness_rows)
    kept = [list(r.coefficients) for r in rep.witness_rows]
    assert not _feasible(kept, ncols)
    for k in range(len(kept)):
        assert _feasible(kept[:k] + kept[k + 1:], ncols)


@pytest.mark.parametrize("synthetic_first", [True, False])
def test_witness_search_solves_components_not_the_whole_matrix_per_row(
    monkeypatch, synthetic_first
):
    # 8 synthetic rows and 24 rows of the N=12 formal model, in two
    # components; deleting rows from the whole matrix took 33 solves
    formal = build_formal_model(load_table("h-s2ws4"), 12).model
    blocks = [(load_presentation("infeasible-synthetic"), "i_"), (formal, "f_")]
    p = _join(blocks if synthetic_first else blocks[::-1])
    calls = []

    def counted(door, m, call):
        calls.append((door, m.rows, m.cols))
        return call(m)

    _count_doors(monkeypatch, counted)
    rep = find_weights(p)
    assert len(rep.system.rows) == 32
    assert [r.label for r in rep.witness_rows] == [
        "d(i_q): i_a^3",
        "d(i_z): i_a^2*i_p",
        "d(i_z): i_a^2*i_u",
        "d(i_w): i_a*i_p*i_u",
        "d(i_w): i_a^4",
        "d(i_w): i_p*i_q",
    ]
    # one solve per component, then one trial per synthetic row; the smaller
    # synthetic component comes first and has no point, so the formal
    # component and every trial are only decided
    assert len(calls) == 10, calls
    assert Counter(door for door, _, _ in calls) == {"point": 1, "decision": 9}, calls
    assert calls[0][0] == "point" and calls[0][1] < calls[1][1], calls
    # each component is solved on its own columns, never the whole matrix,
    # so which block comes first changes no solve
    names, rows = rep.system.generator_names, rep.system.rows
    touched = [g for j, g in enumerate(names) if any(r.coefficients[j] for r in rows)]
    wider = max(sum(g.startswith(prefix) for g in touched) for _, prefix in blocks)
    assert all(cols <= wider for _, _, cols in calls), calls
    shapes = Counter(calls)
    calls.clear()
    find_weights(_join(blocks[::-1] if synthetic_first else blocks))
    assert Counter(calls) == shapes


@pytest.mark.parametrize("synthetic_first", [True, False])
def test_witness_search_back_substitutes_no_point(monkeypatch, synthetic_first):
    # building the formal block's point and a point for each of the six
    # feasible trials, only to test each for None, took 7 back-substitutions
    formal = build_formal_model(load_table("h-s2ws4"), 12).model
    blocks = [(load_presentation("infeasible-synthetic"), "i_"), (formal, "f_")]
    fourier_motzkin, points = qlinalg._fourier_motzkin, []

    def counted(rows, nvars):
        values = fourier_motzkin(rows, nvars)
        if values is not None:
            points.append(values)
        return values

    monkeypatch.setattr(qlinalg, "_fourier_motzkin", counted)
    rep = find_weights(_join(blocks if synthetic_first else blocks[::-1]))
    assert len(rep.witness_rows) == 6
    assert points == []
