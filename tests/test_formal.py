"""Bigraded model builder: structure, quasi-isomorphism, weight action."""

import importlib

import pytest

from rht.cohomology import cohomology, induced_action, weight_decomposition
from rht.corpus import load_table, table_keys
from rht.errors import DegreeRangeError
from rht.families import diagonal_family
from rht.formal import build_formal_model, verify_formal_result
from rht.scalars import Laurent
from rht.weights import check_weights, find_weights


def betti_of_table(table, max_degree):
    return [len(table.degree_basis(n)) for n in range(max_degree + 1)]


def test_two_sphere_model_structure():
    res = build_formal_model(load_table("h-s2"), 6)
    p = res.model
    names = {g.name: g.degree for g in p.generators}
    # the x class plus one killer for x^2
    assert names == {"x": 2, "z3_0": 3}
    assert res.weights.weights == {"x": 2, "z3_0": 4}
    assert res.stages == {"x": 0, "z3_0": 1}
    assert p.formal_dimension == 2


def test_cp2_model_gains_its_killer_at_high_truncation():
    res = build_formal_model(load_table("h-cp2"), 7)
    p = res.model
    degrees = sorted((g.degree, res.weights[g.name]) for g in p.generators)
    # x2 in degree 2 weight 2, killer of x^3 in degree 5 weight 6
    assert degrees == [(2, 2), (5, 6)]


def test_builder_respects_truncation_cutoff():
    # at truncation 6 the x^3 relation of h-cp2 sits beyond the certified
    # range, so no killer appears
    res = build_formal_model(load_table("h-cp2"), 6)
    assert [g.name for g in res.model.generators] == ["x"]


def test_wedge_model_needs_ghost_killers():
    res = build_formal_model(load_table("h-s2ws4"), 7)
    p = res.model
    betti = cohomology(p).betti_list()
    assert betti == [1, 0, 1, 0, 1, 0, 0]


def test_every_builder_output_passes_verification():
    trunc = {"h-s2": 6, "h-cp2": 7, "h-cp3": 9, "h-s2ws4": 7}
    for key in table_keys():
        res = build_formal_model(load_table(key), trunc[key])
        assert verify_formal_result(res) == [], key


def test_builder_weights_are_valid_for_the_model():
    for key in table_keys():
        res = build_formal_model(load_table(key), 7)
        assert check_weights(res.model, res.weights) == [], key


def test_weight_equals_degree_plus_stage():
    for key in table_keys():
        res = build_formal_model(load_table(key), 8)
        for g in res.model.generators:
            assert res.weights.weights[g.name] == g.degree + res.stages[g.name], key


def test_betti_of_built_model_matches_table():
    trunc = {"h-s2": 6, "h-cp2": 7, "h-cp3": 9, "h-s2ws4": 7}
    for key in table_keys():
        table = load_table(key)
        res = build_formal_model(table, trunc[key])
        p = res.model
        got = cohomology(p).betti_list()
        want = betti_of_table(table, p.truncation_degree - 1)
        assert got == want, key


def test_diagonal_family_of_built_model_acts_by_t_to_the_degree():
    trunc = {"h-s2": 6, "h-cp2": 7, "h-cp3": 9, "h-s2ws4": 7}
    for key in table_keys():
        res = build_formal_model(load_table(key), trunc[key])
        p = res.model
        fam = diagonal_family(p, res.weights)
        for n in range(p.truncation_degree):
            act = induced_action(p, fam, n)
            dim = len(act.basis)
            for i in range(dim):
                for j in range(dim):
                    want = Laurent.t(n) if i == j else Laurent.zero()
                    assert act.matrix[i][j] == want, (key, n)


def test_quasi_iso_sends_stage_zero_generators_to_table_classes():
    res = build_formal_model(load_table("h-cp3"), 9)
    for g in res.model.generators:
        img = res.quasi_iso[g.name]
        if res.stages[g.name] == 0:
            assert img, g.name
        else:
            assert img == {}, g.name


def test_builder_rejects_tiny_truncation():
    with pytest.raises(DegreeRangeError):
        build_formal_model(load_table("h-s2"), 1)
    with pytest.raises(DegreeRangeError):
        # table reaches degree 4 but truncation 4 certifies only up to 3
        build_formal_model(load_table("h-cp2"), 4)


def test_solver_weights_on_built_model_are_scaled_degrees():
    # the built model is weight-homogeneous with weight = degree + stage;
    # the solver may normalize differently but must stay feasible
    res = build_formal_model(load_table("h-s2"), 6)
    rep = find_weights(res.model)
    assert rep.feasible


def test_weight_decomposition_of_built_model_is_single_stratum():
    res = build_formal_model(load_table("h-cp2"), 7)
    p = res.model
    wd = weight_decomposition(p, res.weights, p.truncation_degree - 1)
    for n, by_w in wd.dimensions.items():
        for w, dim in by_w.items():
            if dim:
                assert w == n, (n, w)


def test_builder_and_verifier_build_no_quotient_transform(monkeypatch):
    # the builder reads per-degree weight strata and the verifier counts
    # Betti numbers from ranks; neither needs a class-coordinate transform
    def refuse(*args, **kwargs):
        raise AssertionError("called")

    # the package re-exports a function named cohomology over the submodule
    module = importlib.import_module("rht.cohomology")
    monkeypatch.setattr(module, "quotient_transform", refuse)
    monkeypatch.setattr(module, "weight_decomposition", refuse)
    res = build_formal_model(load_table("h-s2ws4"), 16)
    assert len(res.model.generators) == 43
    assert verify_formal_result(res) == []
