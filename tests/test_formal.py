"""Bigraded model builder: structure, quasi-isomorphism, weight action."""

import hashlib
import importlib
import json
from collections import Counter

import pytest

from rht.algebra import FreeGCA, Generator, extend_derivation
from rht.cohomology import CochainComplex, cohomology, complex_for, induced_action, weight_decomposition
from rht.corpus import entries, load_presentation, load_table, table_keys
from rht.errors import DegreeRangeError
from rht.families import diagonal_family
from rht.formal import build_formal_model, verify_formal_result
from rht.model import BasisClass, GradedAlgebraTable, SullivanPresentation, serialize_presentation
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


def test_unit_only_table_at_truncation_two_has_no_generators():
    res = build_formal_model(GradedAlgebraTable("point", [BasisClass("1", 0)], "1", {}), 2)
    assert res.model.generators == ()
    assert res.model.formal_dimension is None


def test_a_killer_named_like_a_table_class_takes_the_next_suffix():
    # the killer of a^2 in degree 3 would be z3_0, which the table class holds
    basis = [BasisClass("1", 0), BasisClass("a", 2), BasisClass("z3_0", 3)]
    res = build_formal_model(GradedAlgebraTable("a-z", basis, "1", {}), 5)
    names = [(g.name, g.degree) for g in res.model.generators]
    assert names == [("a", 2), ("z3_0", 3), ("z3_0_1", 3)]
    assert verify_formal_result(res) == []


def test_a_killer_takes_the_least_free_suffix():
    # z3_0 and z3_0_1 are table classes, so the killer of a^2 is z3_0_2
    basis = [BasisClass("1", 0), BasisClass("a", 2), BasisClass("z3_0", 3), BasisClass("z3_0_1", 3)]
    res = build_formal_model(GradedAlgebraTable("a-z-z", basis, "1", {}), 5)
    assert [g.name for g in res.model.generators] == ["a", "z3_0", "z3_0_1", "z3_0_2"]
    assert verify_formal_result(res) == []


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


def test_builder_and_verifier_call_no_invert(monkeypatch):
    # the builder reads per-degree weight strata and the verifier counts
    # Betti numbers from ranks; neither needs a class-coordinate inverse
    def refuse(*args, **kwargs):
        raise AssertionError("called")

    module = importlib.import_module("rht.cohomology")
    monkeypatch.setattr(module, "invert", refuse)
    monkeypatch.setattr(module, "weight_decomposition", refuse)
    res = build_formal_model(load_table("h-s2ws4"), 16)
    assert len(res.model.generators) == 43
    assert verify_formal_result(res) == []


# SHA-256 of the serialized model of h-s2ws4 with its sorted weights and
# stages, frozen before the Leibniz rule on monomials and the degree-pruned
# basis enumeration replaced the suffix recursion and the full search;
# N = 19-21 frozen before the builder kept its partial model as a
# generator list
S2WS4_MODEL_DIGESTS = {
    8: "d7cb76ba52c9a4dd23c255a445bf9fd0f04ebf767fc6a9780011a8d4eb395c2a",
    9: "6491880203a9efdb3bf88174bd24e4ec0187a372c8f641613d8a6f59dc80522e",
    10: "378ea91f852284ce31ebcfc960f71bf9b2ab61c44778596e114f014ba9c9c117",
    11: "129ff4f68a5fed5fb6d006eae98af8bb89eab242715b45a4fe0bc99e6e2f8f28",
    12: "c5ed15fe3a1df2ff0025f06877977447ef7502ea1c528da0c125bbd45789b5fc",
    13: "4d37009cad30b136310264f4d635ab4ade093ff261555b7b5c3f1abf209f14d7",
    14: "9418dee8509a3e376987702a1d564e13f8e320babbe8b08cf12a6f3f7ed38a37",
    15: "fa0fa35fdcaa5d59f0c7222804f852b52eeaebc7b098c3e711a9d3274ba2f8ab",
    16: "e8dc74ffa730c8e1cee151df06f565a43c5d4905cc1537b2852b16ee6b1c9131",
    17: "05d1d180e00c5b283567c6004c385280a2093b6508a2f76854fd8474c3eca518",
    18: "044e90dbe82dfc9295c06a8dd06557dfe387e3e4c581cf0bf44c6edb977ad668",
    19: "e35e6095d4d0a738d2341e4cbd7775b3f3ebb6d291da79705098e0865fc685ab",
    20: "f5c1a5df330308c4573be1320a789b923cdef8b3e002fadd5cd94582aa5ff19a",
    21: "744250e9364eeb80d78c708f614f143a25a0f8496663a82269f5d909ea93060c",
}


@pytest.mark.parametrize("truncation", sorted(S2WS4_MODEL_DIGESTS))
def test_formal_model_of_s2_wedge_s4_is_frozen(truncation):
    res = build_formal_model(load_table("h-s2ws4"), truncation)
    doc = [
        serialize_presentation(res.model),
        sorted(res.weights.weights.items()),
        sorted(res.stages.items()),
    ]
    digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    assert digest == S2WS4_MODEL_DIGESTS[truncation]


def ring_table(p) -> GradedAlgebraTable:
    """The cohomology ring of p through its formal dimension D as a table:
    class h{n}_{i} is the i-th default representative of H^n, a product
    of two representatives is read with `class_coordinates` when its
    degree is at most D, and every product past D is zero."""
    top = p.formal_dimension
    cx = complex_for(p)
    reps = {n: cx.representatives(n) for n in range(top + 1)}
    names = {n: [f"h{n}_{i}" for i in range(len(xs))] for n, xs in reps.items()}
    basis = [BasisClass(name, n) for n in sorted(names) for name in names[n]]
    products = {}
    for a in range(2, top + 1):
        for b in range(2, top + 1 - a):
            for na, x in zip(names[a], reps[a]):
                for nb, y in zip(names[b], reps[b]):
                    coords = cx.class_coordinates(x * y, a + b)
                    products[(na, nb)] = {c: v for c, v in zip(names[a + b], coords) if v}
    return GradedAlgebraTable(f"ring-{p.name}", basis, names[0][0], products)


# SHA-256 of the sorted `to_json_dict()` of each ring table's formal model
# at the presentation's truncation, frozen before the builder read each
# degree's cohomology once
RING_MODEL_DIGESTS = {
    "cp2": "c2b12f157429c768e5ead8a7ee3c14f09ed6074144db80f8ed7ba9df26aa8463",
    "cp3": "60eda7f91288bc2e7c6c1ac3956012d2e603bdce29ecb25e4896a12e26409dd4",
    "cp4": "164d0bbf36309f2abd3ee268d1e58d119877fac0b7cb2c4bc01f43da4917c6c2",
    "s2": "fd4cf67ff385265c1e996470ecb2b36b43e25c119ad05b6726eb548e133529e1",
    "s2-wedge-s4": "6b5bafbcf464c2c9435d00bc66370e4cb755d57b9a62492190c4f0deb497bcb7",
    "s2xs3": "ee383654fa435e3ed967f81a4d4317d6c73e69c25c13c5cd959e5736e831cc01",
    "s3": "db3347cf82e6d2b27510605378576eee5b86e702684a511b2c78565c97a8c1aa",
    "s4": "2abe540ee0ce811bcc708c40e9cec18a2980310d1e443a76d5bfae935e8467bb",
    "s5": "317581fb41c248ce0f680004f38f7c59f430ea95e904d6a8b3ce07ac42689015",
    "s6": "a22548b975909626db1880f00b20572ed4c6b1dde3cc23c8ee4cf6c540ce4965",
    "s7": "423705116ef79b697aa44871022199700a9eab76f2bed2695ea3582aa30f60fb",
}


def test_ring_round_trip_covers_every_valid_model_with_a_formal_dimension():
    models = {e.key: e.load() for e in entries()}
    keys = [key for key, p in models.items() if p.formal_dimension is not None and not p.validate()]
    assert sorted(keys) == sorted(RING_MODEL_DIGESTS)


@pytest.mark.parametrize("key", sorted(RING_MODEL_DIGESTS))
def test_formal_model_of_a_ring_table_round_trips(key):
    # the formal model of a formal model's own ring has its generator
    # degrees through N - 2, where the ring decides them
    p = load_presentation(key)
    n = p.truncation_degree
    res = build_formal_model(ring_table(p), n)
    assert verify_formal_result(res) == []

    def degrees(gens):
        return Counter(g.degree for g in gens if g.degree <= n - 2)

    assert degrees(res.model.generators) == degrees(p.generators)
    digest = hashlib.sha256(json.dumps(res.to_json_dict(), sort_keys=True).encode()).hexdigest()
    assert digest == RING_MODEL_DIGESTS[key]


@pytest.mark.parametrize("key,truncation", [("h-s2ws4", 15), ("h-cp3", 10)])
def test_builder_reads_each_degree_once(monkeypatch, key, truncation):
    read = []
    weight_classes = CochainComplex.weight_classes

    def logged(self, n, w):
        read.append(n)
        return weight_classes(self, n, w)

    monkeypatch.setattr(CochainComplex, "weight_classes", logged)
    build_formal_model(load_table(key), truncation)
    assert read == list(range(2, truncation))


def test_builder_makes_one_presentation_and_one_algebra_per_step(monkeypatch):
    # the partial model is a generator list with term-dict differentials:
    # each step builds one FreeGCA for its complex, and only the finished
    # model is a presentation (one FreeGCA for its differentials, one its own)
    made = Counter()

    def counting(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            made[cls.__name__] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    counting(SullivanPresentation)
    counting(FreeGCA)
    truncation = 15
    build_formal_model(load_table("h-s2ws4"), truncation)
    assert made["SullivanPresentation"] == 1
    assert made["FreeGCA"] <= len(range(2, truncation)) + 2


def connected_table(name, products) -> GradedAlgebraTable:
    """A Poincare duality algebra with two degree-2 classes a, b and top
    class t in degree 4, given by the products landing on t."""
    basis = [BasisClass("1", 0), BasisClass("a", 2), BasisClass("b", 2), BasisClass("t", 4)]
    return GradedAlgebraTable(name, basis, "1", products)


HAND_TABLES = {
    # S^2 x S^2: a*b = t, a^2 = b^2 = 0
    "s2xs2": {("a", "b"): {"t": 1}},
    # CP^2 # CP^2: a^2 = b^2 = t, a*b = 0; rho of the killer -a^2 + b^2
    # sums two terms on the same class to zero
    "cp2#cp2": {("a", "a"): {"t": 1}, ("b", "b"): {"t": 1}},
}

# SHA-256 of the serialized model with its sorted weights and stages, as
# for h-s2ws4, frozen before the builder kept its partial model as a
# generator list
HAND_TABLE_MODEL_DIGESTS = {
    ("s2xs2", 6): "fb83ec6cd3e589fcd3bfa855a074f7f1498c3c1afecc6f0de0adc8ef329d868d",
    ("s2xs2", 8): "64cfd90b6b65cfd3c6c31e14263bc123c2a2091f4dc64cd8c17f3b6f80e64e2b",
    ("s2xs2", 10): "6fc1ef6bdd569242eb26b7d3ea7c23e8bf2c3b77332e61dbbaa6eaace9dc26a1",
    ("s2xs2", 12): "a30d7d3b915835e7257e60a412cc6152007822068437f0753080f1864c2e0612",
    ("cp2#cp2", 6): "28d578bc7533b274fa599ef8518d417a73909e4a55d00f5a5e458e8632500bc3",
    ("cp2#cp2", 8): "fc50a43c143a0421852aca6eaf05a7986c54de4bbcd23c41bdf487e09a7df465",
    ("cp2#cp2", 10): "7cd8b637827476a98f5750bbb29dc0c9dcd7b1f89280db4a7c16e6df2db2572b",
    ("cp2#cp2", 12): "e9c35010160fe014fb5b6dbeb2e87cfe3be71f13d50c2ea4b88d13e4d530c0d5",
}


@pytest.mark.parametrize("key,truncation", sorted(HAND_TABLE_MODEL_DIGESTS))
def test_formal_model_of_a_connected_sum_or_product_is_frozen(key, truncation):
    table = connected_table(key, HAND_TABLES[key])
    res = build_formal_model(table, truncation)
    assert verify_formal_result(res) == []
    assert cohomology(res.model).betti_list() == betti_of_table(table, truncation - 1)
    doc = [
        serialize_presentation(res.model),
        sorted(res.weights.weights.items()),
        sorted(res.stages.items()),
    ]
    digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    assert digest == HAND_TABLE_MODEL_DIGESTS[(key, truncation)]


def _table(key):
    return connected_table(key, HAND_TABLES[key]) if key in HAND_TABLES else load_table(key)


CARRY_CASES = (
    [("h-s2ws4", n) for n in range(8, 19)]
    + [(key, 12) for key in table_keys()]
    + [(key, 12) for key in sorted(HAND_TABLES)]
)


@pytest.mark.parametrize("key,truncation", CARRY_CASES)
def test_each_step_carries_what_a_fresh_complex_builds(monkeypatch, key, truncation):
    # step n takes d_(n-1), its span and the bases of degrees n - 1 and n
    # from step n - 1; a fresh complex on the same partial model builds
    # and eliminates the same rows, pivots, integer rows and bases
    grown = CochainComplex.grown
    carried = []

    def checked(self, algebra, d, n):
        cx = grown(self, algebra, d, n)
        fresh = CochainComplex(algebra, d, cx.truncation_degree)
        assert (cx._basis[n], cx._basis[n + 1]) == (fresh.basis(n), fresh.basis(n + 1))
        assert cx._dmat[n] == fresh.d_matrix(n)
        span, fresh_span = cx._dmat[n].echelon(), fresh.d_matrix(n).echelon()
        assert (span.ncols, span.pivots, span.integer_rows) == (
            fresh_span.ncols, fresh_span.pivots, fresh_span.integer_rows
        )
        carried.append(n)
        return cx

    monkeypatch.setattr(CochainComplex, "grown", checked)
    build_formal_model(_table(key), truncation)
    assert carried == list(range(2, truncation - 1))


def test_builder_builds_one_d_matrix_and_enumerates_two_bases_per_step(monkeypatch):
    # after the first step each step carries d_(n-1) and its span, so it
    # builds only d_n and enumerates only the bases of degrees n and n + 1;
    # building every step afresh made 26 d-matrices and 39 bases at N = 15
    made = Counter()
    d_matrix, monomial_basis = CochainComplex.d_matrix, FreeGCA.monomial_basis

    def counted_d_matrix(self, n):
        made["d_matrix"] += n not in self._dmat
        return d_matrix(self, n)

    def counted_basis(self, degree):
        made["monomial_basis"] += 1
        return monomial_basis(self, degree)

    monkeypatch.setattr(CochainComplex, "d_matrix", counted_d_matrix)
    monkeypatch.setattr(FreeGCA, "monomial_basis", counted_basis)
    build_formal_model(load_table("h-s2ws4"), 15)
    assert made["d_matrix"] <= 14
    assert made["monomial_basis"] <= 27


def _complex(gens, images=None, truncation=8):
    alg = FreeGCA(gens)
    d = extend_derivation(alg, {gid: f(alg) for gid, f in (images or {}).items()})
    return alg, d, CochainComplex(alg, d, truncation)


def test_grown_refuses_what_it_cannot_carry():
    x, u = Generator(0, "x", 2), Generator(1, "u", 2)
    _, _, old = _complex([x, u])
    # the old generators must come first
    alg, d, _ = _complex([Generator(0, "w", 2), Generator(1, "x", 2), Generator(2, "u", 2)])
    with pytest.raises(AssertionError, match="prefix"):
        old.grown(alg, d, 3)
    # an added generator of degree 2 would make new monomials below degree 4
    alg, d, _ = _complex([x, u, Generator(2, "z", 2)])
    with pytest.raises(AssertionError, match="degree below 4"):
        old.grown(alg, d, 5)
    # an appended generator of degree n must be a cocycle
    y = Generator(2, "y", 3)
    alg, d, _ = _complex([x, u, y], {2: lambda a: a.gen("x") * a.gen("x")})
    with pytest.raises(AssertionError, match="not a cocycle"):
        old.grown(alg, d, 3)
    # the old monomials of degree n + 1 must keep their order
    alg, d, _ = _complex([x, u, y])
    alg.monomial_basis = lambda degree: FreeGCA.monomial_basis(alg, degree)[::-1]
    with pytest.raises(AssertionError, match="sub-order"):
        old.grown(alg, d, 3)
    # and with all of that, d_3 gains the zero column of y
    alg, d, _ = _complex([x, u, y])
    grown = old.grown(alg, d, 3)
    assert grown.basis(3) == [((2, 1),)]
    assert grown.d_matrix(3) == CochainComplex(alg, d, 8).d_matrix(3)
