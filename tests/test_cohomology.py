"""Cohomology machinery checked degree by degree against dense elimination.

naive_betti in oracles.py shares no code with the package's complexes;
agreement on every corpus model is the load-bearing check here.
"""

import contextlib
import functools
import gc
import importlib
import random
import types
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import (
    FractionEchelonSpan,
    FractionLaurent,
    apply_d_word,
    brute_force_weights,
    canonical_monomial,
    coboundary_presentation,
    dense,
    dict_diagonalization_certificate,
    dict_mat_mul,
    enumerate_words,
    fraction_diagonalization_certificate,
    fraction_kernel_basis,
    fraction_quotient_transform,
    fraction_rref,
    naive_betti,
    oracle_weight_betti,
    presentation_data,
    random_presentation,
)
from rht.algebra import Element
from rht.cohomology import (
    ActionReport,
    CochainComplex,
    _idempotent_powers,
    checked_formal_dimension,
    cohomology,
    complex_for,
    diagonalization_certificate,
    flexibility_report,
    homology_action,
    induced_action,
    weight_decomposition,
)
from rht.corpus import entries, load_corpus_family, load_presentation, load_table
from rht.errors import (
    AmbientMismatchError,
    DegreeRangeError,
    FamilyError,
    HomogeneityError,
    ToolkitError,
)
from rht.families import OneParameterFamily, diagonal_family, verify_family
from rht.formal import build_formal_model
from rht.model import SullivanPresentation, presentation_from_dict
from rht.qlinalg import EchelonSpan, _echelon, independent_columns, kernel_basis, rank, rref
from rht.scalars import Laurent
from rht.weights import WeightAssignment, find_weights


def test_betti_matches_oracle_on_every_corpus_model():
    for e in entries():
        p = e.load()
        rep = cohomology(p)
        want = [naive_betti(p, n) for n in range(p.truncation_degree)]
        assert rep.betti_list() == want, e.key


def test_betti_matches_frozen_expectations():
    for e in entries():
        assert cohomology(e.load()).betti_list() == e.expected["betti"], e.key


def _oracle_d_matrix(p, n):
    """Dense matrix of d from degree n to n + 1 by the oracle's Leibniz
    expansion of id-sorted words, rows and columns in the package's basis
    order, each word moved to canonical order with its Koszul sign."""
    degrees, d_images = presentation_data(p)
    basis = lambda k: [canonical_monomial(w, degrees) + (w,) for w in enumerate_words(degrees, k)]
    key = lambda m: [((degrees[g], g), e) for g, e in m]
    src = sorted(basis(n), key=lambda b: key(b[1]))
    row_of = {m: i for i, (_, m, _) in enumerate(sorted(basis(n + 1), key=lambda b: key(b[1])))}
    rows = [[Fraction(0)] * len(src) for _ in row_of]
    for j, (sign, _, word) in enumerate(src):
        for out, c in apply_d_word(word, degrees, d_images).items():
            out_sign, m = canonical_monomial(out, degrees)
            rows[row_of[m]][j] += sign * out_sign * c
    return rows


def _assert_d_matrices_match_the_oracle(p):
    cx = complex_for(p)
    for n in range(-1, p.truncation_degree):
        m = cx.d_matrix(n)
        assert (m.rows, m.cols) == (len(cx.basis(n + 1)), len(cx.basis(n))), n
        assert [list(dense(row, m.cols)) for row in m._rows] == _oracle_d_matrix(p, n), n


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(15115)  # d(g3) = -g1*g0 with both odd and g1 first by degree, not by id
def test_d_matrix_matches_the_oracle_leibniz_expansion_on_random_presentations(seed):
    _assert_d_matrices_match_the_oracle(random_presentation(random.Random(seed)))


def test_d_matrix_matches_the_oracle_on_the_formal_model_of_s2_wedge_s4():
    # many odd killers, so most columns carry Koszul signs
    p = build_formal_model(load_table("h-s2ws4"), 14).model
    assert sum(g.degree % 2 for g in p.generators) >= 10
    _assert_d_matrices_match_the_oracle(p)


def test_degrees_beyond_certified_range_error():
    p = load_presentation("s2")
    cx = complex_for(p)
    with pytest.raises(DegreeRangeError):
        cx.betti(p.truncation_degree)
    with pytest.raises(DegreeRangeError):
        cohomology(p, p.truncation_degree)


def test_representatives_are_cocycles_and_independent():
    p = load_presentation("s2xs3")
    cx = complex_for(p)
    for n in range(p.truncation_degree):
        reps = cx.representatives(n)
        assert len(reps) == cx.betti(n)
        for r in reps:
            assert p.d(r).is_zero()


def test_class_coordinates_kill_coboundaries():
    p = load_presentation("s2")
    cx = complex_for(p)
    # x^2 = d(y) is a coboundary, so its class vanishes
    alg = p.algebra
    x2 = alg.gen("x") * alg.gen("x")
    assert cx.class_coordinates(x2, 4) == [Fraction(0)] * cx.betti(4)


def test_class_coordinates_identify_generating_class():
    p = load_presentation("s2")
    cx = complex_for(p)
    coords = cx.class_coordinates(p.algebra.gen("x"), 2)
    assert coords == [Fraction(1)]


def test_class_coordinates_reject_non_cocycle():
    p = load_presentation("s2")
    cx = complex_for(p)
    # d(y) = x^2, so y is not a cocycle
    with pytest.raises(ToolkitError, match="not a certified cocycle"):
        cx.class_coordinates(p.algebra.gen("y"), 3)


def test_class_coordinates_refuse_an_element_of_another_algebra():
    # cp2's x has the same monomial tuple as s2xs3's x; d refuses it
    cx = complex_for(load_presentation("s2xs3"))
    with pytest.raises(AmbientMismatchError):
        cx.class_coordinates(load_presentation("cp2").algebra.gen("x"), 2)


@functools.cache
def _cocycle_cases():
    """Per corpus model and certified degree: the complex, the degree, the
    columns [reps | bound] of its reader, and the oracle's K rows, which
    vanish exactly on the span of those columns."""
    cases = []
    for e in entries():
        cx = complex_for(e.load())
        for n in range(cx.truncation_degree):
            columns = [tuple(x.coefficient(m) for m in cx.basis(n)) for x in cx.representatives(n)]
            columns += [dense(b, len(cx.basis(n))) for b in independent_columns(cx.d_matrix(n - 1))]
            k_rows = fraction_quotient_transform(columns, len(cx.basis(n)))[1]
            cases.append((cx, n, columns, k_rows))
    return cases


def _check_cocycle_refusal(cx, n, k_rows, v):
    """The rows of d_n and the oracle's K rows vanish on v together, and
    class_coordinates accepts v, with rational or Laurent scalars, exactly
    then."""
    d_n = cx.d_matrix(n)
    cocycle = not any(sum(a * b for a, b in zip(dense(row, d_n.cols), v)) for row in d_n._rows)
    assert cocycle == (not any(sum(a * b for a, b in zip(row, v)) for row in k_rows))
    x = Element(cx.algebra, {m: c for m, c in zip(cx.basis(n), v) if c})
    for y in (x, x.times_t(0)):
        if cocycle:
            assert len(cx.class_coordinates(y, n)) == cx.betti(n)
        else:
            with pytest.raises(ToolkitError, match=f"element of degree {n} is not a certified"):
                cx.class_coordinates(y, n)


def test_cocycle_refusal_reads_the_rows_of_d_on_every_corpus_degree():
    for cx, n, columns, k_rows in _cocycle_cases():
        size = len(cx.basis(n))
        units = [[int(i == j) for j in range(size)] for i in range(size)]
        total = [sum(c) for c in zip(*columns)] if columns else [0] * size
        for v in units + [list(c) for c in columns] + [total]:
            _check_cocycle_refusal(cx, n, k_rows, v)
        for u in units:
            _check_cocycle_refusal(cx, n, k_rows, [a + b for a, b in zip(total, u)])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cocycle_refusal_matches_oracle_k_rows_on_drawn_vectors(data):
    cases = [case for case in _cocycle_cases() if case[0].basis(case[1])]
    cx, n, columns, k_rows = data.draw(st.sampled_from(cases))
    size = len(cx.basis(n))
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(columns), max_size=len(columns)))
    v = [sum(c * col[i] for c, col in zip(coeffs, columns)) for i in range(size)]
    if data.draw(st.booleans()):
        noise = data.draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
        v = [a + b for a, b in zip(v, noise)]
    _check_cocycle_refusal(cx, n, k_rows, v)


# ----------------------------------------------------- weight decomposition


def test_weight_dimensions_sum_to_betti_everywhere():
    for e in entries():
        p = e.load()
        rep = find_weights(p)
        if not rep.feasible:
            continue
        wd = weight_decomposition(p, rep.assignment, p.truncation_degree - 1)
        for n in range(p.truncation_degree):
            total = sum(wd.dimensions.get(n, {}).values())
            assert total == cohomology(p).betti_list()[n], (e.key, n)


def _weighted_models():
    """Every corpus model with its solved weights (None when infeasible),
    and the formal model of h-s2ws4 at truncation 16 with its own."""
    for e in entries():
        p = e.load()
        yield p, find_weights(p).assignment
    res = build_formal_model(load_table("h-s2ws4"), 16)
    yield res.model, res.weights


def test_betti_from_ranks_counts_the_quotient_representatives():
    for p, _ in _weighted_models():
        cx = complex_for(p)
        for n in range(p.truncation_degree):
            assert cx.betti(n) == len(cx.quotient_data(n)[0]), (p.name, n)


def test_weight_classes_are_the_weight_decomposition_per_degree():
    for p, w in _weighted_models():
        if w is None:
            continue
        cx = complex_for(p)
        wd = weight_decomposition(p, w)
        for n in range(p.truncation_degree):
            classes = cx.weight_classes(n, w)
            assert classes == wd.representatives[n], (p.name, n)
            for weight, xs in classes.items():
                for x in xs:
                    assert x.is_homogeneous(n) and cx.d(x).is_zero()
                    assert {w.monomial_weight(p, m) for m in x.terms} == {weight}


def _weight_counts(p, w, n):
    return {weight: len(xs) for weight, xs in complex_for(p).weight_classes(n, w).items()}


def test_weight_classes_count_the_per_block_oracle():
    # the oracle eliminates each weight block of d on its own, with dense
    # Fraction rows over its own words: an independent path to the counts
    for p, w in _weighted_models():
        if w is None:
            continue
        for n in range(p.truncation_degree):
            assert _weight_counts(p, w, n) == oracle_weight_betti(p, w, n), (p.name, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_weight_classes_count_the_per_block_oracle_on_random_presentations(seed):
    p = random_presentation(random.Random(seed))
    weights = brute_force_weights(p)
    assume(weights is not None)
    w = WeightAssignment(weights)
    for n in range(p.truncation_degree):
        assert _weight_counts(p, w, n) == oracle_weight_betti(p, w, n), n


def test_weight_classes_refuse_an_assignment_that_breaks_d():
    # d(y) = d(u) = x^2 is not homogeneous for these weights: u alone
    # would look like a weight-3 cocycle, but d(u) = x^2 is not zero
    p = presentation_from_dict({
        "name": "two-killers",
        "generators": [{"name": g, "degree": k} for g, k in (("x", 2), ("y", 3), ("u", 3))],
        "differential": {g: [{"coeff": "1", "monomial": [["x", 2]]}] for g in ("y", "u")},
        "truncation_degree": 8,
    })
    assert p.validate() == []
    w = WeightAssignment({"x": 1, "y": 2, "u": 3})
    with pytest.raises(HomogeneityError, match=r"^representative -y \+ u of degree 3 has weights \[2, 3\]$"):
        complex_for(p).weight_classes(3, w)


def test_weight_decomposition_frozen_for_product_model():
    p = load_presentation("s2xs3")
    w = find_weights(p).assignment
    wd = weight_decomposition(p, w, 7)
    assert wd.dimensions[2] == {1: 1}
    assert wd.dimensions[3] == {1: 1}
    assert wd.dimensions[5] == {2: 1}
    assert wd.dimensions[0] == {0: 1}
    # representative of the degree-5 class is the product monomial x*u
    reps5 = wd.representatives[5][2]
    assert len(reps5) == 1


def test_weight_decomposition_rejects_invalid_assignment():
    p = load_presentation("s2")
    with pytest.raises(HomogeneityError):
        weight_decomposition(p, WeightAssignment({"x": 1, "y": 5}), 4)


# ------------------------------------------------------------ induced action


def test_diagonal_action_is_t_power_per_weight():
    for e in entries():
        p = e.load()
        rep = find_weights(p)
        if not rep.feasible:
            continue
        fam = diagonal_family(p, rep.assignment)
        wd = weight_decomposition(p, rep.assignment, p.truncation_degree - 1)
        for n in range(p.truncation_degree):
            by_w = wd.representatives.get(n, {})
            pairs = [(wt, x) for wt in sorted(by_w) for x in by_w[wt]]
            act = induced_action(p, fam, n, representatives=[x for _, x in pairs])
            dim = len(act.basis)
            for i in range(dim):
                for j in range(dim):
                    want = Laurent.t(pairs[i][0]) if i == j else Laurent.zero()
                    assert act.matrix[i][j] == want, (e.key, n, i, j)


def test_conjugated_family_action_equals_diagonal_action_on_classes():
    # conjugation by a chain automorphism cannot change the induced action
    p = load_presentation("s2xs3")
    diag = diagonal_family(p, find_weights(p).assignment)
    conj = load_corpus_family("s2xs3-conjugated")
    for n in range(p.truncation_degree):
        a = induced_action(p, diag, n)
        b = induced_action(p, conj, n)
        assert a.matrix == b.matrix, n


def test_action_is_functorial_under_composition():
    from rht.families import compose_families

    p = load_presentation("cp2")
    fam = diagonal_family(p, find_weights(p).assignment)
    sq = compose_families(fam, fam)
    # diagonal 1x1 blocks: composition squares the entry
    for n, entry, square in ((2, "t", "t^2"), (4, "t^2", "t^4")):
        m1 = induced_action(p, fam, n).matrix
        m2 = induced_action(p, sq, n).matrix
        assert m1[0][0] == Laurent.parse(entry) and m2[0][0] == Laurent.parse(square)


def test_homology_action_is_transpose():
    p = load_presentation("s2xs3")
    fam = load_corpus_family("s2xs3-conjugated")
    for n in range(p.truncation_degree):
        a = induced_action(p, fam, n)
        b = homology_action(p, fam, n)
        assert b.variance == "homology"
        dim = len(a.basis)
        for i in range(dim):
            for j in range(dim):
                assert b.matrix[i][j] == a.matrix[j][i]


def test_each_default_action_is_computed_once_per_family():
    # induced_action, homology_action and flexibility_report share one
    # default-basis action per degree; recomputing it for each report would
    # apply the family 9 times here (twice per class, once more for the top
    # class).  A custom basis is computed afresh on every call.
    p = load_presentation("s2xs3")
    fam = load_corpus_family("s2xs3-conjugated")
    assert verify_family(fam) == []
    calls = []
    apply = fam.apply
    fam.apply = lambda x: calls.append(x) or apply(x)
    for n in range(p.truncation_degree):
        induced_action(p, fam, n)
        homology_action(p, fam, n)
    flexibility_report(p, fam)
    assert len(calls) == sum(complex_for(p).betti(n) for n in range(p.truncation_degree)) == 4
    reps = complex_for(p).representatives(3)
    for _ in range(2):
        induced_action(p, fam, 3, representatives=reps)
    assert len(calls) == 6
    # each report owns its matrix
    induced_action(p, fam, 3).matrix[0][0] = None
    homology_action(p, fam, 3).matrix[0][0] = None
    assert induced_action(p, fam, 3).matrix == homology_action(p, fam, 3).matrix == [[Laurent.t(1)]]


def test_unverified_family_is_rejected():
    p = load_presentation("s2xs3")
    alg = p.algebra
    images = {
        g.gid: alg.gen(g.name).times_t(1)
        for g in p.generators
    }
    # x,y,u all weight 1 is not a chain map since d(y) = x^2
    fam_images = dict(images)
    from rht.families import OneParameterFamily

    fam = OneParameterFamily(p, fam_images)
    with pytest.raises(FamilyError):
        induced_action(p, fam, 2)


def test_bad_custom_representatives_are_rejected():
    p = load_presentation("s2")
    fam = diagonal_family(p, find_weights(p).assignment)
    alg = p.algebra
    x2 = alg.gen("x") * alg.gen("x")  # a coboundary: projects to zero
    with pytest.raises(ToolkitError):
        induced_action(p, fam, 4, representatives=[x2])


def _s2xs3_diagonal():
    p = load_presentation("s2xs3")
    return p, diagonal_family(p, find_weights(p).assignment)


@pytest.mark.parametrize(
    "pick, fault",
    [
        # d(y) = x^2; the diagonal family scales y by t^2 and u by t
        (lambda y, u: [y], "representative y is not a cocycle"),
        (lambda y, u: [y + u], "representative y . u is not a cocycle"),
        (lambda y, u: [u.times_t(0)], "Laurent element"),
    ],
    ids=["y", "y+u", "laurent-u"],
)
def test_custom_representatives_must_be_rational_cocycles(pick, fault):
    p, fam = _s2xs3_diagonal()
    reps = pick(p.algebra.gen("y"), p.algebra.gen("u"))
    with pytest.raises(ToolkitError, match=fault):
        induced_action(p, fam, 3, representatives=reps)


def test_custom_cocycle_representative_reads_its_action():
    p, fam = _s2xs3_diagonal()
    act = induced_action(p, fam, 3, representatives=[p.algebra.gen("u")])
    assert act.matrix == [[Laurent.t(1)]]


def test_action_refuses_an_image_that_is_not_a_cocycle():
    # u -> t u + t y sends the class of u to an element with d = t x^2;
    # the family is not a chain map, so its verification is stubbed out
    p = load_presentation("s2xs3")
    alg = p.algebra
    images = {g.gid: alg.gen(g.gid).times_t(0) for g in p.generators}
    images[alg.by_name["u"].gid] = (alg.gen("u") + alg.gen("y")).times_t(1)
    fam = OneParameterFamily(p, images)
    fam._verified = []
    image = fam.apply(alg.gen("u").times_t(0))
    assert p.d(image) == (alg.gen("x") * alg.gen("x")).times_t(1)
    for reps in (None, [alg.gen("u")]):
        with pytest.raises(ToolkitError, match="image in degree 3 is not a certified cocycle"):
            induced_action(p, fam, 3, representatives=reps)


def _count_eliminations(monkeypatch) -> Counter:
    """From now on, count the calls of `_echelon`, of `EchelonSpan.add`
    and of the `invert` that builds the custom cohomology readers."""
    qlinalg = importlib.import_module("rht.qlinalg")
    module = importlib.import_module("rht.cohomology")
    counts = Counter()
    for owner, name in (
        (qlinalg, "_echelon"),
        (qlinalg.EchelonSpan, "add"),
        (module, "invert"),
    ):
        def counting(*args, _name=name, _call=getattr(owner, name)):
            counts[_name] += 1
            return _call(*args)

        monkeypatch.setattr(owner, name, counting)
    return counts


def test_default_action_runs_the_same_eliminations(monkeypatch):
    # each d-matrix keeps the one elimination of its rows, which serves
    # its kernel and its independent columns, and each degree's reader
    # adds one elimination: the coboundaries on the free columns of d_n,
    # which picks the representatives too.  The nine d-matrices of s2xs3
    # (degrees -1 to 7) and its eight coboundary spans make 17.
    # Eliminating d_(n-1) and d_n afresh in every degree made 24.  A
    # second pass hits the caches.
    counts = _count_eliminations(monkeypatch)
    p = load_presentation("s2xs3")
    fam = load_corpus_family("s2xs3-conjugated")
    for _ in range(2):
        for n in range(p.truncation_degree):
            induced_action(p, fam, n)
    assert counts["_echelon"] == 17


def test_only_a_custom_reader_calls_invert(monkeypatch):
    # Betti numbers come from ranks, and the default representatives and
    # reader from one elimination; a custom reader inverts the h x h matrix
    # of its representatives' default class coordinates
    module = importlib.import_module("rht.cohomology")
    calls = []

    def recording(m, _call=module.invert):
        rows = [dense(row, m.cols) for row in m._rows]
        calls.append((len(rows), {len(row) for row in rows}, m.cols))
        return _call(m)

    monkeypatch.setattr(module, "invert", recording)
    p = load_presentation("s2xs3")
    assert cohomology(p).betti_list() == [1, 0, 1, 1, 0, 1, 0, 0]
    complex_for(p).class_coordinates(p.algebra.gen("u"), 3)
    assert calls == []
    cx = complex_for(load_presentation("infeasible-synthetic"))
    cx.quotient_for(5, cx.representatives(5)[::-1])
    assert calls == [(2, {2}, 2)]


def test_quotient_basis_builds_only_the_vectors_it_returns(monkeypatch):
    # one kernel vector of d_n and one of the coboundary span per pick: no
    # whole kernel basis of d_n is built to keep a few of its vectors
    qlinalg = importlib.import_module("rht.qlinalg")
    module = importlib.import_module("rht.cohomology")
    counts, calls = Counter(), []
    for owner, name in ((qlinalg.EchelonSpan, "kernel_vector"), (qlinalg, "kernel_basis")):
        def counting(*args, _name=name, _call=getattr(owner, name)):
            counts[_name] += 1
            return _call(*args)

        monkeypatch.setattr(owner, name, counting)

    def recording(d_in, d_out, _call=module.quotient_basis):
        before = Counter(counts)
        reps, t_rows = _call(d_in, d_out)
        calls.append((len(reps), counts - before))
        return reps, t_rows

    monkeypatch.setattr(module, "quotient_basis", recording)
    cohomology(load_presentation("s2xs3"))
    build_formal_model(load_table("h-s2ws4"), 16)
    assert sum(picks for picks, _ in calls) > len(calls) > 0
    for picks, built in calls:
        assert built == Counter(kernel_vector=2 * picks)


def _read(t_rows, x):
    """Each T row, an element keyed by monomial, paired with the element x
    through the monomial basis."""
    return [sum((c * x.coefficient(m) for m, c in row.terms.items()), Fraction(0)) for row in t_rows]


def test_quotient_for_refuses_representatives_of_too_few_classes():
    # b_5 = 2 on infeasible-synthetic
    cx = complex_for(load_presentation("infeasible-synthetic"))
    r0, r1 = cx.representatives(5)
    with pytest.raises(ToolkitError, match="do not project to a basis of the quotient"):
        cx.quotient_for(5, [r0, r0])
    reps, t_rows = cx.quotient_for(5, [r0 + r1, r0 - r1])
    assert reps == [r0 + r1, r0 - r1]
    half = Fraction(1, 2)
    assert _read(t_rows, r0) == [half, half]
    assert _read(t_rows, r1) == [half, -half]


def _off_pick_model():
    """d(z) = 2ab - a^3 bounds in degree 6, where d vanishes, so the default
    reader's T row there is 1 at its pick ab and 2 off it, at a^3."""
    return presentation_from_dict({
        "name": "off-pick",
        "generators": [{"name": g, "degree": k} for g, k in (("a", 2), ("b", 4), ("z", 5))],
        "differential": {"z": [
            {"coeff": "2", "monomial": [["a", 1], ["b", 1]]},
            {"coeff": "-1", "monomial": [["a", 3]]},
        ]},
        "truncation_degree": 7,
    })


def test_every_reader_reads_its_representatives_and_kills_the_coboundaries():
    # T . rep_j = e_j and T . b = 0 for every independent coboundary column
    # b, for the default reader and for custom ones on the default
    # representatives reversed and mixed by a unitriangular matrix; no
    # corpus reader has an entry off its picks, so one more model has, and
    # seeded random presentations add models the corpus does not hold
    off_pick = _off_pick_model()
    assert [str(x) for x in complex_for(off_pick).representatives(6)] == ["a*b"]
    assert [str(row) for row in complex_for(off_pick).quotient_data(6)[1]] == ["a*b + 2*a^3"]
    models = [(e.key, e.load()) for e in entries()] + [("off-pick", off_pick)]
    models += [(f"seed {seed}", random_presentation(random.Random(seed))) for seed in range(20)]
    for key, p in models:
        _assert_readers_read_and_kill(key, p)


def _assert_readers_read_and_kill(key, p):
    """T . rep_j = e_j and T . b = 0 on every independent coboundary column
    b, in every certified degree of p, for the default reader and custom
    ones on its representatives reversed and mixed unitriangularly."""
    cx = complex_for(p)
    for n in range(cx.truncation_degree):
        reps = cx.representatives(n)
        mixed = list(reps)
        for j in range(len(reps)):
            for k in range(j + 1, len(reps)):
                mixed[j] = mixed[j] + reps[k].scale(Fraction(k + 1, j + 2))
        bound = [
            Element(cx.algebra, {cx.basis(n)[i]: x for i, x in b.items()})
            for b in independent_columns(cx.d_matrix(n - 1))
        ]
        readers = [cx.quotient_data(n)] + [cx.quotient_for(n, xs) for xs in (reps[::-1], mixed)]
        for basis, t_rows in readers:
            for j, x in enumerate(basis):
                unit = [int(i == j) for i in range(len(basis))]
                assert _read(t_rows, x) == unit, (key, n)
            for b in bound:
                assert not any(_read(t_rows, b)), (key, n)


COBOUNDARY_DRAWS = [coboundary_presentation(random.Random(seed)) for seed in range(20)]


def test_coboundary_draws_have_coboundaries_and_off_pick_readers():
    # random_presentation gives d_(n-1) positive rank on 2 of seeds 0-19;
    # these draws on 16, and T rows with an entry off their pick
    ranks, off_pick = [], 0
    for p in COBOUNDARY_DRAWS:
        assert p.validate() == [], p.name
        cx = complex_for(p)
        ranks.append(sum(rank(cx.d_matrix(n - 1)) for n in range(p.truncation_degree)))
        off_pick += sum(len(row.terms) > 1 for n in range(p.truncation_degree)
                        for row in cx.quotient_data(n)[1])
    assert (sum(map(bool, ranks)), sum(ranks), off_pick) == (16, 65, 8)


def test_coboundary_draws_readers_read_their_classes_and_kill_coboundaries():
    for seed, p in enumerate(COBOUNDARY_DRAWS):
        _assert_readers_read_and_kill(f"seed {seed}", p)


def test_coboundary_draws_match_the_fraction_oracle():
    # d-matrices by the oracle's Leibniz expansion, their RREF and kernels
    # by dense Fraction elimination, the picks by the greedy complement of
    # the coboundaries, and the Betti numbers by naive_betti
    for p in COBOUNDARY_DRAWS:
        _assert_d_matrices_match_the_oracle(p)
        cx = complex_for(p)
        for n in range(p.truncation_degree):
            m = cx.d_matrix(n)
            rows = [dense(row, m.cols) for row in m._rows]
            reduced, pivots = rref(m)
            reduced_rows = [list(dense(row, m.cols)) for row in reduced._rows]
            assert (reduced_rows, list(pivots)) == fraction_rref(rows, m.cols), (p.name, n)
            assert [dense(v, m.cols) for v in kernel_basis(m)] == fraction_kernel_basis(rows, m.cols), (p.name, n)
            span = FractionEchelonSpan(m.cols)
            for b in independent_columns(cx.d_matrix(n - 1)):
                assert span.add(dense(b, m.cols)), (p.name, n)
            picked = [v for v in fraction_kernel_basis(rows, m.cols) if span.add(v)]
            reps = [[x.coefficient(mono) for mono in cx.basis(n)] for x in cx.representatives(n)]
            assert reps == [list(v) for v in picked], (p.name, n)
            assert cx.betti(n) == naive_betti(p, n), (p.name, n)


def test_weight_split_after_cohomology_eliminates_nothing(monkeypatch):
    # weight_classes groups the cached default representatives, so it
    # neither eliminates a weight block nor re-ranks a d-matrix; cohomology()
    # reads only ranks, so the representatives are picked here first
    models = [(p, w) for p, w in _weighted_models() if w is not None]
    for p, _ in models:
        cohomology(p)
        for n in range(p.truncation_degree):
            complex_for(p).representatives(n)
    counts = _count_eliminations(monkeypatch)
    for p, w in models:
        weight_decomposition(p, w)
    assert counts["_echelon"] == counts["add"] == 0


def test_cohomology_picks_no_representatives(monkeypatch):
    # Betti numbers come from ranks; picking each degree's representatives
    # costs a quotient elimination that cohomology() does not need
    def refuse(self, n):
        raise AssertionError(f"representatives of degree {n} picked")

    monkeypatch.setattr(CochainComplex, "representatives", refuse)
    monkeypatch.setattr(CochainComplex, "quotient_data", refuse)
    p = load_presentation("s2xs3")
    assert cohomology(p).betti_list() == [1, 0, 1, 1, 0, 1, 0, 0]


def test_cached_d_matrix_spans_are_never_extended():
    p = load_presentation("s2xs3")
    fam = load_corpus_family("s2xs3-conjugated")
    cohomology(p)
    cx = complex_for(p)
    for n in range(p.truncation_degree):
        induced_action(p, fam, n)
        homology_action(p, fam, n)
        induced_action(p, fam, n, representatives=cx.representatives(n)[::-1])
    for n in range(-1, p.truncation_degree):
        m = cx.d_matrix(n)
        span, fresh = m.echelon(), _echelon(m._rows, m.cols)
        assert (span.integer_rows, span.pivots) == (fresh.integer_rows, fresh.pivots), n


# ------------------------------------------------- diagonalization evidence


def test_certificate_on_diagonal_action():
    p = load_presentation("s2xs3")
    fam = diagonal_family(p, find_weights(p).assignment)
    act = induced_action(p, fam, 5)
    cert = diagonalization_certificate(act)
    assert cert.diagonalizable
    assert cert.eigenvalue_powers == {2: 1}


def test_certificate_on_conjugation_invariant_action():
    p = load_presentation("s2xs3")
    conj = load_corpus_family("s2xs3-conjugated")
    act = induced_action(p, conj, 3)
    cert = diagonalization_certificate(act)
    assert cert.diagonalizable
    assert cert.eigenvalue_powers == {1: 1}


def _action(rows: list[list[str]]) -> ActionReport:
    return ActionReport(
        presentation_name="by-hand",
        degree=0,
        variance="cohomology",
        basis=[],
        matrix=[[Laurent.parse(c) for c in row] for row in rows],
    )


@pytest.mark.parametrize(
    "rows, reason",
    [
        ([["-t"]], "trace coefficient -1 at t^1 is not a positive integer"),
        ([["1/2*t"]], "trace coefficient 1/2 at t^1 is not a positive integer"),
        ([["t", "0"], ["0", "0"]], "trace accounts for 1 of 2 eigenvalues"),
        (
            [["t", "1"], ["0", "t"]],
            "matrix is not annihilated by its candidate eigenvalues",
        ),
    ],
)
def test_certificate_refusal_reasons(rows, reason):
    cert = diagonalization_certificate(_action(rows))
    assert not cert.diagonalizable
    assert cert.eigenvalue_powers is None
    assert cert.reason == reason


def test_certificate_on_empty_matrix():
    cert = diagonalization_certificate(_action([]))
    assert cert.diagonalizable
    assert cert.eigenvalue_powers == {}
    assert cert.to_json_dict() == {"diagonalizable": True, "eigenvalue_powers": {}}


def test_certificate_decides_from_trace_and_annihilator():
    # see the diagonalization_certificate docstring for why the
    # characteristic polynomial then always matches
    p = load_presentation("s2xs3")
    for fam in (
        diagonal_family(p, find_weights(p).assignment),
        load_corpus_family("s2xs3-conjugated"),
    ):
        for n in range(p.truncation_degree):
            act = induced_action(p, fam, n)
            cert = diagonalization_certificate(act)
            assert cert.diagonalizable, (n, cert.reason)
            assert sum(cert.eigenvalue_powers.values()) == act.dimension()



_T = {1: Fraction(1)}
_ONE = {0: Fraction(1)}
small_laurent_dicts = st.dictionaries(
    st.integers(-2, 2), st.fractions(min_value=-2, max_value=2, max_denominator=2).filter(bool), max_size=2
)


@st.composite
def sparse_certificate_cases(draw):
    """A small matrix of {power: Fraction} dicts: random with one row and
    one column made zero, or U (diag(t^w) + J) U^-1 with U unipotent and
    integral and J zero or one Jordan join, possibly transposed."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        m = [[draw(small_laurent_dicts) for _ in range(n)] for _ in range(n)]
        m[draw(st.integers(0, n - 1))] = [{} for _ in range(n)]
        col = draw(st.integers(0, n - 1))
        for row in m:
            row[col] = {}
        return m
    ws = draw(st.lists(st.integers(-2, 3), min_size=n, max_size=n))
    core = [[{w: Fraction(1)} if i == j else {} for j in range(n)] for i, w in enumerate(ws)]
    if n > 1 and draw(st.booleans()):
        # a Jordan block t^w joined to itself, which no product annihilates
        i = draw(st.integers(0, n - 2))
        core[i + 1][i + 1] = core[i][i]
        core[i][i + 1] = {0: Fraction(draw(st.integers(1, 3)))}
    shears = [[draw(st.integers(-2, 2)) if j > i else 0 for j in range(n)] for i in range(n)]
    nil = [[{0: Fraction(c)} if c else {} for c in row] for row in shears]
    # U = I + N and U^-1 = I - N + N^2 - ..., N being nilpotent
    u = [[dict(_ONE) if i == j else nil[i][j] for j in range(n)] for i in range(n)]
    inverse = [[{0: Fraction(int(i == j))} for j in range(n)] for i in range(n)]
    power = nil
    for k in range(1, n):
        for i in range(n):
            for j in range(n):
                for p, c in power[i][j].items():
                    inverse[i][j][p] = inverse[i][j].get(p, 0) + (-1) ** k * c
        power = dict_mat_mul(power, nil)
    inverse = [[{p: c for p, c in x.items() if c} for x in row] for row in inverse]
    m = dict_mat_mul(dict_mat_mul(u, core), inverse)
    if draw(st.booleans()):
        m = [list(col) for col in zip(*m)]
    return m


@settings(max_examples=80, deadline=None)
@given(sparse_certificate_cases())
@example([[_T, _ONE], [{}, _T]])
@example([[_T, _ONE], [{}, _ONE]])
def test_certificate_matches_the_dense_dict_reference(rows):
    # the certificate's product skips zero entries; the reference
    # multiplies every pair of entries as plain dicts
    cert = diagonalization_certificate(
        ActionReport("oracle", 0, "cohomology", [], [[Laurent(x) for x in row] for row in rows])
    )
    want = dict_diagonalization_certificate(rows)
    assert (cert.diagonalizable, cert.eigenvalue_powers, cert.reason) == want


def test_jordan_block_and_distinct_eigenvalues_by_the_dense_reference():
    jordan, split = [[_T, _ONE], [{}, _T]], [[_T, _ONE], [{}, _ONE]]
    assert dict_diagonalization_certificate(jordan) == (
        False, None, "matrix is not annihilated by its candidate eigenvalues"
    )
    assert dict_diagonalization_certificate(split) == (True, {0: 1, 1: 1}, "")


def _counting_mat_mul(monkeypatch) -> list:
    """From now on, record the size of every Laurent matrix product that
    the certificate's annihilator check makes."""
    module = importlib.import_module("rht.cohomology")
    calls, real = [], module._mat_mul

    def counting(a, b):
        calls.append(len(a))
        return real(a, b)

    monkeypatch.setattr(module, "_mat_mul", counting)
    return calls


def _family_actions_workload(seed: int):
    """The benchmark's family-actions workload on S^2 x (S^3)^4, seeded."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("family_actions_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.FamilyActions(random.Random(seed), False)


def test_verified_family_actions_never_reach_the_annihilator(monkeypatch):
    # a verified family acts by a homomorphism t -> A(t) with A(1) = I, so
    # its coefficient matrices are complementary idempotents (README,
    # "Guarantees and limits") and no certificate multiplies Laurent matrices
    calls = _counting_mat_mul(monkeypatch)
    families = [load_corpus_family(key) for key in ("s2xs3-conjugated", "s2xs3-diagonal")]
    for e in entries():
        p = e.load()
        if (w := find_weights(p).assignment) is not None:
            families.append(diagonal_family(p, w))
    for fam in families:
        p = fam.presentation
        for n in range(p.truncation_degree):
            for act in (induced_action(p, fam, n), homology_action(p, fam, n)):
                cert = diagonalization_certificate(act)
                rows = [[{k: Fraction(c) for k, c in x.items()} for x in row] for row in act.matrix]
                assert (cert.diagonalizable, cert.eigenvalue_powers, cert.reason) == (
                    dict_diagonalization_certificate(rows)
                ), (p.name, n, act.variance)
    tracer = types.SimpleNamespace(span=lambda name: contextlib.nullcontext())
    for seed in (1, 2, 3):
        wl = _family_actions_workload(seed)
        for _, inp in wl.job_list():
            out = wl.run(inp, tracer)
            assert len(out["certs"]) == 2 * wl.truncation
            assert wl.check(inp, out) == []
    assert calls == []


def test_no_empty_row_reaches_the_elimination_loop(monkeypatch):
    # 1,080 of the 2,304 rows of a seed-1 family-actions pass are empty: the
    # d-matrix rows of monomials that no differential reaches
    rows, add = [], EchelonSpan.add
    monkeypatch.setattr(EchelonSpan, "add", lambda self, v: rows.append(len(v)) or add(self, v))
    tracer = types.SimpleNamespace(span=lambda name: contextlib.nullcontext())
    for seed in (1, 2, 3):
        wl = _family_actions_workload(seed)
        for _, inp in wl.job_list():
            assert wl.check(inp, wl.run(inp, tracer)) == []
    assert rows and 0 not in rows


@st.composite
def constant_conjugates(draw):
    """(P diag(t^k) P^-1 as {power: Fraction} dicts, True), P an invertible
    constant rational matrix."""
    n = draw(st.integers(0, 4))
    ks = draw(st.lists(st.integers(-2, 3), min_size=n, max_size=n))
    p = [[draw(st.fractions(-2, 2, max_denominator=2)) for _ in range(n)] for _ in range(n)]
    reduced, pivots = fraction_rref([row + [int(i == j) for j in range(n)] for i, row in enumerate(p)], 2 * n)
    assume(pivots == list(range(n)))
    inverse = [r[n:] for r in reduced]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = {}
            for l, k in enumerate(ks):
                entry[k] = entry.get(k, Fraction(0)) + p[i][l] * inverse[l][j]
            row.append({k: c for k, c in entry.items() if c})
        rows.append(row)
    return rows, True


@settings(max_examples=60, deadline=None)
@given(constant_conjugates())
@example(([[{2: Fraction(1)}, {2: Fraction(1), 3: Fraction(-1)}], [{}, _T]], False))
def test_idempotent_certificate_matches_the_fraction_oracle(case):
    # a constant conjugate of diag(t^k) is a homomorphism with A(1) = I and
    # takes the idempotent check.  The example is P(t) diag(t^2, t) P(t)^-1
    # with P(t) = [[1, t], [0, 1]]: diagonalisable, but its A_3 is
    # [[0, -1], [0, 0]], which squares to 0, so only the annihilator
    # certifies it
    rows, constant = case
    matrix = [[Laurent(x) for x in row] for row in rows]
    cert = diagonalization_certificate(ActionReport("oracle", 0, "cohomology", [], matrix))
    want = fraction_diagonalization_certificate(
        [[FractionLaurent({(k, 0): c for k, c in x.items()}) for x in row] for row in rows]
    )
    assert cert.diagonalizable
    assert (cert.diagonalizable, cert.eigenvalue_powers, cert.reason) == want
    assert list(cert.eigenvalue_powers) == sorted(cert.eigenvalue_powers)
    assert (_idempotent_powers(matrix) is not None) == constant

# ---------------------------------------------------------------- flexibility


def test_flexibility_of_product_model_is_two():
    p = load_presentation("s2xs3")
    fam = diagonal_family(p, find_weights(p).assignment)
    rep = flexibility_report(p, fam)
    assert rep.formal_dimension == 5
    assert rep.top_weight == 2


def test_flexibility_with_degree_weights_reaches_dimension():
    p = load_presentation("s2xs3")
    fam = diagonal_family(p, WeightAssignment({"x": 2, "y": 4, "u": 3}))
    rep = flexibility_report(p, fam)
    assert rep.top_weight == 5 == rep.formal_dimension


def test_flexibility_requires_formal_dimension():
    p = load_presentation("infeasible-synthetic")
    w = WeightAssignment({g.name: 1 for g in p.generators})
    with pytest.raises((DegreeRangeError, FamilyError)):
        fam = diagonal_family(p, w)
        flexibility_report(p, fam)


def test_a_class_just_above_the_declared_formal_dimension_is_refused():
    # s2xs3 has b_2 = b_3 = 1, so D = 2 is contradicted by H^3 itself
    p = load_presentation("s2xs3")
    p = SullivanPresentation(p.name, list(p.generators), p.differential, p.truncation_degree, 2)
    with pytest.raises(ToolkitError, match=r"declares formal dimension 2, but H\^3 has dimension 1"):
        checked_formal_dimension(p)


def test_presentation_is_freed_by_reference_counting_after_cohomology():
    # the cached complex must not point back at its presentation, or every
    # presentation it touches waits for a full garbage-collection pass
    p = load_presentation("s2xs3")
    cohomology(p)
    ref = weakref.ref(p)
    gc.disable()
    try:
        del p
        assert ref() is None
    finally:
        gc.enable()


def test_validated_presentation_leaves_no_garbage_after_cohomology():
    # derivations and basis enumeration must not build self-referencing
    # closures, so everything here is freed by reference counting alone
    gc.collect()
    gc.disable()
    try:
        p = load_presentation("s2xs3")
        assert p.validate() == []
        cohomology(p)
        del p
        assert gc.collect() == 0
    finally:
        gc.enable()
