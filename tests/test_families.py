"""One-parameter families: laws, conjugation, inversion, serialization."""

import gc
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    brute_force_weights,
    element_words,
    oracle_group_law,
    random_presentation,
    times_laurent,
    word_algebra_map,
)
from rht.corpus import (
    load_corpus_automorphism,
    load_corpus_family,
    load_manifest,
    load_presentation,
)
from rht.algebra import Element, FreeGCA, Generator
from rht.cohomology import induced_action
from rht.errors import FamilyError, SchemaError, SingularMapError
from rht.families import (
    ModelAutomorphism,
    ModelMap,
    OneParameterFamily,
    compose_families,
    conjugate,
    diagonal_family,
    evaluate,
    parse_automorphism,
    parse_family,
    serialize_automorphism,
    serialize_family,
    transport_presentation,
    verify_family,
)
from rht.model import SullivanPresentation, parse_presentation
from rht.qlinalg import rank
from rht.scalars import Laurent
from rht.weights import WeightAssignment, find_weights


@pytest.fixture()
def product_model():
    return load_presentation("s2xs3")


def laurent(text):
    return Laurent.parse(text)


def test_diagonal_family_images(product_model):
    p = product_model
    fam = diagonal_family(p, find_weights(p).assignment)
    by_name = {g.name: fam.images[g.gid] for g in p.generators}
    assert str(by_name["x"]) == "t*x"
    assert str(by_name["y"]) == "t^2*y"
    assert str(by_name["u"]) == "t*u"


def test_diagonal_family_passes_all_three_laws(product_model):
    fam = diagonal_family(product_model, find_weights(product_model).assignment)
    assert verify_family(fam) == []


def test_diagonal_family_requires_valid_weights(product_model):
    with pytest.raises(FamilyError):
        diagonal_family(product_model, WeightAssignment({"x": 1, "y": 5, "u": 1}))


def test_conjugated_family_matches_frozen_formula(product_model):
    p = product_model
    fam = diagonal_family(p, find_weights(p).assignment)
    alg = p.algebra
    shear = ModelAutomorphism(p, {alg.by_name["y"].gid: alg.gen("y") + alg.gen("u")})
    conj = conjugate(fam, shear)

    y = alg.by_name["y"].gid
    u = alg.by_name["u"].gid
    img = conj.images[y]
    # y goes to t^2 y + (t - t^2) u
    _, my = alg.normalize_word([y])
    _, mu = alg.normalize_word([u])
    assert img.by_monomial() == {
        my: laurent("t^2"),
        mu: laurent("t - t^2"),
    }
    assert str(conj.images[u]) == "t*u"
    assert verify_family(conj) == []


def test_conjugated_family_differs_from_diagonal(product_model):
    p = product_model
    diag = diagonal_family(p, find_weights(p).assignment)
    conj = load_corpus_family("s2xs3-conjugated")
    assert diag != conj


def test_corpus_family_files_agree_with_recomputation(product_model):
    p = product_model
    diag = diagonal_family(p, find_weights(p).assignment)
    assert load_corpus_family("s2xs3-diagonal") == diag
    shear = load_corpus_automorphism("s2xs3-shear")
    assert conjugate(diag, shear) == load_corpus_family("s2xs3-conjugated")


def test_family_round_trip_is_byte_identical(product_model):
    conj = load_corpus_family("s2xs3-conjugated")
    text = serialize_family(conj)
    assert serialize_family(parse_family(product_model, text)) == text


def _assignment(p, **changed):
    """Every generator to itself, except the named ones."""
    alg = p.algebra
    return {g.gid: changed.get(g.name, alg.gen(g.gid)) for g in p.generators}


@pytest.mark.parametrize(
    "build",
    [
        ModelMap,
        ModelAutomorphism,
        lambda p, images: OneParameterFamily(
            p, {gid: img.times_t(0) for gid, img in images.items()}
        ),
    ],
    ids=["map", "automorphism", "family"],
)
def test_map_images_are_checked_once_by_the_extension(product_model, build):
    from rht.errors import AmbientMismatchError, HomogeneityError

    p = product_model
    with pytest.raises(HomogeneityError, match="image of x must be homogeneous of degree 2"):
        build(p, _assignment(p, x=p.algebra.gen("y")))
    foreign = FreeGCA([Generator(0, "z", 2)]).gen("z")
    with pytest.raises(AmbientMismatchError, match="image of x lives in a different algebra"):
        build(p, _assignment(p, x=foreign))


def test_map_and_family_keep_their_own_image_checks(product_model):
    p = product_model
    alg = p.algebra
    from rht.errors import AmbientMismatchError

    x_t = alg.gen("x").times_t(1)
    with pytest.raises(AmbientMismatchError, match="image of x lives in a different algebra"):
        ModelMap(p, _assignment(p, x=x_t))
    laurent_images = {
        gid: img.times_t(0) for gid, img in _assignment(p, x=x_t).items()
    }
    partial = dict(laurent_images)
    del partial[alg.by_name["u"].gid]
    with pytest.raises(FamilyError, match="no image for generator u"):
        OneParameterFamily(p, partial)


def test_map_refuses_an_image_on_an_unknown_generator_id(product_model):
    # s2xs3 has generator ids 0, 1 and 2; an image on id 7 used to be
    # dropped, leaving the identity
    p = product_model
    with pytest.raises(FamilyError, match="image on unknown generator id 7"):
        ModelMap(p, {7: p.algebra.gen("x")})


def test_family_refuses_an_image_on_an_unknown_generator_id(product_model):
    p = product_model
    images = {g.gid: p.algebra.gen(g.gid).times_t(0) for g in p.generators}
    with pytest.raises(FamilyError, match="image on unknown generator id -1"):
        OneParameterFamily(p, {**images, -1: images[0]})


def test_non_chain_map_family_fails_verification(product_model):
    p = product_model
    alg = p.algebra
    images = {
        alg.by_name["x"].gid: times_laurent(alg.gen("x"), laurent("t")),
        alg.by_name["y"].gid: times_laurent(alg.gen("y"), laurent("t^3")),
        alg.by_name["u"].gid: times_laurent(alg.gen("u"), laurent("t")),
    }
    fam = OneParameterFamily(p, images)
    kinds = {v.kind for v in verify_family(fam)}
    assert "chain" in kinds


def test_group_law_violation_detected(product_model):
    p = product_model
    alg = p.algebra
    # t -> t + 1 on x breaks lambda_s . lambda_t = lambda_st but keeps t=1
    half = laurent("1/2*t + 1/2")
    images = {
        alg.by_name["x"].gid: times_laurent(alg.gen("x"), half),
        alg.by_name["y"].gid: times_laurent(alg.gen("y"), half * half),
        alg.by_name["u"].gid: times_laurent(alg.gen("u"), half),
    }
    fam = OneParameterFamily(p, images)
    kinds = {v.kind for v in verify_family(fam)}
    assert "group" in kinds


def _group_subjects(fam):
    return [v.subject for v in verify_family(fam) if v.kind == "group"]


def _random_scalar(rng):
    return Laurent({rng.randint(-2, 3): rng.choice([1, -1, 2, Fraction(1, 2)]) for _ in range(2)})


def _perturbed(rng, p, images):
    """The images with a random multiple of one degree-|g| monomial added
    to the image of one random generator g."""
    g = rng.choice(p.generators)
    m = rng.choice(p.algebra.monomial_basis(g.degree))
    extra = times_laurent(p.algebra.element({m: 1}), _random_scalar(rng))
    return {**images, g.gid: images[g.gid] + extra}


def _random_family(rng, p):
    """Diagonal, conjugated by a random invertible algebra map (which keeps
    the group law; the identity when the draw is singular), or random
    images; then perturbed with probability 1/2."""
    alg = p.algebra
    weights = {g.gid: rng.randint(-2, 3) for g in p.generators}
    diagonal = {
        g.gid: alg.gen(g.gid).times_t(weights[g.gid])
        for g in p.generators
    }
    mode = rng.choice(["diagonal", "conjugated", "random"])
    if mode == "diagonal":
        images = diagonal
    elif mode == "conjugated":
        shifts = {}
        for g in p.generators:
            others = [m for m in alg.monomial_basis(g.degree) if m != ((g.gid, 1),)]
            shift = alg.element({rng.choice(others): rng.choice([1, -2])}) if others else alg.zero()
            shifts[g.gid] = alg.gen(g.gid) + shift
        phi = ModelMap(p, shifts)
        try:
            inv = phi.inverse()
        except SingularMapError:
            inv, phi = ModelMap(p, {}), ModelMap(p, {})
        lam = OneParameterFamily(p, diagonal)
        images = {g.gid: inv.apply(lam.apply(phi.images[g.gid])) for g in p.generators}
    else:
        images = {}
        for g in p.generators:
            x = alg.laurent.zero()
            basis = alg.monomial_basis(g.degree)
            for m in rng.sample(basis, min(2, len(basis))):
                x = x + times_laurent(alg.element({m: 1}), _random_scalar(rng))
            images[g.gid] = x
    return _perturbed(rng, p, images) if rng.random() < 0.5 else images


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32))
def test_group_law_matches_two_variable_oracle_on_random_families(seed):
    rng = random.Random(seed)
    p = random_presentation(rng)
    fam = OneParameterFamily(p, _random_family(rng, p))
    assert _group_subjects(fam) == oracle_group_law(p, fam.images)


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2**32))
def test_group_law_matches_two_variable_oracle_on_corpus_families(seed):
    rng = random.Random(seed)
    families = load_manifest()["families"]
    for key in sorted(k for k, rec in families.items() if rec["kind"] == "family"):
        fam = load_corpus_family(key)
        p = fam.presentation
        assert _group_subjects(fam) == oracle_group_law(p, fam.images) == []
        broken = OneParameterFamily(p, _perturbed(rng, p, fam.images))
        assert _group_subjects(broken) == oracle_group_law(p, broken.images)



def _unipotent_automorphism(rng, p):
    """g -> g + c m, with m a random decomposable monomial of g's degree or
    a later generator of that degree: the linear part is the identity plus
    a strictly triangular part, so the map is always invertible."""
    alg = p.algebra
    images = {}
    for g in p.generators:
        basis = alg.monomial_basis(g.degree)
        others = [m for m in basis if alg.word_length(m) >= 2 or m[0][0] > g.gid]
        if others:
            shift = alg.element({rng.choice(others): rng.choice([1, -1, 2, Fraction(1, 2)])})
            images[g.gid] = alg.gen(g.gid) + shift
    return ModelMap(p, images)


def _check_against_word_oracle(rng, p, fam):
    """fam.apply on random rational and t-elements, fam composed with
    itself, and fam conjugated by a random unipotent automorphism, each
    against the word oracle's algebra maps."""
    degrees = {g.gid: g.degree for g in p.generators}

    def oracle(m):
        return word_algebra_map({gid: element_words(img, degrees) for gid, img in m.images.items()}, degrees)

    apply = oracle(fam)
    alg = p.algebra
    monos = [m for n in range(p.truncation_degree) for m in alg.monomial_basis(n)]
    for _ in range(4):
        x = alg.element({m: rng.choice([1, -2, Fraction(1, 3)]) for m in rng.sample(monos, min(3, len(monos)))})
        for y in (x, x.times_t(-1) + x.scale(3).times_t(rng.randint(-1, 2))):
            assert element_words(fam.apply(y), degrees) == apply(element_words(y, degrees))
    composed = compose_families(fam, fam)
    phi = _unipotent_automorphism(rng, p)
    conj = conjugate(fam, phi)
    to_phi, from_phi = oracle(phi), oracle(phi.inverse())
    for g in p.generators:
        words = element_words(fam.images[g.gid], degrees)
        assert element_words(composed.images[g.gid], degrees) == apply(words)
        gen = element_words(alg.gen(g.gid), degrees)
        assert element_words(conj.images[g.gid], degrees) == from_phi(apply(to_phi(gen)))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32))
def test_family_application_composition_and_conjugation_match_the_word_oracle(seed):
    # a diagonal family of brute-forced weights (random weights when there
    # are none), conjugated by a random unipotent automorphism
    rng = random.Random(seed)
    p = random_presentation(rng)
    weights = brute_force_weights(p)
    if weights is None:
        diag = OneParameterFamily(p, {g.gid: p.algebra.gen(g.gid).times_t(rng.randint(-2, 3)) for g in p.generators})
    else:
        diag = diagonal_family(p, WeightAssignment(weights))
    _check_against_word_oracle(rng, p, conjugate(diag, _unipotent_automorphism(rng, p)))


@settings(deadline=None, max_examples=10)
@given(st.integers(0, 2**32))
def test_family_files_with_inverse_powers_match_the_word_oracle(seed):
    # each corpus family at 1/t, written to its JSON text and read back
    rng = random.Random(seed)
    families = load_manifest()["families"]
    for key in sorted(k for k, rec in families.items() if rec["kind"] == "family"):
        fam = load_corpus_family(key)
        p = fam.presentation
        inverted = {
            gid: sum((part.times_t(-k) for k, part in img.t_components().items()), p.algebra.laurent.zero())
            for gid, img in fam.images.items()
        }
        text = serialize_family(OneParameterFamily(p, inverted))
        assert "t^-1" in text
        read = parse_family(p, text)
        assert verify_family(read) == []
        _check_against_word_oracle(rng, p, read)

def test_identity_violation_detected(product_model):
    p = product_model
    alg = p.algebra
    images = {
        alg.by_name["x"].gid: times_laurent(alg.gen("x"), laurent("t^2")),
        alg.by_name["y"].gid: times_laurent(alg.gen("y"), laurent("t^4")),
        alg.by_name["u"].gid: times_laurent(alg.gen("u"), laurent("2*t")),
    }
    fam = OneParameterFamily(p, images)
    kinds = {v.kind for v in verify_family(fam)}
    assert "identity" in kinds


def test_compose_families_multiplies_powers(product_model):
    p = product_model
    fam = diagonal_family(p, find_weights(p).assignment)
    sq = compose_families(fam, fam)
    x = p.algebra.by_name["x"].gid
    assert str(sq.images[x]) == "t^2*x"


def test_evaluate_at_rational_point(product_model):
    p = product_model
    conj = load_corpus_family("s2xs3-conjugated")
    ev = evaluate(conj, Fraction(2))
    assert ev.invertible
    y = p.algebra.by_name["y"].gid
    assert str(ev.map.images[y]) == "4*y - 2*u"


def test_evaluate_at_one_is_identity(product_model):
    p = product_model
    conj = load_corpus_family("s2xs3-conjugated")
    ev = evaluate(conj, Fraction(1))
    assert ev.map.is_identity()


def test_automorphism_inverse_is_two_sided(product_model):
    p = product_model
    alg = p.algebra
    shear = load_corpus_automorphism("s2xs3-shear")
    inv = shear.inverse()
    for g in p.generators:
        assert inv.apply(shear.apply(alg.gen(g.name))) == alg.gen(g.name)
        assert shear.apply(inv.apply(alg.gen(g.name))) == alg.gen(g.name)
    y = alg.by_name["y"].gid
    assert str(inv.images[y]) == "y - u"


def test_singular_linear_part_is_rejected(product_model):
    p = product_model
    alg = p.algebra
    zero_img = alg.zero()
    with pytest.raises((SingularMapError, FamilyError)):
        ModelAutomorphism(p, {alg.by_name["u"].gid: zero_img})


def test_inverse_of_mixing_linear_part(product_model):
    # y -> 2y + u, u -> y + u: L = [[2, 1], [1, 1]], inv(L) = [[1, -1], [-1, 2]]
    alg = product_model.algebra
    y, u = alg.gen("y"), alg.gen("u")
    phi = ModelMap(
        product_model,
        {alg.by_name["y"].gid: y.scale(Fraction(2)) + u, alg.by_name["u"].gid: y + u},
    )
    inv = phi.inverse()
    assert inv.images[alg.by_name["y"].gid] == y - u
    assert inv.images[alg.by_name["u"].gid] == u.scale(Fraction(2)) - y
    assert inv.inverse() is phi


def test_automorphism_and_its_inverse_need_no_cycle_collection():
    gc.collect()
    gc.disable()
    try:
        phi = load_corpus_automorphism("s2xs3-shear")
        del phi
        assert gc.collect() == 0
    finally:
        gc.enable()


def _shear_family_k3():
    """The conjugated diagonal family on S^2 x (S^3)^3 with fixed weights
    and shears: d y = x^2, y -> y - 2 u0 + u1 + 2 u2, u_i -> u_i + c u_j."""
    doc = {
        "name": "s2xs3^3",
        "generators": [{"name": "x", "degree": 2}, {"name": "y", "degree": 3}]
        + [{"name": f"u{i}", "degree": 3} for i in range(3)],
        "differential": {"y": [{"coeff": "1", "monomial": [["x", 2]]}]},
        "truncation_degree": 12,
        "formal_dimension": 11,
    }
    p = parse_presentation(json.dumps(doc))
    alg = p.algebra
    fam = diagonal_family(p, WeightAssignment({"x": 2, "y": 4, "u0": 1, "u1": 3, "u2": 2}))
    u = [alg.gen(f"u{i}") for i in range(3)]
    images = {
        alg.by_name["y"].gid: alg.gen("y") + u[0].scale(-2) + u[1] + u[2].scale(2),
        alg.by_name["u0"].gid: u[0] + u[1].scale(-1) + u[2],
        alg.by_name["u1"].gid: u[1] + u[2].scale(2),
    }
    return p, fam, ModelAutomorphism(p, images)


def test_conjugation_and_every_action_of_s2xs3_cubed_take_few_products(monkeypatch):
    # an algebra map builds each word's image from its longest cached
    # prefix, one product per further factor; starting every image and
    # every power from 1 took 79 products here
    p, fam, phi = _shear_family_k3()
    multiply, calls = Element.__mul__, []

    def counting(x, y):
        calls.append(1)
        return multiply(x, y)

    monkeypatch.setattr(Element, "__mul__", counting)
    conj = conjugate(fam, phi)
    actions = [induced_action(p, conj, n) for n in range(p.truncation_degree)]
    monkeypatch.undo()
    assert [a.dimension() for a in actions] == [1, 0, 1, 3, 0, 3, 3, 0, 3, 1, 0, 1]
    assert len(calls) == 12


def test_singular_linear_part_names_its_degree(product_model):
    alg = product_model.algebra
    y, u = alg.gen("y"), alg.gen("u")
    phi = ModelMap(product_model, {alg.by_name["y"].gid: y + u, alg.by_name["u"].gid: y + u})
    with pytest.raises(SingularMapError, match=r"^linear part in degree 3 is singular$"):
        phi.inverse()


def test_non_chain_automorphism_is_rejected(product_model):
    p = product_model
    alg = p.algebra
    # y -> 2y alone breaks d(phi(y)) = phi(d(y)) since d(y) = x^2
    with pytest.raises(FamilyError):
        ModelAutomorphism(p, {alg.by_name["y"].gid: alg.gen("y").scale(Fraction(2))})


def test_transport_presentation_conjugates_the_differential(product_model):
    p = product_model
    shear = load_corpus_automorphism("s2xs3-shear")
    q = transport_presentation(p, shear)
    assert q.validate() == []
    inv = shear.inverse()
    for g in p.generators:
        want = inv.apply(p.d(shear.images[g.gid]))
        assert q.d_of(g.gid) == want
    # transporting back by the inverse restores the original differential
    back = transport_presentation(q, ModelMap(q, dict(inv.images)))
    for g in p.generators:
        assert back.d_of(g.gid) == p.d_of(g.gid)


def test_conjugation_by_identity_is_a_no_op(product_model):
    p = product_model
    fam = diagonal_family(p, find_weights(p).assignment)
    ident = ModelAutomorphism(p, {})
    assert conjugate(fam, ident) == fam


def test_maps_compare_across_the_automorphism_class_but_never_to_a_family(product_model):
    p = product_model
    alg = p.algebra
    shear = load_corpus_automorphism("s2xs3-shear")
    plain = ModelMap(p, dict(shear.images))
    assert type(shear) is ModelAutomorphism
    assert shear == plain and plain == shear
    assert repr(shear) == repr(plain) == "ModelMap(x -> x, y -> y + u, u -> u)"
    assert repr(load_corpus_family("s2xs3-conjugated")) == (
        "OneParameterFamily(x -> t*x, y -> t^2*y + (-t^2 + t)*u, u -> t*u)"
    )
    ident = {g.gid: alg.gen(g.gid) for g in p.generators}
    widened = {gid: img.times_t(0) for gid, img in ident.items()}
    assert ModelMap(p, ident) != OneParameterFamily(p, widened)
    # with no generators both image dicts are empty; the classes still differ
    empty = SullivanPresentation("empty", [], {}, 4)
    fam = OneParameterFamily(empty, {})
    for mm in (ModelMap(empty, {}), ModelAutomorphism(empty, {})):
        assert mm != fam and fam != mm
        assert mm == ModelMap(empty, {}) and repr(mm) == "ModelMap()"
    assert repr(fam) == "OneParameterFamily()"


T0 = st.sampled_from([0, 1, 2, -1, Fraction(-1, 3), Fraction(1, 2)])


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32), T0)
def test_evaluate_is_invertible_iff_every_linear_part_has_full_rank(seed, t0):
    rng = random.Random(seed)
    p = random_presentation(rng)
    fam = OneParameterFamily(p, _random_family(rng, p))
    try:
        mm = ModelMap(p, {gid: img.eval_t(t0) for gid, img in fam.images.items()})
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            evaluate(fam, t0)
        return
    ev = evaluate(fam, t0)
    assert ev.map == mm and ev.parameter == t0
    degrees = {g.degree for g in p.generators}
    full = all(rank(lin) == len(gids) for gids, lin in map(mm.linear_part, degrees))
    assert ev.invertible == full


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32), T0.filter(bool))
def test_is_chain_map_agrees_with_the_chain_law_of_verify_family(seed, t0):
    # the same rational images, read once as a map and once as a family
    # with constant coefficients; a family from valid weights is a chain map
    rng = random.Random(seed)
    p = random_presentation(rng)
    result = find_weights(p)
    if result.assignment is not None and rng.random() < 0.5:
        images = diagonal_family(p, result.assignment).images
        if rng.random() < 0.5:
            images = _perturbed(rng, p, images)
    else:
        images = _random_family(rng, p)
    rational = {gid: img.eval_t(t0) for gid, img in images.items()}
    mm = ModelMap(p, rational)
    fam = OneParameterFamily(p, rational)
    chain = [v.subject for v in verify_family(fam) if v.kind == "chain"]
    assert mm.is_chain_map() == (chain == [])
    gens, d = p.algebra.gen, p.d
    broken = [g.name for g in p.generators if mm.apply(d(gens(g.gid))) != d(rational[g.gid])]
    assert chain == broken


# ---- JSON codec: error paths and round trips -------------------------


def _identity_doc(p):
    return {g.name: [{"coeff": "1", "monomial": [[g.name, 1]]}] for g in p.generators}


@pytest.mark.parametrize(
    "kind,edit,message",
    [
        # Named by its input: by message alone it reads like the '1.5' case.
        pytest.param(
            "family", lambda d: d["x"][0].update(coeff="s*t"), "x[0].coeff: not an exact rational: 's'",
            id="family-s*t-x[0].coeff: not an exact rational: 's'",
        ),
        ("automorphism", lambda d: d["x"][0].update(coeff="s"), "x[0].coeff: not an exact rational: 's'"),
        ("automorphism", lambda d: d["x"][0].update(coeff="t"), "x[0].coeff: automorphism coefficients must be rational"),
        ("family", lambda d: d["x"][0].update(coeff="1.5"), "x[0].coeff: not an exact rational: '1.5'"),
        ("family", lambda d: d["x"][0].update(coeff=1), "x[0].coeff: expected a string"),
        ("family", lambda d: d.update(zz=[]), "unknown generators ['zz']"),
        ("automorphism", lambda d: d.pop("y"), "missing generators ['y']"),
        ("family", lambda d: d.update(x={}), "x: expected a list of terms"),
        ("automorphism", lambda d: d["x"][0].pop("coeff"), "x[0]: term must have exactly 'coeff' and 'monomial'"),
        ("family", lambda d: d["u"][0].update(monomial="u"), "u[0].monomial: monomial must be a list of [name, exponent] pairs"),
        ("family", lambda d: d["u"][0].update(monomial=[["u", True]]), "u[0].monomial[0]: expected [generator name, positive exponent]"),
        ("automorphism", lambda d: d["u"][0].update(monomial=[["u", 0]]), "u[0].monomial[0]: exponent 0 < 1"),
        ("automorphism", lambda d: d["u"][0].update(monomial=[["q", 1]]), "u[0].monomial[0]: unknown generator 'q'"),
        ("family", lambda d: d["u"][0].update(monomial=[["u", 1], ["u", 1]]), "u[0].monomial: monomial repeats an odd generator"),
    ],
)
def test_assignment_codec_error_messages(product_model, kind, edit, message):
    doc = _identity_doc(product_model)
    edit(doc)
    parse = parse_family if kind == "family" else parse_automorphism
    with pytest.raises(SchemaError) as exc:
        parse(product_model, json.dumps(doc))
    assert str(exc.value) == message


def test_assignment_must_be_an_object(product_model):
    with pytest.raises(SchemaError, match="^assignment must be a JSON object$"):
        parse_automorphism(product_model, "[]")


def _shear_model():
    # x, y, z of degrees 2, 3, 4 with d(y) = x^2: decomposable shears of z
    # commute with d, so conjugated families have multi-term Laurent images
    gens = [Generator(0, "x", 2), Generator(1, "y", 3), Generator(2, "z", 4)]
    alg = FreeGCA(gens)
    return SullivanPresentation("shear", gens, {1: alg.gen("x") * alg.gen("x")}, 9)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
units = rationals.filter(bool)


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 6), st.integers(1, 6), units, units, rationals)
def test_assignment_files_round_trip_byte_identical(a, b, p_x, p_z, c):
    p = _shear_model()
    alg = p.algebra
    x, y, z = (alg.gen(n) for n in "xyz")
    phi = ModelAutomorphism(
        p, {0: x.scale(p_x), 1: y.scale(p_x * p_x), 2: z.scale(p_z) + (x * x).scale(c)}
    )
    diag = diagonal_family(p, WeightAssignment({"x": a, "y": 2 * a, "z": b}))
    for fam in (diag, conjugate(diag, phi)):
        text = serialize_family(fam)
        assert parse_family(p, text) == fam
        assert serialize_family(parse_family(p, text)) == text
    text = serialize_automorphism(phi)
    assert parse_automorphism(p, text) == phi
    assert serialize_automorphism(parse_automorphism(p, text)) == text


def test_serialize_family_text_is_pinned_on_the_corpus_diagonal_family():
    # sorted generator keys, two-space indent, one line per JSON token
    assert serialize_family(load_corpus_family("s2xs3-diagonal")) == """{
  "u": [
    {
      "coeff": "t",
      "monomial": [
        [
          "u",
          1
        ]
      ]
    }
  ],
  "x": [
    {
      "coeff": "t",
      "monomial": [
        [
          "x",
          1
        ]
      ]
    }
  ],
  "y": [
    {
      "coeff": "t^2",
      "monomial": [
        [
          "y",
          1
        ]
      ]
    }
  ]
}
"""
