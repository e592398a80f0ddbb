"""Change of generators: what a new basis of the same model must not move.

A seeded unipotent algebra map sends each generator g to g plus a
combination, with coefficients in {0, +-1, 2}, of the same-degree
monomials in the generators before g in the canonical (degree, id) order.
Its linear part is unitriangular, so it is invertible, and
`transport_presentation` presents the same model in the new basis.

Betti numbers are basis-free and must not move.  `find_weights` speaks of
one basis, so its verdict may move: the verdicts are frozen as data, and
every "no" must carry the whole-matrix greedy witness.
"""

import random
from fractions import Fraction

import pytest

from oracles import greedy_witness
from rht.cohomology import cohomology
from rht.corpus import load_presentation, load_table
from rht.families import ModelMap, transport_presentation
from rht.formal import build_formal_model
from rht.weights import find_weights

SEEDS = range(20)

# the seeds whose transported presentation has positive weights; h-s2ws4
# has them in its own basis, and every draw here hides them
FEASIBLE_SEEDS = {
    "h-s2ws4-12": (),
    "s2xs3": tuple(SEEDS),
    "s2-wedge-s4": tuple(SEEDS),
    "cp3": tuple(SEEDS),
}


def unipotent_map(p, seed: int) -> ModelMap:
    rng = random.Random(seed)
    alg = p.algebra
    images = {}
    for g in p.generators:
        earlier = (g.degree, g.gid)
        img = alg.gen(g.gid)
        for mono in alg.monomial_basis(g.degree):
            if all((p.generators[h].degree, h) < earlier for h, _ in mono):
                if c := rng.choice((0, 1, -1, 2)):
                    img = img + alg.element({mono: Fraction(c)})
        images[g.gid] = img
    return ModelMap(p, images)


def _model(key):
    if key == "h-s2ws4-12":
        return build_formal_model(load_table("h-s2ws4"), 12).model
    return load_presentation(key)


@pytest.mark.parametrize("key", sorted(FEASIBLE_SEEDS))
def test_transported_models_keep_betti_numbers_and_witnesses(key):
    p = _model(key)
    betti = cohomology(p).betti
    feasible = []
    for seed in SEEDS:
        q = transport_presentation(p, unipotent_map(p, seed))
        assert q.validate() == [], seed
        assert cohomology(q).betti == betti, seed
        rep = find_weights(q)
        if rep.feasible:
            feasible.append(seed)
        else:
            # find_weights drops the columns no row touches; such a column
            # cannot change any subset's feasibility, so the filter agrees
            witness = greedy_witness(rep.system.matrix())
            assert rep.witness_rows == tuple(rep.system.rows[i] for i in witness), seed
    assert tuple(feasible) == FEASIBLE_SEEDS[key]
