"""Bigraded minimal models for cohomology tables with zero differential.

Given a finite graded-commutative algebra table, the builder produces a
presentation realizing it degree by degree.  The partial model is a
generator list with weights, table images and each differential as its
term dict; step n builds from it one algebra and its derivation, grows
the previous step's `CochainComplex` onto them (`CochainComplex.grown`
carries d_(n-1), its span and the bases of degrees n - 1 and n, so only
d_n is built and eliminated), and reads the degree-n cohomology once,
grouped by weight (`CochainComplex.weight_classes`).  The partial model's
differential preserves weight, so each class is weight-homogeneous.  The
step adds killers of degree n - 1, each inheriting the weight of the
class it kills, for the classes the table cannot see, then closed
generators of weight n covering whatever the model misses in table
degree n.  Only the finished model becomes a `SullivanPresentation`.

The outcome carries weights with weight = degree + stage, where stage 0
marks the closed table-covering generators.  The diagonal family of
those weights scales every certified cohomology class of degree n by
t^n.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .algebra import Element, FreeGCA, Generator, extend_derivation
from .cohomology import CochainComplex, complex_for
from .errors import DegreeRangeError
from .model import GradedAlgebraTable, SullivanPresentation, presentation_to_dict
from .qlinalg import EchelonSpan, QMatrix, kernel_basis
from .weights import WeightAssignment


class FormalModelResult(NamedTuple):
    """A built model together with its weight and stage bookkeeping and
    the multiplicative map onto the table that certifies it."""

    model: SullivanPresentation
    weights: WeightAssignment
    stages: dict[str, int]
    quasi_iso: dict[str, dict[str, Fraction]]
    table: GradedAlgebraTable

    def to_json_dict(self) -> dict:
        return {
            "model": presentation_to_dict(self.model),
            "weights": {k: v for k, v in sorted(self.weights.weights.items())},
            "stages": {k: v for k, v in sorted(self.stages.items())},
            "quasi_iso": {
                gen: {b: str(c) for b, c in sorted(img.items())}
                for gen, img in sorted(self.quasi_iso.items())
            },
        }


class _Builder:
    """The partial model: generators in order of addition, their weights
    and table images, and each nonzero differential as its term dict
    {monomial: coefficient}.  A monomial names generators by id and ids
    never change, so a term dict is an element of every later algebra.
    `complex` is the last step's complex, the one the next step grows."""

    def __init__(self, table: GradedAlgebraTable, truncation: int):
        self.table = table
        self.truncation = truncation
        self.gens: list[Generator] = []
        self.diff: dict[int, dict] = {}
        self.weights: dict[str, int] = {}
        self.images: dict[int, dict[str, Fraction]] = {}
        self.complex: CochainComplex | None = None

    def add_generator(
        self,
        base_name: str,
        degree: int,
        weight: int,
        differential: dict,
        table_image: dict[str, Fraction],
    ):
        """Append a generator named base_name, or base_name_i for the least
        i >= 1 that no generator has taken."""
        name = base_name
        i = 1
        while name in self.weights:
            name = f"{base_name}_{i}"
            i += 1
        gid = len(self.gens)
        self.gens.append(Generator(gid, name, degree))
        if differential:
            self.diff[gid] = differential
        self.weights[name] = weight
        self.images[gid] = dict(table_image)


def _rho(
    table: GradedAlgebraTable, images: dict[int, dict[str, Fraction]], x: Element
) -> dict[str, Fraction]:
    """Image of a model element under the multiplicative map to the table
    that sends generator id g to images[g]."""
    acc = table.zero()
    for mono, coeff in x.terms.items():
        img = table.one()
        for gid, exp in mono:
            factor = images[gid]
            for _ in range(exp):
                img = table.multiply(img, factor)
                if not img:
                    break
            if not img:
                break
        if img:
            acc = table.add(acc, table.scale(img, coeff))
    return acc


def build_formal_model(table: GradedAlgebraTable, truncation_degree: int) -> FormalModelResult:
    """Minimal presentation realizing the table through the certified range.

    The table must fit: its top nonzero degree must be certifiable, that
    is at most truncation_degree - 1.
    """
    if truncation_degree < 2:
        raise DegreeRangeError(f"truncation degree {truncation_degree} is below 2")
    top = table.max_degree()
    if top > truncation_degree - 1:
        raise DegreeRangeError(
            f"table has classes in degree {top}, beyond the certified range "
            f"of truncation degree {truncation_degree}"
        )
    b = _Builder(table, truncation_degree)
    for n in range(2, truncation_degree):
        _extend(b, n)
    formal_dimension = top if top > 0 and len(table.degree_basis(top)) == 1 else None
    alg = FreeGCA(b.gens)
    diff = {gid: Element(alg, terms) for gid, terms in b.diff.items()}
    model = SullivanPresentation(f"formal-{table.name}", alg, diff, truncation_degree, formal_dimension)
    return FormalModelResult(
        model=model,
        weights=WeightAssignment(dict(b.weights)),
        stages={g.name: b.weights[g.name] - g.degree for g in b.gens},
        quasi_iso={g.name: b.images[g.gid] for g in b.gens},
        table=table,
    )


def _extend(b: _Builder, n: int):
    """Kill the degree-n classes the table cannot see with generators of
    degree n - 1, then cover table degree n with closed generators.

    Both steps come from one read of H^n, taken before the killers.  The
    killers have degree n - 1 and no generator has degree 1, so neither
    C^n nor d on it changes, and neither does Z^n.  The only new
    coboundaries are the killed cocycles, which rho sends to 0.  So
    rho(H^n) read before the killers equals rho(H^n) read after them.
    rho kills every monomial of weight above its degree, so the weight-n
    classes span that image; an `EchelonSpan` pick of unit vectors
    depends only on the span and the candidate order.
    """
    alg = FreeGCA(b.gens)
    d = extend_derivation(alg, {gid: Element._trusted(alg, terms) for gid, terms in b.diff.items()})
    if b.complex is None:
        b.complex = CochainComplex(alg, d, b.truncation)
    else:
        b.complex = b.complex.grown(alg, d, n - 1)
    classes = b.complex.weight_classes(n, WeightAssignment(b.weights))
    table_basis = b.table.degree_basis(n)
    at = {cls: k for k, cls in enumerate(table_basis)}
    rho_rows: list[dict[int, Fraction]] = []
    killer_index = 0
    for mw, class_basis in classes.items():
        if mw == n:
            # the only stratum the table can see; kill just the part
            # mapping to zero there
            rho_rows = [{at[cls]: c for cls, c in _rho(b.table, b.images, x).items()} for x in class_basis]
            columns = [{i: row[k] for i, row in enumerate(rho_rows) if k in row} for k in range(len(table_basis))]
            to_kill = [
                sum((class_basis[j].scale(c) for j, c in v.items()), alg.zero())
                for v in kernel_basis(QMatrix.from_rows(columns, len(class_basis)))
            ]
        else:
            # classes of weight other than the degree vanish in the table
            to_kill = class_basis
        for cocycle in to_kill:
            b.add_generator(f"z{n - 1}_{killer_index}", n - 1, mw, cocycle.terms, {})
            killer_index += 1
    span = EchelonSpan(len(table_basis), rho_rows)
    for k, cls in enumerate(table_basis):
        if span.add({k: 1}):
            b.add_generator(cls, n, n, {}, {cls: Fraction(1)})


def verify_formal_result(result: FormalModelResult) -> list[str]:
    """Independent checks of the builder's output; empty list means good.

    Confirms the map to the table kills every differential, that Betti
    numbers match table dimensions in all certified degrees, and that
    the weight of every generator exceeds its degree by its stage.
    """
    issues: list[str] = []
    model = result.model
    images = {g.gid: result.quasi_iso[g.name] for g in model.generators}
    for g in model.generators:
        w = result.weights[g.name]
        if w != g.degree + result.stages[g.name]:
            issues.append(
                f"generator {g.name}: weight {w} != degree {g.degree} "
                f"+ stage {result.stages[g.name]}"
            )
        if _rho(result.table, images, model.d_of(g.gid)):
            issues.append(
                f"generator {g.name}: differential does not map to zero in the table"
            )
    cx = complex_for(model)
    for n in range(model.truncation_degree):
        expected = len(result.table.degree_basis(n))
        got = cx.betti(n)
        if got != expected:
            issues.append(
                f"degree {n}: model has Betti number {got}, table has {expected}"
            )
    return issues
