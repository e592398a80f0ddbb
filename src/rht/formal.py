"""Bigraded minimal models for cohomology tables with zero differential.

Given a finite graded-commutative algebra table, the builder produces a
presentation realizing it degree by degree.  At degree k it first adds
closed generators of weight k covering whatever the current model misses
in table degree k, then adds generators one degree below whose
differentials kill the degree-(k + 1) classes the table cannot see.
Killing representatives are chosen weight-homogeneous, which is always
possible because the partial model is weight-graded and its differential
preserves weight; each killer inherits the weight of its differential.

The outcome carries weights with weight = degree + stage, where stage 0
marks the closed table-covering generators.  The diagonal family of
those weights scales every certified cohomology class of degree n by
t^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Element, FreeGCA, Generator, RATIONAL
from .errors import DegreeRangeError
from .model import GradedAlgebraTable, SullivanPresentation
from .qlinalg import EchelonSpan, QMatrix, kernel_basis
from .weights import WeightAssignment


@dataclass
class FormalModelResult:
    """A built model together with its weight and stage bookkeeping and
    the multiplicative map onto the table that certifies it."""

    model: SullivanPresentation
    weights: WeightAssignment
    stages: dict[str, int]
    quasi_iso: dict[str, dict[str, Fraction]]
    table: GradedAlgebraTable

    def to_json_dict(self) -> dict:
        from .model import presentation_to_dict

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
    def __init__(self, table: GradedAlgebraTable, truncation: int):
        self.table = table
        self.truncation = truncation
        self.gens: list[Generator] = []
        self.diff: dict[int, Element] = {}
        self.weights: dict[str, int] = {}
        self.stages: dict[str, int] = {}
        self.images: dict[int, dict[str, Fraction]] = {}
        self.used_names: set[str] = set()

    def presentation(self) -> SullivanPresentation:
        alg = FreeGCA(self.gens)
        diff = {
            gid: Element(alg, RATIONAL, dict(img.terms))
            for gid, img in self.diff.items()
        }
        return SullivanPresentation(
            f"formal-{self.table.name}", list(alg.generators), diff, self.truncation
        )

    def fresh_name(self, base: str) -> str:
        name = base
        i = 1
        while name in self.used_names:
            name = f"{base}_{i}"
            i += 1
        self.used_names.add(name)
        return name

    def add_generator(
        self,
        base_name: str,
        degree: int,
        weight: int,
        differential: Element | None,
        table_image: dict[str, Fraction],
    ) -> str:
        name = self.fresh_name(base_name)
        gid = len(self.gens)
        self.gens.append(Generator(gid, name, degree))
        if differential is not None and not differential.is_zero():
            self.diff[gid] = differential
        self.weights[name] = weight
        self.stages[name] = weight - degree
        self.images[gid] = dict(table_image)
        return name

    def rho(self, x: Element) -> dict[str, Fraction]:
        """Image of a model element under the map to the table."""
        alg = x.algebra
        acc = self.table.zero()
        for mono, coeff in x.terms.items():
            img = self.table.one()
            for gid, exp in mono:
                factor = self.images[gid]
                for _ in range(exp):
                    img = self.table.multiply(img, factor)
                    if not img:
                        break
                if not img:
                    break
            if img:
                acc = self.table.add(acc, self.table.scale(img, coeff))
        return acc

    def rho_vector(self, x: Element, degree: int) -> tuple[Fraction, ...]:
        basis = self.table.degree_basis(degree)
        img = self.rho(x)
        return tuple(img.get(b, Fraction(0)) for b in basis)


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
    for k in range(2, truncation_degree):
        _cover_cokernel(b, k)
        if k + 1 <= truncation_degree - 1:
            _kill_kernel(b, k)
    model = b.presentation()
    weights = WeightAssignment(dict(b.weights)) if b.weights else WeightAssignment({})
    by_name = {g.name: b.images[g.gid] for g in b.gens}
    result = FormalModelResult(
        model=_with_formal_dimension(model, table),
        weights=weights,
        stages=dict(b.stages),
        quasi_iso=by_name,
        table=table,
    )
    return result


def _with_formal_dimension(model: SullivanPresentation, table: GradedAlgebraTable):
    top = table.max_degree()
    if top > 0 and len(table.degree_basis(top)) == 1:
        return SullivanPresentation(
            model.name,
            list(model.generators),
            dict(model.differential),
            model.truncation_degree,
            top,
        )
    return model


def _cover_cokernel(b: _Builder, k: int):
    from .cohomology import complex_for

    table_basis = b.table.degree_basis(k)
    if not table_basis:
        return
    reps = complex_for(b.presentation()).representatives(k)
    dim = len(table_basis)
    span = EchelonSpan(dim, (b.rho_vector(rep, k) for rep in reps))
    for idx, cls in enumerate(table_basis):
        if span.add([int(i == idx) for i in range(dim)]):
            b.add_generator(cls, k, k, None, {cls: Fraction(1)})


def _kill_kernel(b: _Builder, k: int):
    from .cohomology import complex_for, weight_decomposition

    p = b.presentation()
    if not p.generators:
        return
    cx = complex_for(p)
    target = k + 1
    if cx.betti(target) == 0:
        return
    alg = p.algebra
    w = WeightAssignment(dict(b.weights))
    decomposition = weight_decomposition(p, w, target)
    strata = decomposition.representatives.get(target, {})
    killer_index = 0
    for mw in sorted(strata):
        class_basis = strata[mw]
        if mw == target:
            # the only stratum the table can see; kill just the part
            # mapping to zero there
            table_dim = len(b.table.degree_basis(target))
            rho_rows = [b.rho_vector(x, target) for x in class_basis]
            columns_are_classes = QMatrix.from_rows(
                [[rho[j] for rho in rho_rows] for j in range(table_dim)], len(class_basis)
            )
            to_kill: list[Element] = []
            for v in kernel_basis(columns_are_classes):
                acc = alg.zero()
                for c, x in zip(v, class_basis):
                    if c:
                        acc = acc + x.scale(c)
                to_kill.append(acc)
        else:
            # classes of weight other than the degree vanish in the table
            to_kill = list(class_basis)
        for cocycle in to_kill:
            b.add_generator(f"z{k}_{killer_index}", k, mw, cocycle, {})
            killer_index += 1


def verify_formal_result(result: FormalModelResult) -> list[str]:
    """Independent checks of the builder's output; empty list means good.

    Confirms the map to the table kills every differential, that Betti
    numbers match table dimensions in all certified degrees, and that
    the weight of every generator exceeds its degree by its stage.
    """
    from .cohomology import complex_for

    issues: list[str] = []
    model = result.model
    b = _Builder(result.table, model.truncation_degree)
    b.gens = list(model.generators)
    b.images = {
        g.gid: dict(result.quasi_iso[g.name]) for g in model.generators
    }
    for g in model.generators:
        w = result.weights[g.name]
        if w != g.degree + result.stages[g.name]:
            issues.append(
                f"generator {g.name}: weight {w} != degree {g.degree} "
                f"+ stage {result.stages[g.name]}"
            )
        img = model.d_of(g.gid)
        if not img.is_zero():
            rho_d = b.rho(img)
            if rho_d:
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
