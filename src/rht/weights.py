"""Positive weight systems for a Sullivan presentation.

A weight assignment gives every generator a positive integer n_i; a
monomial weighs the exponent-weighted sum of its factors.  The assignment
is valid when every differential image is weight-homogeneous of the weight
of its source generator, i.e. each differential monomial m of d(x) yields
the linear condition weight(m) - n_x = 0.  Validity is what makes
x_i -> t^{n_i} x_i a family of automorphisms commuting with d.

Detection is per presentation: a "no" here means no positive weights for
this generating set and differential, not for every quasi-isomorphic one.
Re-running detection after transporting the presentation along an algebra
automorphism (families.transport_presentation) probes other bases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .algebra import FreeGCA, Monomial
from .errors import ToolkitError
from .model import SullivanPresentation, Violation
from .qlinalg import QMatrix, positive_integer_kernel


@dataclass(frozen=True)
class ConstraintRow:
    """One homogeneity condition, sum of exponent * n_factor - n_source = 0, for
    one monomial of d(source); its label and dense coefficients are built on demand."""

    source: str
    monomial: Monomial
    algebra: FreeGCA = field(compare=False, repr=False)

    @property
    def label(self) -> str:
        return f"d({self.source}): {self.algebra.monomial_name(self.monomial)}"

    @property
    def entries(self) -> dict[int, int]:
        """The nonzero coefficients, {generator id: coefficient}."""
        row, gid = dict(self.monomial), self.algebra.by_name[self.source].gid
        row[gid] = row.get(gid, 0) - 1
        return {j: x for j, x in row.items() if x}

    @property
    def coefficients(self) -> tuple[int, ...]:
        row = self.entries
        return tuple(row.get(j, 0) for j in range(len(self.algebra.generators)))


@dataclass(frozen=True)
class WeightConstraintSystem:
    generator_names: tuple[str, ...]
    rows: tuple[ConstraintRow, ...]

    def matrix(self) -> QMatrix:
        return QMatrix.from_rows([r.entries for r in self.rows], len(self.generator_names))


@dataclass(frozen=True)
class WeightAssignment:
    """Positive integer weight per generator name."""

    weights: dict[str, int]

    def __post_init__(self):
        for name, n in self.weights.items():
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                raise ToolkitError(f"weight of {name!r} must be a positive integer")

    def __getitem__(self, name: str) -> int:
        return self.weights[name]

    def monomial_weight(self, p: SullivanPresentation | FreeGCA, mono: Monomial) -> int:
        return sum(self.weights[p.generators[g].name] * e for g, e in mono)


@dataclass(frozen=True)
class WeightReport:
    """find_weights outcome: an assignment or a witness of infeasibility.

    `witness_rows` lists a minimal subset of constraint rows that is
    already infeasible on its own.
    """

    feasible: bool
    assignment: WeightAssignment | None
    witness_rows: tuple[ConstraintRow, ...]
    system: WeightConstraintSystem

    def to_json_dict(self) -> dict:
        doc: dict = {"feasible": self.feasible}
        if self.feasible:
            doc["weights"] = dict(sorted(self.assignment.weights.items()))
            doc["witness_rows"] = []
        else:
            doc["weights"] = {}
            doc["witness_rows"] = [r.label for r in self.witness_rows]
        return doc


def extract_constraints(p: SullivanPresentation) -> WeightConstraintSystem:
    """One row per (source generator, differential monomial) pair.

    Row order follows generator order, then the canonical monomial order of
    the image; column order is generator order.  The row for monomial m of
    d(x) holds the exponents of m, with the slot of x decremented by one.
    """
    alg = p.algebra
    rows = tuple(
        ConstraintRow(p.generators[gid].name, mono, alg)
        for gid in sorted(p.differential)
        for mono in sorted(p.differential[gid].terms, key=alg.monomial_key)
    )
    return WeightConstraintSystem(generator_names=tuple(g.name for g in p.generators), rows=rows)


def find_weights(p: SullivanPresentation) -> WeightReport:
    """Decide feasibility and produce the canonical assignment.

    Generators touched by no constraint receive weight 1; the constrained
    block is solved exactly and normalized to coprime positive integers.
    The outcome is deterministic in the presentation alone.
    """
    system = extract_constraints(p)
    m = system.matrix()
    constrained = sorted(set(chain.from_iterable(m.supports())))
    col_of = {j: k for k, j in enumerate(constrained)}
    result = positive_integer_kernel(m.submatrix(range(m.rows), constrained))
    if not result.feasible:
        witness = tuple(system.rows[i] for i in result.witness)
        return WeightReport(False, None, witness, system)
    weights = {}
    for j, name in enumerate(system.generator_names):
        if j in col_of:
            weights[name] = result.solution[col_of[j]]
        else:
            weights[name] = 1
    return WeightReport(True, WeightAssignment(weights), (), system)


def check_weights(p: SullivanPresentation, w: WeightAssignment) -> list[Violation]:
    """All homogeneity failures of the assignment, empty when valid."""
    out: list[Violation] = []
    for name in (g.name for g in p.generators):
        if name not in w.weights:
            out.append(Violation("weights", name, "no weight assigned"))
    if out:
        return out
    alg = p.algebra
    for gid in sorted(p.differential):
        source = p.generators[gid].name
        source_w = w.weights[source]
        for mono in sorted(p.differential[gid].terms, key=alg.monomial_key):
            weight = w.monomial_weight(p, mono)
            if weight != source_w:
                out.append(
                    Violation(
                        "weights",
                        source,
                        f"monomial {alg.monomial_name(mono)} of d({source}) has weight "
                        f"{weight}, the source has weight {source_w}",
                    )
                )
    return out
