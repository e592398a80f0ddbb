"""Exponent arithmetic for mapping growth and for map dilation.

Both exponents read off the weight-to-degree ratios of the generators
that sit at or below the declared formal dimension.  The growth exponent
is the smallest degree/weight ratio; the dilation exponent is the
largest weight/degree ratio.  They are extrema of different quotients
over the same generator set and need not be reciprocal unless a single
generator attains both.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .cohomology import checked_formal_dimension
from .errors import DegreeRangeError, HomogeneityError
from .model import SullivanPresentation
from .weights import WeightAssignment, check_weights

# The growth bound is meaningful for spaces whose families come from
# genuine self-maps; this toolkit checks only the exponent arithmetic,
# so every report carries the caveat.
CONDITIONAL_NOTE = (
    "conditional: the exponents assume the one-parameter family is realized "
    "by actual self-maps; only the arithmetic is verified here"
)


class GeneratorRatio(NamedTuple):
    name: str
    degree: int
    weight: int

    @property
    def degree_over_weight(self) -> Fraction:
        return Fraction(self.degree, self.weight)

    @property
    def weight_over_degree(self) -> Fraction:
        return Fraction(self.weight, self.degree)


class GrowthReport(NamedTuple):
    presentation_name: str
    formal_dimension: int
    ratios: list[GeneratorRatio]
    growth_exponent: Fraction
    dil_exponent: Fraction
    note: str = CONDITIONAL_NOTE

    def to_json_dict(self) -> dict:
        return {
            "name": self.presentation_name,
            "formal_dimension": self.formal_dimension,
            "growth_exponent": str(self.growth_exponent),
            "dil_exponent": str(self.dil_exponent),
            "ratios": {
                r.name: {
                    "degree": r.degree,
                    "weight": r.weight,
                    "degree_over_weight": str(r.degree_over_weight),
                    "weight_over_degree": str(r.weight_over_degree),
                }
                for r in self.ratios
            },
            "note": self.note,
        }


def _qualifying_ratios(
    p: SullivanPresentation, w: WeightAssignment
) -> tuple[int, list[GeneratorRatio]]:
    d_top = checked_formal_dimension(p)
    problems = check_weights(p, w)
    if problems:
        raise HomogeneityError(
            "assignment is not valid for this presentation: "
            + "; ".join(str(v) for v in problems)
        )
    ratios = [
        GeneratorRatio(g.name, g.degree, w[g.name])
        for g in p.generators
        if g.degree <= d_top
    ]
    if not ratios:
        raise DegreeRangeError(
            f"no generators of degree at most {d_top} in {p.name}"
        )
    return d_top, ratios


def growth_exponent(p: SullivanPresentation, w: WeightAssignment) -> Fraction:
    """Smallest degree/weight ratio over generators within the formal
    dimension: the exponent of the mapping-count lower bound."""
    return growth_report(p, w).growth_exponent


def dil_exponent(p: SullivanPresentation, w: WeightAssignment) -> Fraction:
    """Largest weight/degree ratio over the same generators: the scaling
    exponent of the family's dilation as the parameter grows."""
    return growth_report(p, w).dil_exponent


def growth_report(p: SullivanPresentation, w: WeightAssignment) -> GrowthReport:
    d_top, ratios = _qualifying_ratios(p, w)
    return GrowthReport(
        presentation_name=p.name,
        formal_dimension=d_top,
        ratios=ratios,
        growth_exponent=min(r.degree_over_weight for r in ratios),
        dil_exponent=max(r.weight_over_degree for r in ratios),
    )
