"""One-parameter automorphism families and model automorphisms.

A valid positive weight assignment n turns into the family
x_i -> t^{n_i} x_i, an automorphism of the presentation for every t != 0.
Families are stored as generator assignments with images in
`FreeGCA.laurent`, graded by t, and no other variable.  The group law,
that the family at a product of two parameters is the composite of the
family at each, is checked one power of t at a time, so it needs no
second variable.

Model automorphisms have rational coefficients and commute with the
differential.  Inversion works by degree induction: invert the linear
part, then correct by the already-inverted lower degrees applied to the
decomposable part.  Conjugation transports a family along an automorphism
without losing exactness.

Maps and families share one private base, `_GeneratorMap`: a presentation,
one image per generator and their multiplicative extension, with one
`apply`, equality, repr, unknown-id refusal and chain check.  Each class
reads its images its own way: a `ModelMap` fixes the generators it is not
given, a family needs every image and moves it into `laurent` with
`times_t(0)`.  Maps equal only maps, families only families, also where
both image dicts are empty.
"""

from __future__ import annotations

import json
import weakref
from fractions import Fraction
from typing import NamedTuple

from .algebra import Element, extend_algebra_map
from .errors import FamilyError, SchemaError, SingularMapError
from .model import SullivanPresentation, Violation, _load_json, _loads, element_to_terms, terms_to_element
from .qlinalg import QMatrix, invert
from .scalars import Laurent, exact_rational
from .weights import WeightAssignment, check_weights


class _GeneratorMap:
    """One image per generator, extended multiplicatively; `_image` reads an
    image, and `_name` heads the repr and decides which classes compare."""

    def __init__(self, p: SullivanPresentation, images: dict[int, Element], algebra=None):
        """`images` live in `algebra`, by default the presentation's."""
        self.presentation = p
        full = {g.gid: self._image(g, images.get(g.gid)) for g in p.generators}
        if unknown := sorted(images.keys() - full.keys()):
            raise FamilyError(f"image on unknown generator id {unknown[0]}")
        self.images = full
        self._apply = extend_algebra_map(algebra or p.algebra, full)

    def apply(self, x: Element) -> Element:
        """Apply the extension, t-linearly to an element of `laurent`."""
        return self._apply(x)

    def _chain_defects(self):
        """(generator, map(d g), d(map g)) for each generator where the two differ."""
        p = self.presentation
        for g in p.generators:
            lhs, rhs = self.apply(p.d_of(g.gid)), p.d(self.images[g.gid])
            if lhs != rhs:
                yield g, lhs, rhs

    def __eq__(self, other):
        return (
            isinstance(other, _GeneratorMap)
            and self._name == other._name
            and self.presentation == other.presentation
            and self.images == other.images
        )

    def __repr__(self):
        parts = ", ".join(
            f"{g.name} -> {self.images[g.gid]}" for g in self.presentation.generators
        )
        return f"{self._name}({parts})"


class ModelMap(_GeneratorMap):
    """Degree-0 algebra endomorphism of a presentation's algebra, given on
    generators with rational coefficients.  Not necessarily a chain map."""

    _name = "ModelMap"
    _inverse: "ModelMap | weakref.ref | None" = None

    def _image(self, g, img: Element | None) -> Element:
        return self.presentation.algebra.gen(g.gid) if img is None else img

    def is_identity(self) -> bool:
        alg = self.presentation.algebra
        return all(self.images[g.gid] == alg.gen(g.gid) for g in self.presentation.generators)

    def is_chain_map(self) -> bool:
        return next(self._chain_defects(), None) is None

    def linear_part(self, degree: int) -> tuple[list[int], QMatrix]:
        """Generator ids of the given degree and the matrix of the linear
        term, columns indexed by source generator."""
        gids = [g.gid for g in self.presentation.generators if g.degree == degree]
        images = [self.images[gid] for gid in gids]
        rows = [[img.coefficient(((hid, 1),)) for img in images] for hid in gids]
        return gids, QMatrix.from_rows(rows, len(gids))

    def inverse(self) -> "ModelMap":
        """Two-sided inverse, by degree and word-length induction.

        Raises SingularMapError when some linear part is not invertible.
        """
        inv = self._inverse
        if isinstance(inv, weakref.ref):
            inv = inv()
        if inv is not None:
            return inv
        p = self.presentation
        alg = p.algebra
        degrees = sorted({g.degree for g in p.generators})
        inv_images: dict[int, Element] = {}
        for deg in degrees:
            gids, lin = self.linear_part(deg)
            inv_columns = invert(lin)
            if inv_columns is None:
                raise SingularMapError(f"linear part in degree {deg} is singular")
            psi_lower = extend_algebra_map(alg, dict(inv_images))
            residues: list[Element] = []
            for gid in gids:
                terms = self.images[gid].terms
                decomposable = Element(alg, {m: c for m, c in terms.items() if alg.word_length(m) >= 2})
                residues.append(alg.gen(gid) - psi_lower(decomposable))
            # the images solve L^T (psi(h))_h = (residue(x))_x, so
            # psi(h) = sum_x inv(L)[x, h] residue(x), over column h of inv(L)
            for hid, column in zip(gids, inv_columns):
                inv_images[hid] = sum((residues[x].scale(c) for x, c in column.items()), alg.zero())
        result = ModelMap(p, inv_images)
        # both compositions must fix every generator exactly
        for g in p.generators:
            if result.apply(self.images[g.gid]) != alg.gen(g.gid):
                raise SingularMapError(f"inversion failed on generator {g.name}")
            if self.apply(result.images[g.gid]) != alg.gen(g.gid):
                raise SingularMapError(f"inversion failed on generator {g.name}")
        # the inverse points back weakly, so the pair forms no cycle
        result._inverse = weakref.ref(self)
        self._inverse = result
        return result


class ModelAutomorphism(ModelMap):
    """A ModelMap that commutes with the differential and is invertible."""

    def __init__(self, p: SullivanPresentation, images: dict[int, Element]):
        super().__init__(p, images)
        if not self.is_chain_map():
            raise FamilyError("automorphism must commute with the differential")
        self.inverse()  # raises SingularMapError when not invertible


class OneParameterFamily(_GeneratorMap):
    """Generator assignment with images in `p.algebra.laurent`, graded by t."""

    _name = "OneParameterFamily"

    def __init__(self, p: SullivanPresentation, images: dict[int, Element]):
        super().__init__(p, images, p.algebra.laurent)
        self._verified: list[Violation] | None = None
        # degree -> (representatives, action columns), see induced_action
        self._actions: dict[int, tuple[list[Element], list[list[Laurent]]]] = {}

    def _image(self, g, img: Element | None) -> Element:
        if img is None:
            raise FamilyError(f"no image for generator {g.name}")
        return img.times_t(0)


class EvaluatedFamily(NamedTuple):
    """A family specialized at a rational parameter value.

    At t = 0 the result is still returned but flagged: the assignment is
    then an endomorphism, not an automorphism.
    """

    map: ModelMap
    parameter: Fraction
    invertible: bool


def diagonal_family(p: SullivanPresentation, w: WeightAssignment) -> OneParameterFamily:
    """The family x_i -> t^{n_i} x_i for a valid weight assignment."""
    problems = check_weights(p, w)
    if problems:
        raise FamilyError(
            "weight assignment is not valid for this presentation: "
            + "; ".join(str(v) for v in problems)
        )
    alg = p.algebra
    return OneParameterFamily(p, {g.gid: alg.gen(g.gid).times_t(w[g.name]) for g in p.generators})


def verify_family(fam: OneParameterFamily) -> list[Violation]:
    """Check the three family laws symbolically; empty list means verified.

    Write the image of a generator g as the sum of t^k P_k(g), P_k(g)
    rational.  Identity at t = 1 is sum_k P_k(g) = g; the family commutes
    with d; and the group law (the family at a product of two parameters is
    the composite of the family at each) holds iff the family maps each
    P_k(g) to t^k P_k(g) (README, "Guarantees and limits").  A generator
    breaks each law at most once.
    """
    if fam._verified is not None:
        return fam._verified
    p = fam.presentation
    alg = p.algebra
    out: list[Violation] = []
    parts = {gid: img.t_components() for gid, img in fam.images.items()}
    for g in p.generators:
        at_one = sum(parts[g.gid].values(), alg.zero())
        if at_one != alg.gen(g.gid):
            out.append(
                Violation("identity", g.name, f"image at t = 1 is {at_one}, not {g.name}")
            )
    for g, lhs, rhs in fam._chain_defects():
        message = f"family(d({g.name})) = {lhs} but d(family({g.name})) = {rhs}"
        out.append(Violation("chain", g.name, message))
    for g in p.generators:
        for k, part in parts[g.gid].items():
            moved = fam.apply(part)
            if moved != part.times_t(k):
                message = f"the family maps the t^{k} part {part} of {g.name} to {moved}"
                out.append(Violation("group", g.name, message))
                break
    fam._verified = out
    return out


def evaluate(fam: OneParameterFamily, t0: Fraction) -> EvaluatedFamily:
    """Substitute an exact rational parameter value into the family; the
    map is invertible iff `ModelMap.inverse` succeeds on it."""
    t0 = exact_rational(t0)
    mm = ModelMap(fam.presentation, {gid: img.eval_t(t0) for gid, img in fam.images.items()})
    try:
        mm.inverse()
    except SingularMapError:
        return EvaluatedFamily(mm, t0, invertible=False)
    return EvaluatedFamily(mm, t0, invertible=True)


def compose_families(f: OneParameterFamily, g: OneParameterFamily) -> OneParameterFamily:
    """Pointwise composition (f at t) o (g at t), sharing the parameter."""
    if f.presentation != g.presentation:
        raise FamilyError("families live on different presentations")
    return OneParameterFamily(
        f.presentation, {gid: f.apply(img) for gid, img in g.images.items()}
    )


def conjugate(fam: OneParameterFamily, phi: ModelAutomorphism) -> OneParameterFamily:
    """The family phi^-1 o (fam at t) o phi."""
    if phi.presentation != fam.presentation:
        raise FamilyError("automorphism lives on a different presentation")
    inv = phi.inverse()
    images = {}
    for g in fam.presentation.generators:
        images[g.gid] = inv.apply(fam.apply(phi.images[g.gid]))
    return OneParameterFamily(fam.presentation, images)


def transport_presentation(p: SullivanPresentation, phi: ModelMap) -> SullivanPresentation:
    """Conjugate the differential by an invertible algebra map.

    The result presents the same isomorphism type with differential
    phi^-1 o d o phi; running weight detection on it probes a different
    generating basis of the same model.
    """
    inv = phi.inverse()
    d = p.d
    new_diff = {}
    for g in p.generators:
        img = inv.apply(d(phi.images[g.gid]))
        if not img.is_zero():
            new_diff[g.gid] = img
    return SullivanPresentation(p.name, p.algebra, new_diff, p.truncation_degree, p.formal_dimension)


# ---- JSON -------------------------------------------------------------


def family_to_dict(fam: OneParameterFamily | ModelMap) -> dict:
    """Generator name -> canonical term list; families and model maps
    share the format, a family's coefficients being Laurent polynomials."""
    return {g.name: element_to_terms(fam.images[g.gid]) for g in fam.presentation.generators}


def serialize_family(fam: OneParameterFamily | ModelMap) -> str:
    return json.dumps(family_to_dict(fam), indent=2, sort_keys=True) + "\n"


serialize_automorphism = serialize_family


def _automorphism_coeff(text: str, path: str) -> Fraction:
    coeff = Laurent.parse(text, path)
    if not coeff.is_rational():
        raise SchemaError("automorphism coefficients must be rational", path)
    return coeff.as_rational()


def family_from_dict(p: SullivanPresentation, doc, path: str = "") -> OneParameterFamily:
    return OneParameterFamily(p, _assignment_from_dict(p.algebra.laurent, doc, path, Laurent.parse))


def parse_family(p: SullivanPresentation, text: str) -> OneParameterFamily:
    return family_from_dict(p, _loads(text))


def load_family(p: SullivanPresentation, path) -> OneParameterFamily:
    return family_from_dict(p, _load_json(path))


def automorphism_from_dict(p: SullivanPresentation, doc, path: str = "") -> ModelAutomorphism:
    return ModelAutomorphism(p, _assignment_from_dict(p.algebra, doc, path, _automorphism_coeff))


def parse_automorphism(p: SullivanPresentation, text: str) -> ModelAutomorphism:
    return automorphism_from_dict(p, _loads(text))


def load_automorphism(p: SullivanPresentation, path) -> ModelAutomorphism:
    return automorphism_from_dict(p, _load_json(path))


def _assignment_from_dict(alg, doc, path: str, read) -> dict[int, Element]:
    """Generator id -> image in `alg`, a presentation's algebra or its `laurent`."""
    if not isinstance(doc, dict):
        raise SchemaError("assignment must be a JSON object", path)
    known = {g.name for g in alg.generators}
    extra = set(doc) - known
    if extra:
        raise SchemaError(f"unknown generators {sorted(extra)}", path)
    missing = known - set(doc)
    if missing:
        raise SchemaError(f"missing generators {sorted(missing)}", path)
    return {
        alg.by_name[gname].gid: terms_to_element(alg, terms, f"{path}.{gname}" if path else gname, read)
        for gname, terms in doc.items()
    }
