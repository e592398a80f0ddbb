"""Truncated Sullivan presentations and finite cohomology algebra tables.

A presentation is a free graded-commutative algebra on generators of
degree >= 2 with a decomposable differential of degree +1 squaring to
zero, remembered together with a truncation degree N.  Cohomology
statements downstream are certified only for n <= N - 1, which is why N
travels with the data.

File formats are JSON with exact rational literals; serialization is
canonical (sorted keys, canonical monomial order), so round-trips are
byte-identical.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable, NamedTuple

from .algebra import Element, FreeGCA, Generator, LinearMap, Monomial, RATIONAL, extend_derivation
from .errors import SchemaError
from .scalars import exact_rational, parse_rational


class Violation(NamedTuple):
    """One failed structural check; `subject` names the generator or pair."""

    kind: str
    subject: str
    detail: str

    def __str__(self):
        return f"{self.kind}({self.subject}): {self.detail}"


class SullivanPresentation:
    """Generators, differential, truncation degree, optional formal dimension;
    given a FreeGCA for its generators, the presentation keeps it as its algebra."""

    def __init__(
        self,
        name: str,
        generators: list[Generator] | FreeGCA,
        differential: dict[int, Element],
        truncation_degree: int,
        formal_dimension: int | None = None,
    ):
        if truncation_degree < 2:
            raise SchemaError("truncation_degree must be >= 2", "truncation_degree")
        self.name = name
        self.algebra = generators if type(generators) is FreeGCA else FreeGCA(generators)
        self.generators = self.algebra.generators
        self.differential = {
            gid: img for gid, img in differential.items() if not img.is_zero()
        }
        self.truncation_degree = truncation_degree
        self.formal_dimension = formal_dimension
        for gid, img in self.differential.items():
            if not (0 <= gid < len(self.generators)):
                raise SchemaError(f"differential on unknown generator id {gid}")
            if img.algebra != self.algebra:
                raise SchemaError("differential image outside the presentation algebra")
            if img.kind != RATIONAL:
                raise SchemaError("differential coefficients must be rational")
        self._d: LinearMap | None = None

    def d_of(self, gid: int) -> Element:
        return self.differential.get(gid, self.algebra.zero())

    @property
    def d(self) -> LinearMap:
        """The derivation, extended to the whole algebra.  Requires
        homogeneous images; call validate() first on untrusted data."""
        if self._d is None:
            self._d = extend_derivation(self.algebra, self.differential)
        return self._d

    def validate(self) -> list[Violation]:
        """Structural checks; an empty list means the presentation is valid.

        Checks generator degrees (simple connectivity), homogeneity of the
        differential, minimality (images decomposable), and d o d = 0 on
        every generator, which covers all degrees <= N + 1 and beyond since
        the check is exact.
        """
        out: list[Violation] = []
        for g in self.generators:
            if g.degree < 2:
                out.append(
                    Violation("degree", g.name, f"generator degree {g.degree} < 2")
                )
            if g.degree > self.truncation_degree:
                out.append(
                    Violation(
                        "degree",
                        g.name,
                        f"generator degree {g.degree} exceeds truncation degree "
                        f"{self.truncation_degree}",
                    )
                )
        homogeneous = True
        for gid, img in sorted(self.differential.items()):
            g = self.generators[gid]
            if not img.is_homogeneous(g.degree + 1):
                homogeneous = False
                out.append(
                    Violation(
                        "homogeneity",
                        g.name,
                        f"d({g.name}) is not homogeneous of degree {g.degree + 1}",
                    )
                )
            for mono in img.terms:
                if self.algebra.word_length(mono) < 2:
                    out.append(
                        Violation(
                            "minimality",
                            g.name,
                            f"d({g.name}) contains the non-decomposable word "
                            f"{self.algebra.monomial_name(mono)}",
                        )
                    )
        if homogeneous:
            d = self.d
            for gid in sorted(self.differential):
                g = self.generators[gid]
                sq = d(self.differential[gid])
                if not sq.is_zero():
                    out.append(
                        Violation("square", g.name, f"d(d({g.name})) = {sq} != 0")
                    )
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SullivanPresentation)
            and self.name == other.name
            and self.generators == other.generators
            and self.differential == other.differential
            and self.truncation_degree == other.truncation_degree
            and self.formal_dimension == other.formal_dimension
        )

    def __repr__(self):
        gens = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"SullivanPresentation({self.name!r}, [{gens}], N={self.truncation_degree})"


# ---- element <-> JSON -------------------------------------------------


def element_to_terms(x: Element) -> list[dict]:
    """Canonical term list of an element of either scalar kind: terms in
    (degree, canonical monomial) order, coefficients as their `str`."""
    alg = x.algebra
    out = []
    for m in sorted(x.terms, key=lambda m: (alg.degree_of(m), alg.monomial_key(m))):
        c = x.terms[m]
        out.append(
            {
                "coeff": str(c),
                "monomial": [[alg.generators[g].name, e] for g, e in m],
            }
        )
    return out


def terms_to_element(
    alg: FreeGCA, terms, path: str, read: Callable = parse_rational, kind: str = RATIONAL
) -> Element:
    """Inverse of element_to_terms; `read(text, path)` parses one
    coefficient into a scalar of the given kind and may refuse it.  One dict
    sums the terms in the order that adding them one by one gives: a
    monomial leaves when its sum cancels and re-enters at the end."""
    if not isinstance(terms, list):
        raise SchemaError("expected a list of terms", path)
    acc: dict = {}
    for i, term in enumerate(terms):
        if not isinstance(term, dict) or set(term) != {"coeff", "monomial"}:
            raise SchemaError("term must have exactly 'coeff' and 'monomial'", f"{path}[{i}]")
        cpath = f"{path}[{i}].coeff"
        coeff = read(_expect_str(term["coeff"], cpath), cpath)
        sign, mono = _parse_monomial(alg, term["monomial"], f"{path}[{i}].monomial")
        if coeff:
            if sign < 0:
                coeff = -coeff
            if mono in acc and not (coeff := acc[mono] + coeff):
                del acc[mono]
            else:
                acc[mono] = coeff
    return Element._trusted(alg, kind, acc)


def _parse_monomial(alg: FreeGCA, raw, path: str) -> tuple[int, Monomial]:
    """Parse a factor list; out-of-order odd factors fold their Koszul sign
    into the returned sign rather than being rejected.  Exponents are
    summed, never expanded, so their size costs nothing."""
    if not isinstance(raw, list):
        raise SchemaError("monomial must be a list of [name, exponent] pairs", path)
    word: list[int] = []
    exponents: dict[int, int] = {}
    for i, pair in enumerate(raw):
        if not (isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str)
                and isinstance(pair[1], int) and not isinstance(pair[1], bool)):
            raise SchemaError("expected [generator name, positive exponent]", f"{path}[{i}]")
        name, exp = pair
        g = alg.by_name.get(name)
        if g is None:
            raise SchemaError(f"unknown generator {name!r}", f"{path}[{i}]")
        if exp < 1:
            raise SchemaError(f"exponent {exp} < 1", f"{path}[{i}]")
        word.append(g.gid)
        exponents[g.gid] = exponents.get(g.gid, 0) + exp
    # one letter per pair: the sign only counts odd factors, and an odd
    # factor with a total exponent above 1 makes the monomial vanish
    norm = alg.normalize_word(word)
    odd_power = any(e > 1 and alg.generators[g].degree % 2 for g, e in exponents.items())
    if norm is None or odd_power:
        raise SchemaError("monomial repeats an odd generator", path)
    sign, mono = norm
    return sign, tuple((g, exponents[g]) for g, _ in mono)


def _expect_str(v, path: str) -> str:
    if not isinstance(v, str):
        raise SchemaError("expected a string", path)
    return v


def _expect_int(v, path: str, minimum: int | None = None) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise SchemaError("expected an integer", path)
    if minimum is not None and v < minimum:
        raise SchemaError(f"expected an integer >= {minimum}", path)
    return v


# ---- presentation <-> JSON --------------------------------------------


def presentation_to_dict(p: SullivanPresentation) -> dict:
    doc = {
        "name": p.name,
        "truncation_degree": p.truncation_degree,
        "generators": [{"name": g.name, "degree": g.degree} for g in p.generators],
        "differential": {
            p.generators[gid].name: element_to_terms(img)
            for gid, img in sorted(p.differential.items())
        },
    }
    if p.formal_dimension is not None:
        doc["formal_dimension"] = p.formal_dimension
    return doc


def serialize_presentation(p: SullivanPresentation) -> str:
    return json.dumps(presentation_to_dict(p), indent=2, sort_keys=True) + "\n"


def presentation_from_dict(doc, path: str = "") -> SullivanPresentation:
    if not isinstance(doc, dict):
        raise SchemaError("presentation must be a JSON object", path)
    allowed = {"name", "truncation_degree", "formal_dimension", "generators", "differential"}
    extra = set(doc) - allowed
    if extra:
        raise SchemaError(f"unknown keys {sorted(extra)}", path)
    for key in ("name", "truncation_degree", "generators"):
        if key not in doc:
            raise SchemaError(f"missing key {key!r}", path)
    name = _expect_str(doc["name"], "name")
    trunc = _expect_int(doc["truncation_degree"], "truncation_degree", minimum=2)
    gens_raw = doc["generators"]
    if not isinstance(gens_raw, list):
        raise SchemaError("expected a list", "generators")
    gens: list[Generator] = []
    for i, g in enumerate(gens_raw):
        gpath = f"generators[{i}]"
        if not isinstance(g, dict) or set(g) != {"name", "degree"}:
            raise SchemaError("generator must have exactly 'name' and 'degree'", gpath)
        gname = _expect_str(g["name"], f"{gpath}.name")
        gdeg = _expect_int(g["degree"], f"{gpath}.degree", minimum=1)
        gens.append(Generator(i, gname, gdeg))
    if len({g.name for g in gens}) != len(gens):
        raise SchemaError("duplicate generator names", "generators")
    try:
        alg = FreeGCA(gens)
    except ValueError as exc:
        raise SchemaError(str(exc), "generators") from exc
    diff_raw = doc.get("differential", {})
    if not isinstance(diff_raw, dict):
        raise SchemaError("expected an object", "differential")
    differential: dict[int, Element] = {}
    for gname, terms in diff_raw.items():
        dpath = f"differential.{gname}"
        if gname not in alg.by_name:
            raise SchemaError(f"unknown generator {gname!r}", dpath)
        differential[alg.by_name[gname].gid] = terms_to_element(alg, terms, dpath)
    formal = None
    if "formal_dimension" in doc:
        formal = _expect_int(doc["formal_dimension"], "formal_dimension", minimum=0)
    return SullivanPresentation(name, alg, differential, trunc, formal)


def _loads(text: str, path: str = ""):
    """Decode a JSON document, reporting syntax errors and nesting deeper
    than the decoder's recursion limit as SchemaError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}", path) from exc
    except RecursionError as exc:
        raise SchemaError("invalid JSON: nested too deeply", path) from exc


def _load_json(path):
    """The JSON document in the file at `path`, decoded by `_loads`."""
    with open(path, "r", encoding="utf-8") as fh:
        return _loads(fh.read(), path)


def parse_presentation(text: str) -> SullivanPresentation:
    return presentation_from_dict(_loads(text))


def load_presentation(path) -> SullivanPresentation:
    return presentation_from_dict(_load_json(path))


# ---- finite graded algebra tables -------------------------------------


class BasisClass(NamedTuple):
    name: str
    degree: int


class GradedAlgebraTable:
    """Finite-dimensional graded-commutative algebra by structure constants.

    Intended for cohomology algebras handed to the formal-model builder:
    degree 0 is spanned by the unit, degree 1 is empty, and the product
    table is checked graded-commutative and associative at construction.
    Elements are dicts basis-name -> Fraction.
    """

    def __init__(
        self,
        name: str,
        basis: list[BasisClass],
        unit: str,
        products: dict[tuple[str, str], dict[str, Fraction]],
    ):
        self.name = name
        self.basis = tuple(basis)
        names = [b.name for b in basis]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate basis names", "basis")
        self.by_name = {b.name: b for b in basis}
        if unit not in self.by_name:
            raise SchemaError(f"unit {unit!r} is not a basis element", "unit")
        if self.by_name[unit].degree != 0:
            raise SchemaError("unit must have degree 0", "unit")
        self.unit = unit
        zero_deg = [b for b in basis if b.degree == 0]
        if len(zero_deg) != 1:
            raise SchemaError("degree 0 must be spanned by the unit alone", "basis")
        if any(b.degree == 1 for b in basis):
            raise SchemaError("degree 1 must be empty", "basis")
        if any(b.degree < 0 for b in basis):
            raise SchemaError("negative degree", "basis")

        table: dict[tuple[str, str], dict[str, Fraction]] = {}
        for (l, r), value in products.items():
            for bname in (l, r):
                if bname not in self.by_name:
                    raise SchemaError(f"unknown basis element {bname!r}", "products")
            clean = {k: q for k, v in value.items() if (q := exact_rational(v))}
            for k in clean:
                if k not in self.by_name:
                    raise SchemaError(f"unknown basis element {k!r}", "products")
            table[(l, r)] = clean
        self._products = table
        self._close_and_check()

    def _sign(self, a: str, b: str) -> int:
        return -1 if (self.by_name[a].degree % 2 and self.by_name[b].degree % 2) else 1

    def _close_and_check(self):
        # fill unit products, mirror by graded commutativity, default zero
        for b in self.basis:
            for key in ((self.unit, b.name), (b.name, self.unit)):
                given = self._products.setdefault(key, {b.name: Fraction(1)})
                if given != {b.name: Fraction(1)}:
                    raise SchemaError(
                        f"product of unit with {b.name} must be {b.name}", "products"
                    )
        for a in self.basis:
            for b in self.basis:
                key, mirror = (a.name, b.name), (b.name, a.name)
                if key not in self._products and mirror in self._products:
                    sgn = self._sign(a.name, b.name)
                    self._products[key] = {
                        k: sgn * v for k, v in self._products[mirror].items()
                    }
                self._products.setdefault(key, {})
        for a in self.basis:
            for b in self.basis:
                value = self._products[(a.name, b.name)]
                want = a.degree + b.degree
                for k in value:
                    if self.by_name[k].degree != want:
                        raise SchemaError(
                            f"product {a.name}*{b.name} lands in degree "
                            f"{self.by_name[k].degree}, expected {want}",
                            "products",
                        )
                mirror = self._products[(b.name, a.name)]
                sgn = self._sign(a.name, b.name)
                if {k: sgn * v for k, v in mirror.items()} != value:
                    raise SchemaError(
                        f"products {a.name}*{b.name} and {b.name}*{a.name} "
                        "violate graded commutativity",
                        "products",
                    )
        for a in self.basis:
            for b in self.basis:
                for c in self.basis:
                    left = self.multiply(self.multiply({a.name: Fraction(1)}, {b.name: Fraction(1)}), {c.name: Fraction(1)})
                    right = self.multiply({a.name: Fraction(1)}, self.multiply({b.name: Fraction(1)}, {c.name: Fraction(1)}))
                    if left != right:
                        raise SchemaError(
                            f"associativity fails on ({a.name}, {b.name}, {c.name})",
                            "products",
                        )

    # ---- algebra of dict elements ------------------------------------

    def zero(self) -> dict[str, Fraction]:
        return {}

    def one(self) -> dict[str, Fraction]:
        return {self.unit: Fraction(1)}

    def add(self, x: dict[str, Fraction], y: dict[str, Fraction]) -> dict[str, Fraction]:
        out = dict(x)
        for k, v in y.items():
            w = out.get(k, Fraction(0)) + v
            if w:
                out[k] = w
            elif k in out:
                del out[k]
        return out

    def scale(self, x: dict[str, Fraction], c: Fraction) -> dict[str, Fraction]:
        if not c:
            return {}
        return {k: c * v for k, v in x.items()}

    def multiply(self, x: dict[str, Fraction], y: dict[str, Fraction]) -> dict[str, Fraction]:
        out: dict[str, Fraction] = {}
        for a, ca in x.items():
            for b, cb in y.items():
                for k, v in self._products[(a, b)].items():
                    w = out.get(k, Fraction(0)) + ca * cb * v
                    if w:
                        out[k] = w
                    elif k in out:
                        del out[k]
        return out

    def degree_basis(self, degree: int) -> list[str]:
        return [b.name for b in self.basis if b.degree == degree]

    def max_degree(self) -> int:
        return max((b.degree for b in self.basis), default=0)

    def __repr__(self):
        return f"GradedAlgebraTable({self.name!r}, dim={len(self.basis)})"


def table_to_dict(t: GradedAlgebraTable) -> dict:
    products = []
    nonunit = [b.name for b in t.basis if b.name != t.unit]
    for a in nonunit:
        for b in nonunit:
            if (t.by_name[a].degree, a) > (t.by_name[b].degree, b):
                continue
            value = t._products.get((a, b), {})
            if not value:
                continue
            products.append(
                {
                    "left": a,
                    "right": b,
                    "value": [
                        {"coeff": str(v), "basis": k}
                        for k, v in sorted(value.items())
                    ],
                }
            )
    return {
        "name": t.name,
        "basis": [{"name": b.name, "degree": b.degree} for b in t.basis],
        "unit": t.unit,
        "products": products,
    }


def serialize_table(t: GradedAlgebraTable) -> str:
    return json.dumps(table_to_dict(t), indent=2, sort_keys=True) + "\n"


def table_from_dict(doc, path: str = "") -> GradedAlgebraTable:
    if not isinstance(doc, dict):
        raise SchemaError("algebra table must be a JSON object", path)
    allowed = {"name", "basis", "unit", "products"}
    extra = set(doc) - allowed
    if extra:
        raise SchemaError(f"unknown keys {sorted(extra)}", path)
    for key in ("name", "basis", "unit"):
        if key not in doc:
            raise SchemaError(f"missing key {key!r}", path)
    name = _expect_str(doc["name"], "name")
    basis_raw = doc["basis"]
    if not isinstance(basis_raw, list):
        raise SchemaError("expected a list", "basis")
    basis = []
    for i, b in enumerate(basis_raw):
        bpath = f"basis[{i}]"
        if not isinstance(b, dict) or set(b) != {"name", "degree"}:
            raise SchemaError("basis element must have exactly 'name' and 'degree'", bpath)
        basis.append(
            BasisClass(_expect_str(b["name"], f"{bpath}.name"), _expect_int(b["degree"], f"{bpath}.degree", minimum=0))
        )
    unit = _expect_str(doc["unit"], "unit")
    products_raw = doc.get("products", [])
    if not isinstance(products_raw, list):
        raise SchemaError("expected a list", "products")
    products: dict[tuple[str, str], dict[str, Fraction]] = {}
    for i, prod in enumerate(products_raw):
        ppath = f"products[{i}]"
        if not isinstance(prod, dict) or set(prod) != {"left", "right", "value"}:
            raise SchemaError("product must have exactly 'left', 'right', 'value'", ppath)
        left = _expect_str(prod["left"], f"{ppath}.left")
        right = _expect_str(prod["right"], f"{ppath}.right")
        value: dict[str, Fraction] = {}
        if not isinstance(prod["value"], list):
            raise SchemaError("expected a list", f"{ppath}.value")
        for j, entry in enumerate(prod["value"]):
            epath = f"{ppath}.value[{j}]"
            if not isinstance(entry, dict) or set(entry) != {"coeff", "basis"}:
                raise SchemaError("entry must have exactly 'coeff' and 'basis'", epath)
            bname = _expect_str(entry["basis"], f"{epath}.basis")
            coeff = parse_rational(_expect_str(entry["coeff"], f"{epath}.coeff"), f"{epath}.coeff")
            value[bname] = value.get(bname, Fraction(0)) + coeff
        if (left, right) in products:
            raise SchemaError(f"duplicate product ({left}, {right})", ppath)
        products[(left, right)] = value
    return GradedAlgebraTable(name, basis, unit, products)


def parse_table(text: str) -> GradedAlgebraTable:
    return table_from_dict(_loads(text))


def load_table(path) -> GradedAlgebraTable:
    return table_from_dict(_load_json(path))
