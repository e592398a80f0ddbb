"""Free graded-commutative algebra over the rationals.

The ambient object is Lambda(V) on a finite list of generators, each with
an integer degree >= 2, so the algebra is simply connected.  Monomials are
words in canonical order: factors sorted by (degree, generator id), odd
generators with exponent exactly 1, even generators with any positive
exponent.  Reordering a word picks up the Koszul sign, minus one for every
transposition of two odd factors; a repeated odd generator kills the word.

Elements carry one of two scalar kinds, plain rationals or Laurent scalars
in t.  The kinds share the representation but never mix in `Element`
arithmetic; rational elements embed into Laurent ones explicitly via
`with_laurent_scalars`.  A coefficient is a `Fraction` or a `Laurent` by
kind, never zero: `Element(...)` enforces it and refuses floats and bools,
arithmetic keeps it and builds its results with `Element._trusted`.  Maps
are defined on generators and extended: a derivation by the graded Leibniz
rule, an algebra map multiplicatively.  A map's kind comes from its
images: it is Laurent when some image is, and then it widens its argument;
otherwise it is rational, and a rational map or derivation keeps the kind
of its argument, multiplying each coefficient by the rational image of its
monomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from .errors import AmbientMismatchError, HomogeneityError, ScalarKindError
from .scalars import Laurent, exact_rational

RATIONAL = "rational"
LAURENT = "laurent"

# A monomial is a tuple of (generator id, exponent) pairs in canonical
# order; the empty tuple is the unit.
Monomial = tuple[tuple[int, int], ...]
UNIT: Monomial = ()


class Generator(NamedTuple):
    gid: int
    name: str
    degree: int


class FreeGCA:
    """Ambient free graded-commutative algebra on an ordered generator list.

    Generator ids are their positions in the defining list; the canonical
    order used for words is (degree, id).
    """

    def __init__(self, generators: Iterable[Generator]):
        gens = tuple(generators)
        for i, g in enumerate(gens):
            if g.gid != i:
                raise ValueError(f"generator {g.name!r} has id {g.gid}, expected {i}")
            # degree-1 generators are admitted here so that validation can
            # report the simple-connectivity violation instead of crashing
            if g.degree < 1:
                raise ValueError(f"generator {g.name!r} has degree {g.degree} < 1")
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        self.generators = gens
        self.by_name = {g.name: g for g in gens}
        self._order = sorted(range(len(gens)), key=lambda i: (gens[i].degree, i))
        self._rank = {gid: r for r, gid in enumerate(self._order)}

    # ---- monomials ----------------------------------------------------

    def degree_of(self, mono: Monomial) -> int:
        return sum(self.generators[g].degree * e for g, e in mono)

    def word_length(self, mono: Monomial) -> int:
        return sum(e for _, e in mono)

    def monomial_key(self, mono: Monomial) -> tuple:
        """Sort key of the canonical monomial order: factor by factor, in
        the (degree, id) generator order, then by exponent."""
        return tuple((self._rank[g], e) for g, e in mono)

    def monomial_name(self, mono: Monomial) -> str:
        if not mono:
            return "1"
        parts = []
        for g, e in mono:
            n = self.generators[g].name
            parts.append(n if e == 1 else f"{n}^{e}")
        return "*".join(parts)

    def normalize_word(self, word: Iterable[int]) -> tuple[int, Monomial] | None:
        """Sort a word of generator ids into canonical order.

        Returns (sign, monomial), or None when the word vanishes because an
        odd generator repeats.  The sign counts odd-odd transpositions.
        """
        items = list(word)
        sign = 1
        # insertion sort, counting crossings of odd factors
        for i in range(1, len(items)):
            j = i
            while j > 0 and self._rank[items[j - 1]] > self._rank[items[j]]:
                moved, other = items[j], items[j - 1]
                if self.generators[moved].degree % 2 and self.generators[other].degree % 2:
                    sign = -sign
                items[j - 1], items[j] = moved, other
                j -= 1
        factors: list[tuple[int, int]] = []
        for g in items:
            if factors and factors[-1][0] == g:
                if self.generators[g].degree % 2:
                    return None
                factors[-1] = (g, factors[-1][1] + 1)
            else:
                factors.append((g, 1))
        return sign, tuple(factors)

    def multiply_monomials(self, a: Monomial, b: Monomial) -> tuple[int, Monomial] | None:
        """Merge two canonical monomials; None when an odd square appears."""
        if not a:
            return 1, b
        if not b:
            return 1, a
        sign = 1
        out: list[tuple[int, int]] = []
        ia, ib = 0, 0
        # odd factors remaining in the suffix of a, for the crossing count
        odd_tail = [0] * (len(a) + 1)
        for i in range(len(a) - 1, -1, -1):
            g, e = a[i]
            odd_tail[i] = odd_tail[i + 1] + (e if self.generators[g].degree % 2 else 0)
        while ia < len(a) and ib < len(b):
            ga, ea = a[ia]
            gb, eb = b[ib]
            if self._rank[ga] < self._rank[gb]:
                out.append((ga, ea))
                ia += 1
            elif self._rank[ga] > self._rank[gb]:
                if self.generators[gb].degree % 2:
                    if eb > 1:
                        return None
                    if odd_tail[ia] % 2:
                        sign = -sign
                out.append((gb, eb))
                ib += 1
            else:
                if self.generators[ga].degree % 2:
                    return None
                out.append((ga, ea + eb))
                ia += 1
                ib += 1
        out.extend(a[ia:])
        out.extend(b[ib:])
        return sign, tuple(out)

    def monomial_basis(self, degree: int) -> list[Monomial]:
        """All canonical monomials of the given degree, in deterministic
        order (lexicographic in the canonical generator order)."""
        if degree < 0:
            return []
        if degree == 0:
            return [UNIT]
        order = self._order
        out: list[Monomial] = []
        # depth-first over (next generator position, degree left, prefix);
        # an explicit stack, so no closure refers to itself.  A node pops
        # its children with exponents 1, 2, ..., top and then the one that
        # skips the generator, which is the canonical order of their
        # monomials, so `out` needs no sort
        stack: list[tuple[int, int, Monomial]] = [(0, degree, UNIT)]
        while stack:
            pos, remaining, acc = stack.pop()
            if remaining == 0:
                out.append(acc)
                continue
            if pos == len(order):
                continue
            gid = order[pos]
            d = self.generators[gid].degree
            if d > remaining:
                # the order sorts by degree: every later generator is too big
                continue
            stack.append((pos + 1, remaining, acc))
            top = remaining // d
            if d % 2:
                top = min(top, 1)
            for e in range(top, 0, -1):
                stack.append((pos + 1, remaining - e * d, acc + ((gid, e),)))
        return out

    # ---- elements -----------------------------------------------------

    def zero(self, kind: str = RATIONAL) -> "Element":
        return Element(self, kind, {})

    def one(self, kind: str = RATIONAL) -> "Element":
        return Element(self, kind, {UNIT: _one_of(kind)})

    def gen(self, name_or_gid) -> "Element":
        g = self.by_name[name_or_gid] if isinstance(name_or_gid, str) else self.generators[name_or_gid]
        return Element(self, RATIONAL, {((g.gid, 1),): Fraction(1)})

    def element(self, terms: dict[Monomial, object], kind: str = RATIONAL) -> "Element":
        return Element(self, kind, dict(terms))

    def __eq__(self, other):
        return self is other or isinstance(other, FreeGCA) and self.generators == other.generators

    def __repr__(self):
        return "FreeGCA(" + ", ".join(f"{g.name}:{g.degree}" for g in self.generators) + ")"


def _one_of(kind: str):
    return Fraction(1) if kind == RATIONAL else Laurent.one()


def _zero_of(kind: str):
    return Fraction(0) if kind == RATIONAL else Laurent.zero()


def _reduced(algebra: FreeGCA, kind: str, pairs: dict[Monomial, list]) -> "Element":
    """The element with coefficient sum(a * b) over the pairs listed at each
    monomial, one reduction per monomial, in the dict's order; zeros dropped."""
    total = Laurent.sum_of_products if kind == LAURENT else _sum_of_products
    terms = {m: c for m, ab in pairs.items() if (c := total(ab))}
    return Element._trusted(algebra, kind, terms)


def _sum_of_products(pairs: list):
    (a, b), *rest = pairs
    return sum((x * y for x, y in rest), a * b)


def _integral(c):
    """An integral Fraction as an int; any other scalar as it is."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


class Element:
    """Element of a FreeGCA with scalars of a single kind."""

    __slots__ = ("algebra", "kind", "terms")

    def __init__(self, algebra: FreeGCA, kind: str, terms: dict[Monomial, object]):
        if kind not in (RATIONAL, LAURENT):
            raise ValueError(f"unknown scalar kind {kind!r}")
        clean = {}
        for m, c in terms.items():
            if kind == RATIONAL:
                if isinstance(c, Laurent):
                    raise ScalarKindError("Laurent scalar in rational element")
                c = exact_rational(c)
            else:
                if not isinstance(c, Laurent):
                    c = Laurent.from_rational(c)
            if c:
                clean[m] = c
        self.algebra = algebra
        self.kind = kind
        self.terms = clean

    @classmethod
    def _trusted(cls, algebra: FreeGCA, kind: str, terms: dict[Monomial, object]) -> "Element":
        """Wrap terms that already keep the class invariant."""
        out = object.__new__(cls)
        out.algebra, out.kind, out.terms = algebra, kind, terms
        return out

    # ---- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degs = {self.algebra.degree_of(m) for m in self.terms}
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return degree is None or degs.pop() == degree

    # ---- arithmetic ---------------------------------------------------

    def _check(self, other: "Element"):
        if self.algebra != other.algebra:
            raise AmbientMismatchError("elements from different ambient algebras")
        if self.kind != other.kind:
            raise ScalarKindError(f"cannot mix {self.kind} and {other.kind} elements")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            c = terms[m] + c if m in terms else c
            if c:
                terms[m] = c
            else:
                del terms[m]
        return Element._trusted(self.algebra, self.kind, terms)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element._trusted(self.algebra, self.kind, {m: -c for m, c in self.terms.items()})

    def scale(self, scalar) -> "Element":
        if self.kind == RATIONAL:
            if isinstance(scalar, Laurent):
                raise ScalarKindError("Laurent scalar on rational element")
            scalar = exact_rational(scalar)
        terms = {m: c * scalar for m, c in self.terms.items()}
        # no product of two nonzero scalars is zero, in either kind
        return Element._trusted(self.algebra, self.kind, terms if scalar else {})

    def __mul__(self, other: "Element") -> "Element":
        self._check(other)
        alg = self.algebra
        pairs: dict[Monomial, list] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                merged = alg.multiply_monomials(ma, mb)
                if merged is not None:
                    sign, m = merged
                    pairs.setdefault(m, []).append((-ca if sign < 0 else ca, cb))
        return _reduced(alg, self.kind, pairs)

    def power(self, n: int) -> "Element":
        if n < 0:
            raise ValueError("negative element power")
        out = self if n else self.algebra.one(self.kind)
        for _ in range(n - 1):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra == other.algebra and self.kind == other.kind and self.terms == other.terms

    def coefficient(self, mono: Monomial):
        return self.terms.get(mono, _zero_of(self.kind))

    def with_laurent_scalars(self) -> "Element":
        """Embed a rational element into the Laurent kind."""
        if self.kind == LAURENT:
            return self
        return Element(self.algebra, LAURENT, {m: Laurent.from_rational(c) for m, c in self.terms.items()})

    def eval_t(self, value: Fraction) -> "Element":
        """Substitute a rational for t in every coefficient, landing in the
        rational kind."""
        if self.kind == RATIONAL:
            return self
        terms = {}
        for m, c in self.terms.items():
            ev = c.eval_t(value)
            terms[m] = ev.as_rational()
        return Element(self.algebra, RATIONAL, terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            name = self.algebra.monomial_name(m)
            if isinstance(c, Laurent):
                text = str(c)
                coeff = text if c.term_count() <= 1 else f"({text})"
            else:
                coeff = str(c)
            if m == UNIT:
                parts.append(coeff)
            elif coeff == "1":
                parts.append(name)
            elif coeff == "-1":
                parts.append(f"-{name}")
            else:
                parts.append(f"{coeff}*{name}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


# ---- extensions -------------------------------------------------------


def _generator_images(
    algebra: FreeGCA, images: dict[int, Element], shift: int
) -> tuple[str, dict[int, Element]]:
    """Check that each image lies in the algebra and is homogeneous of its
    generator's degree plus shift; return the map's kind, Laurent when some
    image is Laurent and rational otherwise, with the images in that kind."""
    for gid, img in images.items():
        g = algebra.generators[gid]
        if img.algebra != algebra:
            raise AmbientMismatchError(f"image of {g.name} lives in a different algebra")
        if not img.is_homogeneous(g.degree + shift):
            raise HomogeneityError(
                f"image of {g.name} must be homogeneous of degree {g.degree + shift}"
            )
    if any(img.kind == LAURENT for img in images.values()):
        return LAURENT, {gid: img.with_laurent_scalars() for gid, img in images.items()}
    return RATIONAL, dict(images)


class LinearMap:
    """The linear map sending each monomial m to of_monomial(m), a cached dict
    of nonzero coefficients that callers only read.  A Laurent map widens its
    argument; a rational one keeps its kind."""

    __slots__ = ("algebra", "kind", "of_monomial")

    def __init__(self, algebra: FreeGCA, kind: str, of_monomial: Callable[[Monomial], dict]):
        self.algebra, self.kind, self.of_monomial = algebra, kind, of_monomial

    def __call__(self, x: Element) -> Element:
        if x.algebra != self.algebra:
            raise AmbientMismatchError("element from a different ambient algebra")
        if self.kind == LAURENT:
            x = x.with_laurent_scalars()
        pairs: dict[Monomial, list] = {}
        for m, c in x.terms.items():
            for mono, coeff in self.of_monomial(m).items():
                pairs.setdefault(mono, []).append((c, coeff))
        return _reduced(self.algebra, x.kind, pairs)


def extend_derivation(algebra: FreeGCA, images: dict[int, Element]) -> LinearMap:
    """Extend generator images to the degree +1 derivation d.

    `images` maps generator ids to homogeneous elements of degree
    deg(g) + 1; absent generators map to zero.  The extension obeys the
    graded Leibniz rule d(ab) = d(a) b + (-1)^{deg a} a d(b), applied once
    per factor of a word m = P g^e S: d(m) is the sum, over factors with
    d(g) != 0, of (-1)^{deg P} e P g^(e-1) d(g) S.  `of_monomial` caches
    each word's image as a coefficient dict, ints where integral.
    """
    kind, img_of = _generator_images(algebra, images, 1)
    degree = [g.degree for g in algebra.generators]
    d_gen = {g: [(m, _integral(c)) for m, c in x.terms.items()] for g, x in img_of.items() if x.terms}
    cache: dict[Monomial, dict] = {}

    def d_mono(mono: Monomial) -> dict:
        if mono in cache:
            return cache[mono]
        out: dict[Monomial, object] = {}
        before, after = 0, algebra.degree_of(mono)
        for i, (gid, e) in enumerate(mono):
            after -= degree[gid] * e
            if gid in d_gen:
                # P g^(e-1) d(g) S = (-1)^(deg d(g) deg S) (P g^(e-1) S) d(g)
                rest = mono[:i] + (((gid, e - 1),) if e > 1 else ()) + mono[i + 1:]
                scale = -e if (before + (degree[gid] + 1) * after) % 2 else e
                for t, c in d_gen[gid]:
                    if (merged := algebra.multiply_monomials(rest, t)) is not None:
                        sign, m = merged
                        out[m] = out.get(m, 0) + sign * scale * c
            before += degree[gid] * e
        cache[mono] = out = {m: c for m, c in out.items() if c}
        return out

    return LinearMap(algebra, kind, d_mono)


def extend_algebra_map(algebra: FreeGCA, images: dict[int, Element]) -> LinearMap:
    """Extend generator images to the degree-0 algebra map.

    `images` maps generator ids to homogeneous elements of the same degree
    in the same algebra.  Absent generators map to themselves, so partial
    assignments describe maps fixing the rest.
    """
    kind, img_of = _generator_images(algebra, images, 0)
    for g in algebra.generators:
        img_of.setdefault(g.gid, Element._trusted(algebra, kind, {((g.gid, 1),): _one_of(kind)}))
    # every prefix of every word asked for is cached, the generators at once
    cache: dict[Monomial, Element] = {UNIT: algebra.one(kind)}
    cache.update({((gid, 1),): img for gid, img in img_of.items()})

    def phi_mono(mono: Monomial) -> dict:
        hit = cache.get(mono)
        if hit is not None:
            return hit.terms
        # the word's prefixes with their last letters; the first is cached
        steps = [(mono[:i] + ((g, j),), g) for i, (g, e) in enumerate(mono) for j in range(1, e + 1)]
        k = len(steps) - 1
        while steps[k][0] not in cache:
            k -= 1
        out = cache[steps[k][0]]
        for prefix, gid in steps[k + 1:]:
            out = cache[prefix] = out * img_of[gid]
        return out.terms

    return LinearMap(algebra, kind, phi_mono)
