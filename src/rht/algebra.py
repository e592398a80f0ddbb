"""Free graded-commutative algebra over the rationals, graded by powers of t.

The ambient object is Lambda(V) on a finite list of generators, each with
an integer degree >= 2, so the algebra is simply connected.  Monomials are
words in canonical order: factors sorted by (degree, generator id), odd
generators with exponent exactly 1, even generators with any positive
exponent.  Reordering a word picks up the Koszul sign, minus one for every
transposition of two odd factors; a repeated odd generator kills the word.

Every coefficient is exact and nonzero: an `int` when integral, a
`Fraction` otherwise, as in `Laurent`.  `Element(...)` enforces it,
refusing floats, bools and keys that are no monomials; arithmetic keeps it
and builds its results with `Element._trusted`.  A family's images live in `FreeGCA.laurent`, the
monoid algebra Q[t, 1/t] (x) Lambda(V) of monomials (m, k) standing for
t^k m: t is a grading, not a second kind of scalar.  Maps are defined on
generators and extended: a derivation by the graded Leibniz rule, an
algebra map multiplicatively.  A map's images live in the base or its
`laurent`; on an element of `laurent` the map is t-linear.
"""

from __future__ import annotations

import weakref
from typing import Callable, Iterable, NamedTuple

from .errors import AmbientMismatchError, HomogeneityError
from .scalars import Laurent, exact_coefficient

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
        order = sorted(range(len(gens)), key=lambda i: (gens[i].degree, i))
        self._rank = {gid: r for r, gid in enumerate(order)}
        self._laurent = lambda: None
        # the enumeration of `monomial_basis`: the bases of degrees 0 .. len - 1,
        # and the frontier of the walk, each entry led by the degree at which it grows
        self._ranked = [(gid, gens[gid].degree) for gid in order]
        self._bases: list[list[Monomial]] = [[UNIT]]
        self._frontier = [(self._ranked[0][1], UNIT, 0, 0, 1, True)] if gens else []

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
        """Merge two canonical monomials, each odd generator's exponent 1 as
        `is_monomial` asks; None when an odd square appears."""
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
                if self.generators[gb].degree % 2 and odd_tail[ia] % 2:
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
        """All canonical monomials of the given degree, in canonical order
        (lexicographic in the canonical generator order): the cached list,
        which callers only read.  One pre-order walk per algebra makes every
        basis, resumed up to the largest degree asked so far (README,
        "Guarantees and limits")."""
        if degree < 0:
            return []
        if degree >= len(self._bases):
            self._walk(degree)
        return self._bases[degree]

    def _walk(self, top: int):
        """Walk on through every monomial of degree <= top.  A state (m, deg m,
        r, e, whole) is the interval of the walk made of the words m g_r^e' S,
        e' >= e and S in the ranks after r, then, when whole, the same for
        each later rank.  It waits, led by the degree of m g_r^e, when that
        word does not fit: whole when e = 1, as no later rank has a smaller
        degree, else cut to rank r alone, the walk going on from rank r + 1."""
        bases, ranked = self._bases, self._ranked
        bases += [[] for _ in range(top + 1 - len(bases))]
        frontier, self._frontier = self._frontier, []
        wait, last = self._frontier.append, len(ranked)
        for entry in frontier:
            if entry[0] > top:
                wait(entry)
                continue
            stack = [entry[1:]]
            while stack:
                mono, deg, r, e, whole = stack.pop()
                gid, d = ranked[r]
                grown = deg + e * d
                if grown > top:
                    wait((grown, mono, deg, r, e, e == 1))
                    if e > 1 and whole and r + 1 < last:
                        stack.append((mono, deg, r + 1, 1, True))
                    continue
                child = mono + ((gid, e),)
                bases[grown].append(child)
                if d % 2 == 0:
                    stack.append((mono, deg, r, e + 1, whole))
                elif whole and r + 1 < last:
                    stack.append((mono, deg, r + 1, 1, True))
                if r + 1 < last:
                    stack.append((child, grown, r + 1, 1, True))

    # ---- elements -----------------------------------------------------

    def zero(self) -> "Element":
        return Element._trusted(self, {})

    def one(self) -> "Element":
        return Element._trusted(self, {UNIT: 1})

    def gen(self, name_or_gid) -> "Element":
        g = self.by_name[name_or_gid] if isinstance(name_or_gid, str) else self.generators[name_or_gid]
        return Element._trusted(self, {((g.gid, 1),): 1})

    def is_monomial(self, key) -> bool:
        """Whether key is a canonical word: a tuple of (gid, exponent) pairs
        of ints by increasing rank, each exponent positive, an odd
        generator's 1."""
        if type(key) is not tuple or any(type(f) is not tuple or [*map(type, f)] != [int, int] for f in key):
            return False
        ranks = [self._rank.get(g, -1) for g, _ in key]
        return min(ranks, default=0) >= 0 and ranks == sorted(set(ranks)) and all(
            e == 1 or e > 1 and self.generators[g].degree % 2 == 0 for g, e in key)

    def element(self, terms: dict[Monomial, object]) -> "Element":
        return Element(self, dict(terms))

    # ---- the grading by t ---------------------------------------------

    base = property(lambda self: self)

    @property
    def laurent(self) -> "LaurentGCA":
        """Q[t, 1/t] (x) this algebra, held weakly here, so that no cycle forms."""
        if (laurent := self._laurent()) is None:
            self._laurent = weakref.ref(laurent := LaurentGCA(self))
        return laurent

    @staticmethod
    def shifted(mono: Monomial, k: int) -> tuple[Monomial, int]:
        """The monomial of `laurent` standing for t^k mono."""
        return mono, k

    @staticmethod
    def terms_of(mono: Monomial, scalar) -> tuple:
        """The terms of scalar * mono: none when the rational scalar is 0."""
        return ((mono, scalar),) if scalar else ()

    def __eq__(self, other):
        return self is other or isinstance(other, FreeGCA) and self.generators == other.generators

    def __repr__(self):
        return "FreeGCA(" + ", ".join(f"{g.name}:{g.degree}" for g in self.generators) + ")"


class LaurentGCA:
    """Q[t, 1/t] (x) Lambda(V), the `laurent` of a FreeGCA, its `base`.  A
    monomial is a pair (m, k) standing for t^k m, of the degree of m.  A
    product merges two words once, cached: t-elements meet the same pair
    of words once per pair of powers of t."""

    def __init__(self, base: FreeGCA):
        self.base, self.generators, self.by_name = base, base.generators, base.by_name
        self._merged: dict = {}

    laurent = property(lambda self: self)

    def degree_of(self, key: tuple[Monomial, int]) -> int:
        return self.base.degree_of(key[0])

    def multiply_monomials(self, a: tuple[Monomial, int], b: tuple[Monomial, int]):
        """(sign, (merged word, summed power)), or None when the words' product vanishes."""
        words = a[0], b[0]
        if words not in self._merged:
            self._merged[words] = self.base.multiply_monomials(*words)
        merged = self._merged[words]
        return merged and (merged[0], (merged[1], a[1] + b[1]))

    @staticmethod
    def shifted(key: tuple[Monomial, int], k: int) -> tuple[Monomial, int]:
        return key[0], key[1] + k

    def is_monomial(self, key) -> bool:
        return type(key) is tuple and len(key) == 2 and type(key[1]) is int and self.base.is_monomial(key[0])

    def zero(self) -> "Element":
        return Element._trusted(self, {})

    def one(self) -> "Element":
        return Element._trusted(self, {(UNIT, 0): 1})

    def gen(self, name_or_gid) -> "Element":
        return self.base.gen(name_or_gid).times_t(0)

    def terms_of(self, mono: Monomial, scalar: Laurent):
        """The terms of scalar * mono, one per power of t."""
        return [((mono, k), c) for k, c in scalar.items()]

    def __eq__(self, other):
        return self is other or isinstance(other, LaurentGCA) and self.base == other.base


def _reduced(algebra, acc: dict) -> "Element":
    """The element of the summed coefficients in acc, zeros dropped."""
    return Element._trusted(algebra, {m: exact_coefficient(c) for m, c in acc.items() if c})


class Element:
    """Element of a FreeGCA or of its `laurent`, as a dict monomial -> coefficient.
    The constructor refuses a key that is no monomial of the algebra."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms: dict):
        for m in terms:
            if not algebra.is_monomial(m):
                raise ValueError(f"{m!r} is not a monomial of {type(algebra).__name__}")
        self.algebra = algebra
        self.terms = {m: c for m, v in terms.items() if (c := exact_coefficient(v))}

    @classmethod
    def _trusted(cls, algebra, terms: dict) -> "Element":
        """Wrap terms that already keep the class invariant."""
        out = object.__new__(cls)
        out.algebra, out.terms = algebra, terms
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

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            c = exact_coefficient(terms[m] + c) if m in terms else c
            if c:
                terms[m] = c
            else:
                del terms[m]
        return Element._trusted(self.algebra, terms)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element._trusted(self.algebra, {m: -c for m, c in self.terms.items()})

    def scale(self, scalar) -> "Element":
        scalar = exact_coefficient(scalar)
        # no product of two nonzero rationals is zero
        terms = {m: exact_coefficient(c * scalar) for m, c in self.terms.items()} if scalar else {}
        return Element._trusted(self.algebra, terms)

    def __mul__(self, other: "Element") -> "Element":
        self._check(other)
        merge = self.algebra.multiply_monomials
        acc: dict = {}
        get = acc.get
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                merged = merge(ma, mb)
                if merged is not None:
                    sign, m = merged
                    acc[m] = get(m, 0) + (ca * cb if sign > 0 else -ca * cb)
        return _reduced(self.algebra, acc)

    def power(self, n: int) -> "Element":
        if n < 0:
            raise ValueError("negative element power")
        out = self if n else self.algebra.one()
        for _ in range(n - 1):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    def coefficient(self, mono: Monomial):
        return self.terms.get(mono, 0)

    # ---- powers of t --------------------------------------------------

    def times_t(self, k: int) -> "Element":
        """t^k times this element, in the `laurent` algebra."""
        shifted = self.algebra.shifted
        return Element._trusted(self.algebra.laurent, {shifted(m, k): c for m, c in self.terms.items()})

    def _t_terms(self):
        """The terms keyed (m, k) as in `laurent`: a t-element's own, a base element's at k = 0."""
        if isinstance(self.algebra, LaurentGCA):
            return self.terms.items()
        return (((m, 0), c) for m, c in self.terms.items())

    def t_components(self) -> dict[int, "Element"]:
        """The elements P_k of the base algebra with self = sum of t^k P_k,
        by increasing k; an element of the base algebra is its own P_0."""
        parts: dict[int, dict] = {}
        for (m, k), c in self._t_terms():
            parts.setdefault(k, {})[m] = c
        return {k: Element._trusted(self.algebra.base, terms) for k, terms in sorted(parts.items())}

    def by_monomial(self) -> dict[Monomial, Laurent]:
        """Each base monomial with its coefficient, the Laurent polynomial of its powers of t."""
        groups: dict[Monomial, dict] = {}
        for (m, k), c in self._t_terms():
            groups.setdefault(m, {})[k] = c
        return {m: Laurent._trusted(cs) for m, cs in groups.items()}

    def eval_t(self, value) -> "Element":
        """Substitute a rational for t, landing in the base algebra."""
        coeffs = self.by_monomial()
        return Element(self.algebra.base, {m: c.eval_t(value).as_rational() for m, c in coeffs.items()})

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        # the monomials are distinct, so the sort never compares coefficients
        for m, c in sorted(self.by_monomial().items()):
            name = self.algebra.base.monomial_name(m)
            coeff = str(c) if c.term_count() == 1 else f"({c})"
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


def _generator_images(algebra, images: dict[int, Element], shift: int) -> dict[int, Element]:
    """Check that each image lies in the algebra and is homogeneous of its
    generator's degree plus shift; return the images."""
    for gid, img in images.items():
        g = algebra.generators[gid]
        if img.algebra != algebra:
            raise AmbientMismatchError(f"image of {g.name} lives in a different algebra")
        if not img.is_homogeneous(g.degree + shift):
            raise HomogeneityError(
                f"image of {g.name} must be homogeneous of degree {g.degree + shift}"
            )
    return dict(images)


class LinearMap:
    """The linear map sending each monomial m of the base algebra to
    of_monomial(m), a cached dict of nonzero terms of `algebra`, the base or
    its `laurent`, that callers only read.  It applies t-linearly to
    elements of `algebra.laurent`."""

    __slots__ = ("algebra", "of_monomial")

    def __init__(self, algebra, of_monomial: Callable[[Monomial], dict]):
        self.algebra, self.of_monomial = algebra, of_monomial

    def __call__(self, x: Element) -> Element:
        target, acc = self.algebra, {}
        get = acc.get
        if x.algebra == target.base:
            for m, c in x.terms.items():
                for key, coeff in self.of_monomial(m).items():
                    acc[key] = get(key, 0) + c * coeff
            return _reduced(target, acc)
        if x.algebra != target.laurent:
            raise AmbientMismatchError("element from a different ambient algebra")
        shifted = target.shifted
        for (m, k), c in x.terms.items():
            for key, coeff in self.of_monomial(m).items():
                key = shifted(key, k)
                acc[key] = get(key, 0) + c * coeff
        return _reduced(target.laurent, acc)


def extend_derivation(algebra: FreeGCA, images: dict[int, Element]) -> LinearMap:
    """Extend generator images to the degree +1 derivation d.

    `images` maps generator ids to homogeneous elements of degree
    deg(g) + 1; absent generators map to zero.  The extension obeys the
    graded Leibniz rule d(ab) = d(a) b + (-1)^{deg a} a d(b), applied once
    per factor of a word m = P g^e S: d(m) is the sum, over factors with
    d(g) != 0, of (-1)^{deg P} e P g^(e-1) d(g) S.  `of_monomial` caches
    each word's image as a coefficient dict.
    """
    img_of = _generator_images(algebra, images, 1)
    degree = [g.degree for g in algebra.generators]
    d_gen = {g: list(x.terms.items()) for g, x in img_of.items() if x.terms}
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
        cache[mono] = out = {m: exact_coefficient(c) for m, c in out.items() if c}
        return out

    return LinearMap(algebra, d_mono)


def extend_algebra_map(algebra, images: dict[int, Element]) -> LinearMap:
    """Extend generator images to the degree-0 algebra map.

    `images` maps generator ids to homogeneous elements of the same degree,
    all in `algebra`, a FreeGCA or its `laurent`.  Absent generators map to
    themselves, so partial assignments describe maps fixing the rest.
    """
    img_of = _generator_images(algebra, images, 0)
    for g in algebra.generators:
        img_of.setdefault(g.gid, algebra.gen(g.gid))
    # every prefix of every word asked for is cached, the generators at once
    cache: dict[Monomial, Element] = {UNIT: algebra.one()}
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

    return LinearMap(algebra, phi_mono)
