"""Independent reference implementations used to cross-check the package.

Everything here is written from scratch against the mathematical
definitions, on purpose: dense lists instead of sparse dicts, explicit
transposition counting instead of the package's normalization, recursive
enumeration instead of cached bases.  Slow is fine; agreeing is the point.
"""

from __future__ import annotations

import random
from bisect import bisect
from fractions import Fraction
from math import gcd

# A word is a sorted tuple of generator ids, repetition allowed.
# degrees[g] is the degree of generator g.


def sort_word(word, degrees):
    """Sort a word ascending, tracking the Koszul sign transposition by
    transposition.  Returns (sign, tuple); sign 0 when an odd generator
    repeats."""
    w = list(word)
    sign = 1
    # bubble sort so each adjacent swap contributes its own sign
    for i in range(len(w)):
        for j in range(len(w) - 1 - i):
            if w[j] > w[j + 1]:
                if degrees[w[j]] % 2 == 1 and degrees[w[j + 1]] % 2 == 1:
                    sign = -sign
                w[j], w[j + 1] = w[j + 1], w[j]
    for a, b in zip(w, w[1:]):
        if a == b and degrees[a] % 2 == 1:
            return 0, ()
    return sign, tuple(w)


def word_degree(word, degrees):
    return sum(degrees[g] for g in word)


def multiply_words(w1, w2, degrees):
    return sort_word(tuple(w1) + tuple(w2), degrees)


def enumerate_words(degrees, n):
    """All sorted words of total degree n, by explicit recursion over the
    generator list."""
    gids = sorted(degrees)

    def rec(i, remaining):
        if remaining == 0:
            yield ()
            return
        if i >= len(gids):
            return
        g = gids[i]
        d = degrees[g]
        cap = 1 if d % 2 == 1 else remaining // d
        for e in range(cap + 1):
            if e * d > remaining:
                break
            for tail in rec(i + 1, remaining - e * d):
                yield (g,) * e + tail

    out = sorted(rec(0, n))
    return out


def canonical_monomial(word, degrees):
    """(sign, monomial) of a word sorted by id, rewritten in the package's
    canonical (degree, id) order: the monomial is a tuple of (id, exponent)
    pairs, and the sign counts the odd pairs that the reordering swaps."""
    key = lambda g: (degrees[g], g)
    sign = 1
    for i, a in enumerate(word):
        for b in word[i + 1 :]:
            if key(b) < key(a) and degrees[a] % 2 == 1 and degrees[b] % 2 == 1:
                sign = -sign
    return sign, tuple((g, word.count(g)) for g in sorted(set(word), key=key))


def apply_d_word(word, degrees, d_images):
    """Leibniz expansion of d on a single word.

    d_images[g] is a dict {word: Fraction} for the differential of g
    (empty when closed).  Returns a dict {word: Fraction}.
    """
    result: dict = {}
    for pos in range(len(word)):
        g = word[pos]
        prefix = word[:pos]
        suffix = word[pos + 1 :]
        pref_deg = word_degree(prefix, degrees)
        lead = -1 if pref_deg % 2 == 1 else 1
        for dw, coeff in d_images.get(g, {}).items():
            s, merged = sort_word(prefix + tuple(dw) + suffix, degrees)
            if s == 0:
                continue
            c = Fraction(lead * s) * coeff
            result[merged] = result.get(merged, Fraction(0)) + c
            if result[merged] == 0:
                del result[merged]
    return result


def gaussian_rank(rows):
    """Row rank of a dense list-of-lists matrix over Fraction."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [v / pv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def presentation_data(p):
    """Extract (degrees, d_images) in oracle form from a package
    presentation, translating sparse Elements into plain word dicts.  A
    monomial in (degree, id) order is its id-sorted word times the sign
    of the reordering."""
    degrees = {g.gid: g.degree for g in p.generators}
    d_images = {}
    for g in p.generators:
        img = p.d_of(g.gid)
        word_map = {}
        for mono, coeff in img.terms.items():
            flat = tuple(sorted(h for h, e in mono for _ in range(e)))
            sign = canonical_monomial(flat, degrees)[0]
            word_map[flat] = word_map.get(flat, Fraction(0)) + sign * Fraction(coeff)
        d_images[g.gid] = {w: c for w, c in word_map.items() if c != 0}
    return degrees, d_images


def naive_betti(p, n):
    """dim H^n by dense elimination: kernel of d_n minus image of d_{n-1}."""
    degrees, d_images = presentation_data(p)

    def d_matrix(k):
        src = enumerate_words(degrees, k)
        dst = enumerate_words(degrees, k + 1)
        idx = {w: i for i, w in enumerate(dst)}
        cols = []
        for w in src:
            vec = [Fraction(0)] * len(dst)
            for out, c in apply_d_word(w, degrees, d_images).items():
                vec[idx[out]] += c
            cols.append(vec)
        return cols, len(dst)

    cols_n, _ = d_matrix(n)
    dim_n = len(cols_n)
    rank_n = gaussian_rank(cols_n) if cols_n else 0
    if n == 0:
        rank_prev = 0
    else:
        cols_prev, _ = d_matrix(n - 1)
        rank_prev = gaussian_rank(cols_prev) if cols_prev else 0
    return (dim_n - rank_n) - rank_prev


def oracle_weight_betti(p, w, n):
    """dim H^n split by weight, one weight block at a time: for each weight
    k, dim C^(n,k) - rank d_n^k - rank d_(n-1)^k, where d_m^k is d on the
    degree-m words of weight k.  w maps generator names to weights and
    must make d weight-homogeneous, so each block's images stay in weight
    k.  Weights with no classes are left out."""
    degrees, d_images = presentation_data(p)
    weight_of = {g.gid: w[g.name] for g in p.generators}

    def blocks(m):
        """Per weight, the image vectors of the degree-m words of that weight."""
        index = {word: i for i, word in enumerate(enumerate_words(degrees, m + 1))}
        out = {}
        for word in enumerate_words(degrees, m):
            vec = [Fraction(0)] * len(index)
            for image, c in apply_d_word(word, degrees, d_images).items():
                vec[index[image]] += c
            out.setdefault(sum(weight_of[g] for g in word), []).append(vec)
        return out

    below = blocks(n - 1)
    dims = {
        k: len(vecs) - gaussian_rank(vecs) - gaussian_rank(below.get(k, []))
        for k, vecs in blocks(n).items()
    }
    return {k: dim for k, dim in sorted(dims.items()) if dim}


def monomial_count_series(generator_degrees, top):
    """Coefficients of the free graded-commutative Hilbert series through
    degree `top`: product of 1/(1-q^d) for even d and (1+q^d) for odd d."""
    series = [Fraction(0)] * (top + 1)
    series[0] = Fraction(1)
    for d in generator_degrees:
        if d % 2 == 0:
            # multiply by 1/(1-q^d): out[n] = sum over e of series[n - e*d]
            out = list(series)
            for n in range(d, top + 1):
                out[n] += out[n - d]
            series = out
        else:
            out = list(series)
            for n in range(top, d - 1, -1):
                out[n] += series[n - d]
            series = out
    return [int(c) for c in series]


def weight_rows(p):
    """Constraint rows as plain dicts: weight(monomial) - weight(source) = 0."""
    rows = []
    for g in p.generators:
        img = p.d_of(g.gid)
        for mono in img.terms:
            row = {}
            for h, e in mono:
                row[h] = row.get(h, 0) + e
            row[g.gid] = row.get(g.gid, 0) - 1
            rows.append({h: c for h, c in row.items() if c != 0})
    return rows


def brute_force_weights(p, box=12):
    """Search the integer box [1, box]^k for a weight vector satisfying
    every row exactly.  Depth-first with per-level pruning: a row is
    checked as soon as its last variable is assigned."""
    gids = sorted(g.gid for g in p.generators)
    level = {g: i for i, g in enumerate(gids)}
    rows = weight_rows(p)
    by_last = [[] for _ in gids]
    for row in rows:
        if not row:
            continue
        by_last[max(level[h] for h in row)].append(row)

    assignment = {}

    def rec(i):
        if i == len(gids):
            return dict(assignment)
        g = gids[i]
        for v in range(1, box + 1):
            assignment[g] = v
            if all(
                sum(c * assignment[h] for h, c in row.items()) == 0
                for row in by_last[i]
            ):
                found = rec(i + 1)
                if found is not None:
                    return found
        del assignment[g]
        return None

    found = rec(0)
    if found is None:
        return None
    return {p.generators[g].name: v for g, v in found.items()}


def random_presentation(rng: random.Random, max_generators=5):
    """A random valid truncated presentation.

    Construction: a few closed generators form a base; the rest map to
    random sign-weighted products of base generators, so d^2 = 0 holds
    for free and degree homogeneity is enforced by building each image
    inside a single degree.
    """
    from rht.algebra import FreeGCA, Generator
    from rht.model import SullivanPresentation

    k = rng.randint(1, max_generators)
    n_base = rng.randint(1, k)
    degrees = []
    for i in range(k):
        if i < n_base:
            degrees.append(rng.randint(2, 5))
        else:
            degrees.append(rng.randint(2, 7))
    gens = [Generator(i, f"g{i}", degrees[i]) for i in range(k)]
    alg = FreeGCA(gens)

    base = [g for g in gens[:n_base]]
    d_images = {}
    for g in gens[n_base:]:
        target = g.degree + 1
        words = [
            w
            for w in enumerate_words({b.gid: b.degree for b in base}, target)
            if len(w) >= 2
        ]
        if not words or rng.random() < 0.25:
            continue
        chosen = rng.sample(words, k=min(len(words), rng.randint(1, 2)))
        img = alg.zero()
        for w in chosen:
            coeff = Fraction(rng.choice([1, -1, 2]))
            s, m = alg.normalize_word(list(w))
            if s == 0:
                continue
            img = img + alg.element({m: coeff * s})
        if not img.is_zero():
            d_images[g.gid] = img
    n_trunc = max(degrees) + rng.randint(2, 4)
    return SullivanPresentation(
        f"random-{rng.randrange(10**6)}", gens, d_images, n_trunc, None
    )


def coboundary_presentation(rng: random.Random, max_generators=6):
    """A random valid truncated presentation whose images hit products of
    earlier generators, closed or not, so that coboundaries are common.

    Generators come in increasing degree; the first one or two are closed.
    Each later one maps to a random combination of one or two cocycles of
    its degree + 1 built from the generators before it: a product of
    closed generators, or d of a product that holds a non-closed one,
    which d^2 = 0 makes a cocycle.  So d^2 = 0 holds by construction and
    every image is decomposable.  A generator left without a candidate
    stays closed.
    """
    from rht.algebra import FreeGCA, Generator, extend_derivation
    from rht.model import SullivanPresentation

    k = rng.randint(3, max_generators)
    degrees = sorted(rng.randint(2, 5) for _ in range(k))
    gens = [Generator(i, f"g{i}", deg) for i, deg in enumerate(degrees)]
    alg = FreeGCA(gens)
    d_images = {}
    for g in gens[rng.randint(1, 2):]:
        earlier = {h.gid: h.degree for h in gens[: g.gid]}
        closed = {gid: deg for gid, deg in earlier.items() if gid not in d_images}
        d = extend_derivation(alg, d_images)
        candidates = []
        for w in enumerate_words(closed, g.degree + 1):
            if len(w) >= 2 and (word := alg.normalize_word(list(w))) is not None:
                candidates.append(alg.element({word[1]: word[0]}))
        for w in enumerate_words(earlier, g.degree):
            if any(x in d_images for x in w) and (word := alg.normalize_word(list(w))) is not None:
                if not (image := d(alg.element({word[1]: word[0]}))).is_zero():
                    candidates.append(image)
        img = alg.zero()
        for x in rng.sample(candidates, k=min(len(candidates), rng.randint(1, 2))):
            img = img + x.scale(Fraction(rng.choice([1, -1, 2])))
        if not img.is_zero():
            d_images[g.gid] = img
    return SullivanPresentation(
        f"coboundary-{rng.randrange(10**6)}", gens, d_images, max(degrees) + 4, None
    )


# -------------------------------------- pure models of homogeneous spaces
#
# Milnor-Stasheff, *Characteristic Classes*, section 14, and Borel (1953):
# each is a polynomial algebra on even generators with odd generators
# killing a regular sequence, so its cohomology, formal dimension D and
# weights are known in closed form.  Each is truncated at D + 2 and
# declares D.


def _pure_presentation(name, even, odd, relations, dim):
    """even and odd are (name, degree) lists; relations(alg, gens) gives the
    differential of each odd generator in order, from the algebra and the
    even generators' elements."""
    from rht.algebra import FreeGCA, Generator
    from rht.model import SullivanPresentation

    gens = [Generator(i, g, deg) for i, (g, deg) in enumerate(even + odd)]
    alg = FreeGCA(gens)
    images = relations(alg, [alg.gen(i) for i in range(len(even))])
    d = {len(even) + i: x for i, x in enumerate(images)}
    return SullivanPresentation(name, gens, d, dim + 2, dim)


def grassmannian_presentation(k, n):
    """Gr_k(C^n) for n >= 2k: c_i in degree 2i for i <= k, and y_j in degree
    2j - 1 for n - k < j <= n with d y_j the degree-2j part h_j of
    (1 + c_1 + ... + c_k)^-1, where h_0 = 1 and h_m = -sum_i c_i h_(m-i).
    D = 2k(n - k)."""
    def relations(alg, c):
        h = [alg.one()]
        for m in range(1, n + 1):
            h.append(-sum((c[i - 1] * h[m - i] for i in range(1, min(k, m) + 1)), alg.zero()))
        return h[n - k + 1:]

    even = [(f"c{i}", 2 * i) for i in range(1, k + 1)]
    odd = [(f"y{j}", 2 * j - 1) for j in range(n - k + 1, n + 1)]
    return _pure_presentation(f"gr{k}-{n}", even, odd, relations, 2 * k * (n - k))


def flag_presentation(n):
    """SU(n)/T: x_1 .. x_(n-1) in degree 2, x_n = -(x_1 + ... + x_(n-1)),
    and y_i in degree 2i - 1 for 2 <= i <= n with d y_i the elementary
    symmetric polynomial e_i(x_1, ..., x_n).  D = n(n - 1)."""
    def relations(alg, xs):
        e = [alg.one()] + [alg.zero()] * n
        for x in xs + [-sum(xs, alg.zero())]:
            e = [e[0]] + [e[m] + x * e[m - 1] for m in range(1, n + 1)]
        return e[2:]

    even = [(f"x{i}", 2) for i in range(1, n)]
    odd = [(f"y{i}", 2 * i - 1) for i in range(2, n + 1)]
    return _pure_presentation(f"flag-{n}", even, odd, relations, n * (n - 1))


# ----------------------------------------------- Fraction elimination reference
#
# The dense-`Fraction` elimination `rht.qlinalg` used before its integer
# core: RREF, kernel basis, quotient transform, echelon span and the
# Fourier-Motzkin positive-kernel search with greedy witnesses.  Matrices
# are dense lists of rows; every result is compared for exact equality.
# `greedy_witness` is the witness filter over the whole matrix that the
# integer core ran before it split the rows by incidence component.


def dense(row, ncols):
    """A sparse row {column: entry} written out as a tuple of length
    ncols, its entries as given and Fraction zeros filled in."""
    return tuple(row.get(j, Fraction(0)) for j in range(ncols))


def fraction_rref_rows(rows, ncols):
    """Reduced row echelon form of dense rows, in place; returns pivot columns."""
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def fraction_rref(rows, ncols):
    """(reduced rows, pivots) of a dense matrix, leaving the input alone."""
    return fraction_rref_rows([[Fraction(x) for x in row] for row in rows], ncols)


def fraction_kernel_basis(rows, ncols):
    """One kernel vector per free column: 1 there, minus the reduced column
    entries in the pivot slots."""
    reduced, pivots = fraction_rref(rows, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(tuple(v))
    return basis


def fraction_quotient_transform(columns, m):
    """(T, K) rows from the RREF of [columns | identity], or None when the
    columns are dependent."""
    p = len(columns)
    aug = [
        [Fraction(col[i]) for col in columns] + [Fraction(int(k == i)) for k in range(m)]
        for i in range(m)
    ]
    aug, pivots = fraction_rref_rows(aug, p + m)
    if tuple(pivots[:p]) != tuple(range(p)):
        return None
    return [tuple(r[p:]) for r in aug[:p]], [tuple(r[p:]) for r in aug[p:]]


class FractionEchelonSpan:
    """A span kept as the nonzero rows of its RREF, over Fraction."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    def add(self, v):
        r = [Fraction(x) for x in v]
        for row, p in zip(self.rows, self.pivots):
            f = r[p]
            if f:
                r = [a - f * b for a, b in zip(r, row)]
        c = next((j for j, x in enumerate(r) if x), None)
        if c is None:
            return False
        inv = 1 / r[c]
        r = [x * inv for x in r]
        for i, row in enumerate(self.rows):
            f = row[c]
            if f:
                self.rows[i] = [a - f * b for a, b in zip(row, r)]
        k = bisect(self.pivots, c)
        self.rows.insert(k, r)
        self.pivots.insert(k, c)
        return True


def _normalize_direction(coeffs):
    """Scale an inequality row by a positive rational to a canonical form."""
    nums = [abs(c.numerator) for c in coeffs if c]
    if not nums:
        return coeffs
    dens = [c.denominator for c in coeffs if c]
    g = gcd(*nums)
    l = 1
    for d in dens:
        l = l * d // gcd(l, d)
    scale = Fraction(l, g)
    return tuple(c * scale for c in coeffs)


def fraction_fourier_motzkin(rows, nvars):
    """A solution of {r . c > 0} by left-to-right elimination with duplicate
    directions dropped, or None when a combination collapses to 0 > 0."""
    system = [tuple(r) for r in rows]
    stages = []
    for var in range(nvars):
        seen = set()
        zero, lower, upper = [], [], []
        for r in system:
            key = _normalize_direction(r)
            if key in seen:
                continue
            seen.add(key)
            c = r[var]
            if c > 0:
                lower.append(r)
            elif c < 0:
                upper.append(r)
            else:
                zero.append(r)
        combined = list(zero)
        for p in lower:
            for n in upper:
                new = tuple(p[var] * nv + (-n[var]) * pv for pv, nv in zip(p, n))
                if not any(new):
                    return None
                combined.append(new)
        stages.append((var, lower, upper))
        system = combined
    if any(not any(r) for r in system):
        return None
    values = [Fraction(0)] * nvars

    def tail(r, var):
        return sum((r[j] * values[j] for j in range(var + 1, nvars)), Fraction(0))

    for var, lower, upper in reversed(stages):
        lo = [(-tail(r, var)) / r[var] for r in lower]
        hi = [(-tail(r, var)) / r[var] for r in upper]
        if lo and hi:
            values[var] = (max(lo) + min(hi)) / 2
        elif lo:
            values[var] = max(lo) + 1
        elif hi:
            values[var] = min(hi) - 1
        else:
            values[var] = Fraction(1)
    return values


def _fraction_positive_kernel_point(rows, ncols):
    basis = fraction_kernel_basis(rows, ncols)
    if ncols == 0:
        return []
    if not basis:
        return None
    coord_rows = [tuple(v[j] for v in basis) for j in range(ncols)]
    if any(not any(r) for r in coord_rows):
        return None
    combo = fraction_fourier_motzkin(coord_rows, len(basis))
    if combo is None:
        return None
    return [sum(v[j] * combo[k] for k, v in enumerate(basis)) for j in range(ncols)]


def fraction_positive_integer_kernel(rows, ncols):
    """(solution, witness) of the positive-kernel search: the coprime
    integer point of the elimination order, or the greedy minimal
    infeasible row subset."""
    point = _fraction_positive_kernel_point(rows, ncols)
    if point is not None:
        if not point:
            return (), None
        scale = 1
        for v in point:
            scale = scale * v.denominator // gcd(scale, v.denominator)
        ints = [int(v * scale) for v in point]
        g = gcd(*ints)
        return tuple(n // g for n in ints), None
    kept = list(range(len(rows)))
    for i in list(kept):
        trial = [j for j in kept if j != i]
        if _fraction_positive_kernel_point([rows[j] for j in trial], ncols) is None:
            kept = trial
    return None, tuple(kept)


def greedy_witness(m):
    """The whole-matrix greedy deletion filter on the integer core: each row
    in turn is deleted when the rows kept without it, over every column,
    still have no positive kernel point.  `m` is an infeasible
    `rht.qlinalg.QMatrix`; returns the kept row indices in ascending order.
    One solve of the whole remaining matrix per row, with no regard for
    which rows share a column."""
    from rht.qlinalg import QMatrix, _positive_kernel_point

    kept = list(range(m.rows))
    for i in list(kept):
        trial = [j for j in kept if j != i]
        if _positive_kernel_point(QMatrix.from_rows([dense(m._rows[j], m.cols) for j in trial], m.cols)) is None:
            kept = trial
    return tuple(kept)


# ------------------------------------------------ Fraction Laurent reference
#
# The all-`Fraction` Laurent arithmetic `rht.scalars` used before its
# integer coefficients and fused sums: every coefficient rebuilt with
# `Fraction(v)` and every partial sum its own object.  `terms` is a dict
# (t-power, s-power) -> nonzero Fraction; the second variable s serves the
# two-variable group-law reference below.


class FractionLaurent:
    def __init__(self, terms=None):
        self.terms = {k: Fraction(v) for k, v in (terms or {}).items() if Fraction(v)}

    def __eq__(self, other):
        return isinstance(other, FractionLaurent) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, Fraction(0)) + v
        return FractionLaurent(terms)

    def __neg__(self):
        return FractionLaurent({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        terms = {}
        for (pt1, ps1), c1 in self.terms.items():
            for (pt2, ps2), c2 in other.terms.items():
                k = (pt1 + pt2, ps1 + ps2)
                terms[k] = terms.get(k, Fraction(0)) + c1 * c2
        return FractionLaurent(terms)

    def __pow__(self, n):
        if n < 0:
            ((pt, ps), c), = self.terms.items()
            return FractionLaurent({(pt * n, ps * n): 1 / c ** (-n)})
        out = FractionLaurent({(0, 0): 1})
        for _ in range(n):
            out = out * self
        return out

    def _remap(self, key, scale=lambda pt: 1):
        terms = {}
        for (pt, ps), c in self.terms.items():
            k = key(pt, ps)
            terms[k] = terms.get(k, Fraction(0)) + c * scale(pt)
        return FractionLaurent(terms)

    def subs_t_with_s(self):
        return self._remap(lambda pt, ps: (0, pt + ps))

    def subs_t_with_st(self):
        return self._remap(lambda pt, ps: (pt, ps + pt))

    def eval_t(self, value):
        return self._remap(lambda pt, ps: (0, ps), lambda pt: Fraction(value) ** pt)


def fraction_mat_mul(a, b):
    """Square matrix product, one partial sum at a time."""
    n = len(a)
    out = [[FractionLaurent() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


def fraction_diagonalization_certificate(m):
    """(diagonalizable, eigenvalue powers, reason) of a square matrix of
    FractionLaurents: the trace names the candidate t^w with their
    multiplicities, and prod (M - t^w I) over the distinct w must vanish."""
    n = len(m)
    if n == 0:
        return True, {}, ""
    trace = FractionLaurent()
    for i in range(n):
        trace = trace + m[i][i]
    candidate = {}
    for (pt, _), c in sorted(trace.terms.items()):
        if c.denominator != 1 or c <= 0:
            return False, None, f"trace coefficient {c} at t^{pt} is not a positive integer"
        candidate[pt] = int(c)
    if sum(candidate.values()) != n:
        return False, None, f"trace accounts for {sum(candidate.values())} of {n} eigenvalues"
    product = None
    for w in sorted(candidate):
        shift = FractionLaurent({(w, 0): 1})
        factor = [[m[i][j] - shift if i == j else m[i][j] for j in range(n)] for i in range(n)]
        product = factor if product is None else fraction_mat_mul(product, factor)
    if any(c.terms for row in product for c in row):
        return False, None, "matrix is not annihilated by its candidate eigenvalues"
    return True, candidate, ""



# ------------------------------------------ plain-dict certificate reference
#
# A Laurent polynomial here is a plain dict t-power -> nonzero Fraction, and
# a matrix product visits every entry pair, zeros included.


def dict_mat_mul(a, b):
    """Dense square product of matrices of {power: Fraction} dicts."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = {}
            for k in range(n):
                for p1, c1 in a[i][k].items():
                    for p2, c2 in b[k][j].items():
                        acc[p1 + p2] = acc.get(p1 + p2, Fraction(0)) + c1 * c2
            row.append({p: c for p, c in acc.items() if c})
        out.append(row)
    return out


def dict_diagonalization_certificate(m):
    """(diagonalizable, eigenvalue powers, reason) of a square matrix of
    {power: Fraction} dicts, decided as `fraction_diagonalization_certificate`
    decides: the trace's coefficients are the candidate multiplicities, and
    prod (M - t^w I) over the distinct w must be the zero matrix."""
    n = len(m)
    if n == 0:
        return True, {}, ""
    trace = {}
    for i in range(n):
        for p, c in m[i][i].items():
            trace[p] = trace.get(p, Fraction(0)) + c
    candidate = {}
    for p, c in sorted(trace.items()):
        if not c:
            continue
        if c.denominator != 1 or c <= 0:
            return False, None, f"trace coefficient {c} at t^{p} is not a positive integer"
        candidate[p] = int(c)
    if sum(candidate.values()) != n:
        return False, None, f"trace accounts for {sum(candidate.values())} of {n} eigenvalues"
    product = None
    for w in sorted(candidate):
        factor = [[dict(m[i][j]) for j in range(n)] for i in range(n)]
        for i in range(n):
            factor[i][i][w] = factor[i][i].get(w, Fraction(0)) - 1
            factor[i][i] = {p: c for p, c in factor[i][i].items() if c}
        product = factor if product is None else dict_mat_mul(product, factor)
    if any(entry for row in product for entry in row):
        return False, None, "matrix is not annihilated by its candidate eigenvalues"
    return True, candidate, ""

# ------------------------------------------- two-variable group-law reference
#
# The group-law check `rht.families` made before it compared t-coefficients:
# compose the family at s with the family at t and compare with the family
# at s*t, word by word.  An element here is a dict word -> FractionLaurent.


def element_words(x, degrees):
    """A package element with Laurent coefficients as a dict word ->
    FractionLaurent.  Each monomial is expanded into its factors in the
    package's order and sorted into an oracle word with its Koszul sign;
    each coefficient is read through its sorted (t-power, value) items."""
    out = {}
    for mono, c in x.terms.items():
        sign, word = sort_word([g for g, e in mono for _ in range(e)], degrees)
        value = FractionLaurent({(k, 0): sign * Fraction(v) for k, v in c.items()})
        out[word] = out.get(word, FractionLaurent()) + value
    return {w: c for w, c in out.items() if c.terms}


def word_algebra_map(images, degrees):
    """The algebra map sending generator g to images[g]: a word, the
    product of its letters in order, goes to the product of their images."""

    def apply(x):
        out = {}
        for word, c in x.items():
            acc = {(): c}
            for g in word:
                step = {}
                for w1, c1 in acc.items():
                    for w2, c2 in images[g].items():
                        sign, w = multiply_words(w1, w2, degrees)
                        if sign:
                            term = c1 * c2 * FractionLaurent({(0, 0): sign})
                            step[w] = step.get(w, FractionLaurent()) + term
                acc = step
            for w, v in acc.items():
                out[w] = out.get(w, FractionLaurent()) + v
        return {w: v for w, v in out.items() if v.terms}

    return apply


def oracle_group_law(p, images):
    """Names of the generators g, in presentation order, where (family at
    s)((family at t)(g)) differs from (family at s*t)(g).  `images` maps
    generator ids to the family's images, elements with Laurent
    coefficients in t."""
    degrees = {g.gid: g.degree for g in p.generators}
    at_t = {gid: element_words(img, degrees) for gid, img in images.items()}
    at_s = {
        gid: {w: c.subs_t_with_s() for w, c in words.items()} for gid, words in at_t.items()
    }
    apply_s = word_algebra_map(at_s, degrees)
    return [
        g.name
        for g in p.generators
        if apply_s(at_t[g.gid]) != {w: c.subs_t_with_st() for w, c in at_t[g.gid].items()}
    ]
