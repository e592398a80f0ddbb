"""Cohomology of truncated presentations and induced family actions.

Everything is exact.  Each degree n gets its monomial basis, the matrix
d_n of the differential into degree n + 1, and its default reader
(reps, T) from one elimination, `quotient_basis` (`quotient_data`, on first
use): the representatives are rational cocycles whose classes form a
basis of H^n, and T has one row per representative and reads a cocycle's
class coordinates.  Matrices are sparse; a representative or a T row is
the rational element whose coefficient at a monomial is its nonzero
entry there, and T is read against an element's terms (`_dot`).  A
caller's representatives get the reader C^-1 . T, where C holds their
default class coordinates (`quotient_for`).  Whether an element is a
cocycle is decided by the derivation alone: it is one exactly when d of
it is zero.  Reading elements with Laurent coefficients through T gives
induced actions without ever dividing in the Laurent ring.  Betti
numbers come from ranks, and a weight split groups the default
representatives.

Degrees at and above the truncation degree are unavailable, not zero:
asking for them raises DegreeRangeError.
"""

from __future__ import annotations

import sys
import types
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .algebra import Element, FreeGCA, LAURENT, LinearMap, RATIONAL
from .errors import DegreeRangeError, FamilyError, HomogeneityError, ScalarKindError, ToolkitError
from .model import SullivanPresentation
from .qlinalg import QMatrix, invert, quotient_basis, rank
from .scalars import Laurent
from .weights import WeightAssignment, check_weights

if TYPE_CHECKING:
    from .families import OneParameterFamily


class CochainComplex:
    """Per-degree bases and differential matrices of a free algebra with a
    derivation d, certified below a truncation degree.

    Degree n is certified only for n <= truncation_degree - 1; the
    accessor methods enforce that bound.  `complex_for` builds one from a
    presentation, the formal builder one per step from its partial model,
    each `grown` from the one before; holding no presentation, a complex
    cached on one forms no cycle.
    """

    def __init__(self, algebra: FreeGCA, d: LinearMap, truncation_degree: int):
        self.algebra = algebra
        self.truncation_degree = truncation_degree
        self.d = d
        self._basis: dict[int, list] = {}
        self._dmat: dict[int, QMatrix] = {}
        self._quotient: dict[int, tuple] = {}

    @property
    def certified_through(self) -> int:
        return self.truncation_degree - 1

    def check_degree(self, n: int):
        if n < 0:
            raise DegreeRangeError(f"degree {n} is negative")
        if n > self.certified_through:
            raise DegreeRangeError(
                f"degree {n} is not certified: truncation degree "
                f"{self.truncation_degree} only covers degrees "
                f"through {self.certified_through}"
            )

    def basis(self, n: int) -> list:
        if n not in self._basis:
            self._basis[n] = self.algebra.monomial_basis(n)
        return self._basis[n]

    def d_matrix(self, n: int) -> QMatrix:
        """Matrix of the differential from degree n to degree n + 1: column j
        is the derivation's cached image of basis monomial j, in sparse rows:
        ints where the differential's coefficients are integral, Fractions
        otherwise.  Degree -1 has an empty basis, so d_matrix(-1) has none."""
        if n in self._dmat:
            return self._dmat[n]
        src = self.basis(n)
        dst_index = {m: i for i, m in enumerate(self.basis(n + 1))}
        rows = [{} for _ in dst_index]
        for j, mono in enumerate(src):
            for m, c in self.d.of_monomial(mono).items():
                rows[dst_index[m]][j] = c
        mat = QMatrix.from_rows(rows, len(src))
        self._dmat[n] = mat
        return mat

    def grown(self, algebra: FreeGCA, d: LinearMap, n: int) -> "CochainComplex":
        """The complex of a larger algebra with basis(n), basis(n + 1) and
        d_matrix(n) filled from this one's, d_n's span not eliminated again.

        The added generators rank after the old ones and none has degree
        below n - 1, so d_n only gains zero columns for the added cocycles
        of degree n, appended last, and zero rows for the new monomials of
        degree n + 1; neither changes its RREF (README, "Guarantees and
        limits").  Raises AssertionError when a precondition fails."""
        old = self.algebra.generators
        added = algebra.generators[len(old):]
        if algebra.generators[: len(old)] != old:
            raise AssertionError("the old generators are not a prefix of the new ones")
        floor = max([2, n - 1] + [g.degree for g in old])
        if any(g.degree < floor for g in added) or any(g.degree < 2 for g in old):
            raise AssertionError(f"an added generator has degree below {floor}, or an old one degree 1")
        appended = [((g.gid, 1),) for g in added if g.degree == n]
        if any(d.of_monomial(m) for m in appended):
            raise AssertionError(f"an added generator of degree {n} is not a cocycle")
        cx = CochainComplex(algebra, d, self.truncation_degree)
        cx._basis[n] = self.basis(n) + appended
        at = {m: i for i, m in enumerate(cx.basis(n + 1))}
        row_at = [at[m] for m in self.basis(n + 1)]
        if any(a >= b for a, b in zip(row_at, row_at[1:])):
            raise AssertionError(f"the old basis of degree {n + 1} is not a sub-order of the new one")
        cx._dmat[n] = self.d_matrix(n).widened(row_at, len(at), len(cx._basis[n]))
        return cx

    def representatives(self, n: int) -> list[Element]:
        """Cocycles whose classes form a basis of H^n: `quotient_data`'s, copied."""
        return list(self.quotient_data(n)[0])

    def quotient_data(self, n: int):
        """The default reader (reps, T) of degree n, cached: the kernel vectors
        of d_n that `quotient_basis` picks, as rational cocycles, and rows
        with T . rep_j = e_j and T . b = 0 on every coboundary b, each the
        rational element of its nonzero Fraction entries, keyed by monomial."""
        self.check_degree(n)
        if n not in self._quotient:
            vectors, t_rows = quotient_basis(self.d_matrix(n - 1), self.d_matrix(n))
            if len(vectors) != self.betti(n):
                raise AssertionError(f"{len(vectors)} classes picked, b_{n} = {self.betti(n)}")
            basis = self.basis(n)
            self._quotient[n] = tuple(
                [Element._trusted(self.algebra, RATIONAL, {basis[j]: c for j, c in v.items()}) for v in vs]
                for vs in (vectors, t_rows)
            )
        return self._quotient[n]

    def quotient_for(self, n: int, reps: list[Element]):
        """The reader (reps, T) of degree n on caller-chosen representatives.
        Raises ToolkitError unless they are rational cocycles of degree n
        whose classes form a basis of H^n.  The default reader gives their
        class coordinates, the columns of an h x h matrix C, and the reader
        is C^-1 . T: row i is the sum of s . T_j over row i of C^-1, which
        is column i of the inverse of C^T."""
        self.check_degree(n)
        reps = list(reps)
        for x in reps:
            if x.kind != RATIONAL:
                raise ScalarKindError(f"representative {x} is a Laurent element")
            if not x.is_homogeneous(n):
                raise HomogeneityError(f"representative {x} is not homogeneous of degree {n}")
            # a rational differential keeps a Laurent argument's kind, hence
            # the kind check above; foreign elements it refuses itself
            if not (dx := self.d(x)).is_zero():
                raise ToolkitError(f"representative {x} is not a cocycle: d of it is {dx}")
        if len(reps) != self.betti(n):
            raise ToolkitError(
                f"{len(reps)} representatives supplied for a quotient of dimension {self.betti(n)}"
            )
        t_rows = self.quotient_data(n)[1]
        inverse = invert(QMatrix.from_rows([[_dot(row, x) for row in t_rows] for x in reps], len(reps)))
        if inverse is None:
            raise ToolkitError("supplied representatives do not project to a basis of the quotient")
        zero = self.algebra.zero()
        return reps, [sum((t_rows[k].scale(s) for k, s in s_row.items()), zero) for s_row in inverse]

    def betti(self, n: int) -> int:
        """dim H^n = dim C^n - rank d_n - rank d_(n-1)."""
        self.check_degree(n)
        return len(self.basis(n)) - rank(self.d_matrix(n)) - rank(self.d_matrix(n - 1))

    def weight_classes(self, n: int, w: WeightAssignment) -> dict[int, list[Element]]:
        """The `representatives` of degree n grouped by weight, in increasing
        weight order; only weights with classes appear.

        Precondition: w makes the differential weight-homogeneous, as
        `weight_decomposition` checks with `check_weights` and the formal
        builder's weights are by construction.  Then every representative
        is weight-homogeneous (README, "Guarantees and limits"); one that is
        not shows a broken precondition and raises HomogeneityError.
        """
        classes: dict[int, list[Element]] = {}
        for x in self.representatives(n):
            weights = sorted({w.monomial_weight(self.algebra, m) for m in x.terms})
            if len(weights) > 1:
                raise HomogeneityError(f"representative {x} of degree {n} has weights {weights}")
            classes.setdefault(weights[0], []).append(x)
        return dict(sorted(classes.items()))

    def class_coordinates(self, x: Element, n: int) -> list:
        """Coordinates of a degree-n cocycle's class in the representative
        basis.  Raises ToolkitError unless d of the element is zero; an
        element of another algebra is refused by d itself.
        """
        if not x.is_homogeneous(n):
            raise HomogeneityError(f"element is not homogeneous of degree {n}")
        return self._coordinates(
            self.quotient_data(n)[1], x, f"element of degree {n} is not a certified cocycle"
        )

    def _coordinates(self, t_rows: list[Element], x: Element, error: str) -> list:
        """Class coordinates of an element, one per row of a reader's T;
        raises ToolkitError with the given message unless d of the element
        is zero, that is, unless it is a cocycle."""
        if not self.d(x).is_zero():
            raise ToolkitError(error)
        return [_dot(row, x) for row in t_rows]


def _dot(row: Element, x: Element):
    """The sum of row[m] . x[m] over the monomials m of the T row that x also
    has, a scalar of x's kind."""
    pairs = [(c, x.terms[m]) for m, c in row.terms.items() if m in x.terms]
    if x.kind == LAURENT:
        return Laurent.sum_of_products(pairs)
    return sum((v * c for c, v in pairs), Fraction(0))


_CACHE_ATTR = "_cochain_complex_cache"


def complex_for(p: SullivanPresentation) -> CochainComplex:
    cached = getattr(p, _CACHE_ATTR, None)
    if cached is None:
        cached = CochainComplex(p.algebra, p.d, p.truncation_degree)
        setattr(p, _CACHE_ATTR, cached)
    return cached


class CohomologyReport(NamedTuple):
    presentation_name: str
    max_degree: int
    betti: dict[int, int]

    def betti_list(self) -> list[int]:
        return [self.betti[n] for n in range(self.max_degree + 1)]


def cohomology(p: SullivanPresentation, max_degree: int | None = None) -> CohomologyReport:
    """Betti numbers through max_degree, each read from two ranks.

    The default and the largest allowed max_degree is one below the
    truncation degree; beyond that the answer would depend on truncated
    data, so the request is refused rather than padded with zeros.
    """
    cx = complex_for(p)
    if max_degree is None:
        max_degree = cx.certified_through
    cx.check_degree(max_degree)
    return CohomologyReport(
        presentation_name=p.name,
        max_degree=max_degree,
        betti={n: cx.betti(n) for n in range(max_degree + 1)},
    )


class WeightDecompositionReport(NamedTuple):
    presentation_name: str
    max_degree: int
    dimensions: dict[int, dict[int, int]]
    representatives: dict[int, dict[int, list[Element]]]


def weight_decomposition(
    p: SullivanPresentation, w: WeightAssignment, max_degree: int | None = None
) -> WeightDecompositionReport:
    """Split each cohomology group by the weight of its representatives.

    The assignment must make the differential weight-homogeneous, which
    `check_weights` checks first.  Then `weight_classes` groups each degree's
    default representatives by weight, so the dimensions sum to its Betti number.
    """
    problems = check_weights(p, w)
    if problems:
        raise HomogeneityError(
            "assignment does not make the differential weight-homogeneous: "
            + "; ".join(str(v) for v in problems)
        )
    cx = complex_for(p)
    if max_degree is None:
        max_degree = cx.certified_through
    cx.check_degree(max_degree)
    reps = {n: cx.weight_classes(n, w) for n in range(max_degree + 1)}
    dims = {n: {weight: len(xs) for weight, xs in by_w.items()} for n, by_w in reps.items()}
    return WeightDecompositionReport(
        presentation_name=p.name,
        max_degree=max_degree,
        dimensions=dims,
        representatives=reps,
    )


class ActionReport(NamedTuple):
    """Matrix of an induced map on (co)homology in a representative basis.

    Columns hold images: the matrix of a composition is the product of
    the matrices in the same order.
    """

    presentation_name: str
    degree: int
    variance: str
    basis: list[Element]
    matrix: list[list[Laurent]]

    def dimension(self) -> int:
        return len(self.basis)

    def to_json_dict(self) -> dict:
        return {
            "name": self.presentation_name,
            "degree": self.degree,
            "variance": self.variance,
            "basis": [str(x) for x in self.basis],
            "matrix": [[str(c) for c in row] for row in self.matrix],
        }


def induced_action(
    p: SullivanPresentation,
    fam: OneParameterFamily,
    n: int,
    representatives: list[Element] | None = None,
) -> ActionReport:
    """Matrix of the family's action on degree-n cohomology.

    The family is verified first; a family that fails its laws has no
    well-defined action and the call raises FamilyError.  A custom
    representative basis (for instance a weight-homogeneous one) may be
    supplied: rational cocycles of degree n whose classes form a basis of
    the quotient.  `CochainComplex.quotient_for` refuses anything else.
    """
    if fam.presentation != p:
        raise FamilyError("family belongs to a different presentation")
    # the family keeps its action on the default representatives, not
    # others, and only once it has passed verification
    if representatives is None and n in fam._actions:
        reps, columns = fam._actions[n]
    else:
        # imported here, so that callers who never act load no family layer
        from .families import verify_family

        problems = verify_family(fam)
        if problems:
            raise FamilyError(
                "family fails verification: " + "; ".join(str(v) for v in problems)
            )
        cx = complex_for(p)
        if representatives is None:
            reps, t_rows = cx.quotient_data(n)
        else:
            reps, t_rows = cx.quotient_for(n, representatives)
        columns = [
            cx._coordinates(
                t_rows,
                fam.apply(rep.with_laurent_scalars()),
                f"image in degree {n} is not a certified cocycle",
            )
            for rep in reps
        ]
        if representatives is None:
            fam._actions[n] = reps, columns
    return ActionReport(
        presentation_name=p.name,
        degree=n,
        variance="cohomology",
        basis=list(reps),
        matrix=[list(row) for row in zip(*columns)],
    )


def homology_action(
    p: SullivanPresentation, fam: OneParameterFamily, n: int
) -> ActionReport:
    """Transpose of the degree-n cohomology action: the induced map on
    the dual space, in the dual basis of the same representatives."""
    action = induced_action(p, fam, n)
    dim = action.dimension()
    return ActionReport(
        presentation_name=action.presentation_name,
        degree=action.degree,
        variance="homology",
        basis=list(action.basis),
        matrix=[[action.matrix[j][i] for j in range(dim)] for i in range(dim)],
    )


# ---- diagonalizability certificate -----------------------------------


class DiagonalizationCertificate(NamedTuple):
    diagonalizable: bool
    eigenvalue_powers: dict[int, int] | None
    reason: str = ""

    def to_json_dict(self) -> dict:
        doc: dict = {"diagonalizable": self.diagonalizable}
        if self.eigenvalue_powers is not None:
            doc["eigenvalue_powers"] = {
                str(w): m for w, m in sorted(self.eigenvalue_powers.items())
            }
        if self.reason:
            doc["reason"] = self.reason
        return doc


def _mat_mul(a: list[list[Laurent]], b: list[list[Laurent]]) -> list[list[Laurent]]:
    # each column's nonzero entries, read once; a zero entry of a row is skipped
    columns = [[(k, c) for k, c in enumerate(col) if c] for col in zip(*b)]
    return [[Laurent.sum_of_products((row[k], c) for k, c in col if row[k]) for col in columns] for row in a]


def _mat_minus_scalar(m: list[list[Laurent]], c: Laurent) -> list[list[Laurent]]:
    n = len(m)
    return [
        [m[i][j] - c if i == j else m[i][j] for j in range(n)] for i in range(n)
    ]


def _trace(m: list[list[Laurent]]) -> Laurent:
    return Laurent.sum_of_products((row[i], 1) for i, row in enumerate(m))


def diagonalization_certificate(action: ActionReport) -> DiagonalizationCertificate:
    """Decide whether the action matrix is conjugate to a diagonal matrix
    with entries t^w, and with which exponent multiset.

    The candidate multiset comes from the trace; the matrix must then be
    annihilated by the squarefree product of (M - t^w I) over distinct
    candidates.  Nothing more is needed: if tr M = sum m_w t^w and that
    product is 0, M is diagonalisable over Q(t) with eigenvalues among
    the t^w.  Distinct t^w are Q-linearly independent, so the trace fixes
    each multiplicity at m_w, and the characteristic polynomial is
    prod (X - t^w)^(m_w).
    """
    m = action.matrix
    n = len(m)
    if n == 0:
        return DiagonalizationCertificate(True, {})
    tr = _trace(m)
    candidate: dict[int, int] = {}
    total = 0
    for pt, coeff in tr.items():
        if coeff.denominator != 1 or coeff <= 0:
            return DiagonalizationCertificate(
                False, None, f"trace coefficient {coeff} at t^{pt} is not a positive integer"
            )
        candidate[pt] = int(coeff)
        total += int(coeff)
    if total != n:
        return DiagonalizationCertificate(
            False, None, f"trace accounts for {total} of {n} eigenvalues"
        )
    product = None
    for w in sorted(candidate):
        factor = _mat_minus_scalar(m, Laurent.t(w))
        product = factor if product is None else _mat_mul(product, factor)
    if any(any(c for c in row) for row in product):
        return DiagonalizationCertificate(
            False, None, "matrix is not annihilated by its candidate eigenvalues"
        )
    return DiagonalizationCertificate(True, candidate)


# ---- flexibility ------------------------------------------------------


class FlexibilityReport(NamedTuple):
    presentation_name: str
    formal_dimension: int
    top_weight: int
    action_entry: Laurent

    def to_json_dict(self) -> dict:
        return {
            "name": self.presentation_name,
            "formal_dimension": self.formal_dimension,
            "top_weight": self.top_weight,
            "action_entry": str(self.action_entry),
        }


def checked_formal_dimension(p: SullivanPresentation) -> int:
    """The declared formal dimension D, once the certified cohomology
    agrees that H^D is the top group: b_D = 1 and H^n = 0 for
    D < n <= N - 1.  Raises DegreeRangeError when no D is declared or D
    is not certified, and ToolkitError when the cohomology contradicts it.
    """
    d_top = p.formal_dimension
    if d_top is None:
        raise DegreeRangeError(
            f"presentation {p.name} declares no formal dimension"
        )
    cx = complex_for(p)
    cx.check_degree(d_top)
    b = cx.betti(d_top)
    if b != 1:
        raise ToolkitError(
            f"top cohomology of {p.name} has dimension {b}, not 1"
        )
    for n in range(d_top + 1, cx.truncation_degree):
        if b := cx.betti(n):
            raise ToolkitError(
                f"{p.name} declares formal dimension {d_top}, "
                f"but H^{n} has dimension {b}"
            )
    return d_top


def flexibility_report(
    p: SullivanPresentation, fam: OneParameterFamily
) -> FlexibilityReport:
    """Exponent of the family's action on the one-dimensional top group.

    Needs a declared formal dimension D that `checked_formal_dimension`
    accepts; the verified family then scales the one-dimensional H^D by a
    single power of t, and that power is the reported top weight.
    """
    d_top = checked_formal_dimension(p)
    act = induced_action(p, fam, d_top)
    entry = act.matrix[0][0]
    power = entry.monomial_t_power()
    if power is None:
        raise FamilyError(
            f"action on the top group is {entry}, not a single power of t"
        )
    return FlexibilityReport(
        presentation_name=p.name,
        formal_dimension=d_top,
        top_weight=power,
        action_entry=entry,
    )


class _CallableModule(types.ModuleType):
    """`rht.cohomology` is this module and also names its `cohomology`
    function: calling the module calls the function, so the package name
    works as either in any import order."""

    def __call__(self, *args, **kwargs) -> CohomologyReport:
        return cohomology(*args, **kwargs)


sys.modules[__name__].__class__ = _CallableModule
