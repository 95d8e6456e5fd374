"""Newton polyhedra, exact facet enumeration, integral closures.

The Newton polyhedron of a monomial ideal is the convex hull of its
exponent vectors plus the nonnegative orthant. Its facet inequalities
are computed exactly: homogenize the generators into a cone one
dimension up, run incremental double description over rationals to get
the extreme rays of the dual cone, and read each dual ray back as a
facet. A dual ray (w, -h) with w nonzero dehomogenizes to the
inequality <w, x> >= h; rays with w = 0 are the horizon facet and are
dropped. Offsets h > 0 give the bounded facets, h = 0 the coordinate
facets (their normals must be standard basis vectors, which is checked
rather than assumed).

Integral closures of powers come straight from the facet description:
the closure of I^n is generated by the lattice points of the n-fold
dilate of the polyhedron, and the minimal such points are enumerated
column by column over a proven bounding box.

Everything is exact; no floating point anywhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import (
    BudgetExceededError,
    ConeGeometryError,
    DimensionMismatchError,
    InvalidIdealError,
    InvariantViolationError,
)
from .ideals import MonomialIdeal, Vector


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


# -------------------------------------------------------------------- #
# exact linear algebra


def _rank(rows: Sequence[Sequence[int]]) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    cols = len(m[0])
    rank = 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][c]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def _inverse_columns(matrix: Sequence[Sequence[int]]) -> List[Tuple[Fraction, ...]]:
    """Columns of the inverse of a square integer matrix, as exact
    rational vectors."""
    n = len(matrix)
    aug = [
        [Fraction(matrix[i][j]) for j in range(n)]
        + [Fraction(1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ConeGeometryError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [tuple(aug[i][n + j] for i in range(n)) for j in range(n)]


def _int_primitive(v: Sequence[int]) -> Vector:
    g = 0
    for c in v:
        g = math.gcd(g, c)
    if g == 0:
        raise ConeGeometryError("zero vector cannot be made primitive")
    return tuple(c // g for c in v)


def _fraction_primitive(col: Sequence[Fraction]) -> Vector:
    scale = math.lcm(*(x.denominator for x in col))
    return _int_primitive([int(x * scale) for x in col])


# -------------------------------------------------------------------- #
# double description


def _tight_mask(ray: Vector, constraints: Sequence[Vector]) -> int:
    mask = 0
    for i, a in enumerate(constraints):
        if _dot(a, ray) == 0:
            mask |= 1 << i
    return mask


def extreme_rays(rows: Sequence[Sequence[int]], dim: int) -> Tuple[Vector, ...]:
    """Extreme rays of the cone {x : <row, x> >= 0 for every row},
    computed by incremental double description.

    The cone must be pointed (the rows span the whole space) and full
    dimensional (the rays found span the whole space); either failure
    raises ConeGeometryError, because a cone without both properties
    has no well-defined extreme-ray description for our purposes.
    Returned rays are primitive integer vectors, sorted.
    """
    constraints = [tuple(int(x) for x in row) for row in rows]
    if any(len(a) != dim for a in constraints):
        raise DimensionMismatchError("constraint row of wrong length")
    if _rank(constraints) < dim:
        raise ConeGeometryError(
            "cone is not pointed: constraint normals do not span"
        )

    # Start from a simplicial subcone cut by dim independent rows; its
    # extreme rays are the columns of the inverse matrix.
    base: List[Vector] = []
    base_indices = set()
    for idx, a in enumerate(constraints):
        if _rank(base + [a]) > len(base):
            base.append(a)
            base_indices.add(idx)
            if len(base) == dim:
                break
    rays: List[Vector] = sorted(
        _fraction_primitive(col) for col in _inverse_columns(base)
    )
    processed: List[Vector] = list(base)

    for idx, a in enumerate(constraints):
        if idx in base_indices:
            continue
        values = {r: _dot(a, r) for r in rays}
        if all(v >= 0 for v in values.values()):
            processed.append(a)
            continue
        positive = [r for r in rays if values[r] > 0]
        zero = [r for r in rays if values[r] == 0]
        negative = [r for r in rays if values[r] < 0]
        masks = {r: _tight_mask(r, processed) for r in rays}

        def adjacent(p: Vector, q: Vector) -> bool:
            common = masks[p] & masks[q]
            if common.bit_count() < dim - 2:
                return False
            for r in rays:
                if r != p and r != q and (masks[r] & common) == common:
                    return False
            return True

        kept = set(positive) | set(zero)
        for p in positive:
            vp = values[p]
            for q in negative:
                if adjacent(p, q):
                    vq = values[q]
                    combined = tuple(
                        vp * qc - vq * pc for pc, qc in zip(p, q)
                    )
                    kept.add(_int_primitive(combined))
        processed.append(a)
        rays = sorted(kept)

    if _rank(rays) < dim:
        raise ConeGeometryError(
            "cone is not full dimensional: extreme rays span a proper subspace"
        )
    return tuple(rays)


# -------------------------------------------------------------------- #
# facet systems


@dataclass(frozen=True)
class HalfSpace:
    """The half-space {v : <normal, v> >= offset}."""

    normal: Tuple[int, ...]
    offset: int

    def evaluate(self, v: Sequence[int]) -> int:
        return _dot(self.normal, v)


@dataclass(frozen=True)
class FacetSystem:
    """Facet description of a Newton polyhedron.

    `bounded` holds the facets with positive offset, sorted by normal;
    `coordinate` lists the axes whose coordinate hyperplane is a
    genuine facet. Membership tests always include the full set of
    coordinate half-spaces (they are valid for any Newton polyhedron,
    whether or not they are facets)."""

    dim: int
    bounded: Tuple[HalfSpace, ...]
    coordinate: Tuple[int, ...]

    def contains_power(self, v: Sequence[int], n: int) -> bool:
        """Is v a lattice point of the n-fold dilate of the
        polyhedron (equivalently: is x^v integral over I^n)?
        For n <= 0 only nonnegativity is required."""
        w = tuple(v)
        if len(w) != self.dim:
            raise DimensionMismatchError(
                f"vector of length {len(w)} against dimension {self.dim}"
            )
        if any(c < 0 for c in w):
            return False
        if n <= 0:
            return True
        return all(f.evaluate(w) >= n * f.offset for f in self.bounded)

    def contains(self, v: Sequence[int]) -> bool:
        return self.contains_power(v, 1)

    def is_m_primary_source(self) -> bool:
        """True iff the underlying ideal is primary to the maximal
        ideal: there is a bounded facet and every bounded facet normal
        is strictly positive in every coordinate."""
        if not self.bounded:
            return False
        return all(all(c > 0 for c in f.normal) for f in self.bounded)


def newton_polyhedron(ideal: MonomialIdeal) -> FacetSystem:
    """Compute the facet description of the Newton polyhedron."""
    if ideal.is_zero():
        raise InvalidIdealError("the zero ideal has an empty Newton polyhedron")
    d = ideal.dim
    constraints: List[Vector] = [g + (1,) for g in ideal.gens]
    for j in range(d):
        e = [0] * (d + 1)
        e[j] = 1
        constraints.append(tuple(e))
    rays = extreme_rays(constraints, d + 1)

    bounded: List[HalfSpace] = []
    coordinate: List[int] = []
    for w in rays:
        normal, last = w[:d], w[d]
        if all(c == 0 for c in normal):
            # horizon facet of the homogenization; vacuous downstairs
            continue
        if any(c < 0 for c in normal):
            raise InvariantViolationError(
                f"facet normal with a negative entry: {w}"
            )
        offset = -last
        if offset > 0:
            if math.gcd(*normal) != 1:
                raise InvariantViolationError(
                    f"imprimitive facet normal {normal} (offset {offset})"
                )
            bounded.append(HalfSpace(normal, offset))
        elif offset == 0:
            support = [j for j, c in enumerate(normal) if c != 0]
            if len(support) != 1 or normal[support[0]] != 1:
                raise InvariantViolationError(
                    f"offset-zero facet with non-axis normal {normal}"
                )
            coordinate.append(support[0])
        else:
            raise InvariantViolationError(
                f"dual ray {w} has nonzero normal but negative offset"
            )
    bounded.sort(key=lambda f: (f.normal, f.offset))
    return FacetSystem(dim=d, bounded=tuple(bounded), coordinate=tuple(sorted(coordinate)))


# -------------------------------------------------------------------- #
# integral closures of powers


# A column scan refuses a box with more columns than this, so that an
# oversized input fails at once with its box size instead of running
# for minutes.
COLUMN_BUDGET = 2_000_000


def _column_minima(
    rows: Sequence[Tuple[Sequence[int], int]], bounds: Sequence[int]
) -> Iterator[Vector]:
    """Least lattice point of every column of a polyhedron over a box.

    `rows` are (normal, rhs) pairs, each the half-space
    <normal, v> >= rhs on vectors one longer than `bounds`, and the
    last entry of every normal is >= 0. For each prefix in the box
    prod_j [0, bounds_j], in lexicographic order, yields
    prefix + (t,) with t >= 0 the least value that meets every row.
    Because the last entries are >= 0, every row only gets easier as
    t grows, so t is a max of ceilings; a prefix that some row with
    last entry 0 rejects has no such t and is skipped.

    Raises BudgetExceededError, before scanning any column, when the
    box holds more than COLUMN_BUDGET columns.
    """
    columns = math.prod(b + 1 for b in bounds)
    if columns > COLUMN_BUDGET:
        raise BudgetExceededError(
            f"column scan over the box {tuple(bounds)} needs {columns} "
            f"columns, budget is {COLUMN_BUDGET}"
        )
    split = [(normal[:-1], normal[-1], rhs) for normal, rhs in rows]
    for prefix in itertools.product(*(range(b + 1) for b in bounds)):
        t = 0
        for head, last, rhs in split:
            need = rhs - _dot(head, prefix)
            if need > 0:
                if last == 0:
                    break
                t = max(t, -(-need // last))
        else:
            yield prefix + (t,)


def _dilate_minimal_points(
    facets: FacetSystem, n: int, maxexp: Vector
) -> Tuple[Vector, ...]:
    """Minimal lattice points of the n-fold dilate.

    Every minimal point v satisfies v_j <= n * maxexp_j: a point of
    the dilate decomposes as z + r with z in the convex hull of n-fold
    generator sums (so z_j <= n * maxexp_j) and r >= 0, hence v_j
    larger than the bound forces r_j >= 1 and v - e_j stays inside.
    So it suffices to scan columns over the box in the first d - 1
    coordinates and close each column with the least feasible last
    coordinate, then keep the points none of whose lower neighbors
    lie in the dilate.
    """
    d = facets.dim
    if not facets.bounded:
        return ((0,) * d,)
    bounds = [n * m for m in maxexp]
    rows = [(f.normal, n * f.offset) for f in facets.bounded]
    gens = []
    for v in _column_minima(rows, bounds[: d - 1]):
        minimal = True
        for j in range(d):
            if v[j] == 0:
                continue
            down = v[:j] + (v[j] - 1,) + v[j + 1 :]
            if facets.contains_power(down, n):
                minimal = False
                break
        if minimal:
            gens.append(v)
    return tuple(sorted(gens))


def closure_power(
    ideal: MonomialIdeal, n: int, facets: Optional[FacetSystem] = None
) -> MonomialIdeal:
    """The integral closure of ideal^n as a monomial ideal. For
    n <= 0 returns the unit ideal, matching the power convention."""
    if n <= 0:
        return MonomialIdeal.unit(ideal.dim)
    if facets is None:
        facets = newton_polyhedron(ideal)
    gens = _dilate_minimal_points(facets, n, ideal.max_exponents())
    return MonomialIdeal(ideal.dim, gens)


def integral_closure(ideal: MonomialIdeal) -> MonomialIdeal:
    return closure_power(ideal, 1)
