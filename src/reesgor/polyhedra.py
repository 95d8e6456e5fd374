"""Newton polyhedra, exact facet enumeration, integral closures.

The Newton polyhedron of a monomial ideal is the convex hull of its
exponent vectors plus the nonnegative orthant. Its facet inequalities
are computed exactly: homogenize the generators into a cone one
dimension up, run incremental double description over the integers
(one fraction-free Gauss-Jordan helper, no rationals) to get the
extreme rays of the dual cone, and read each dual ray back as a
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
import operator
from dataclasses import dataclass
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
    return sum(map(operator.mul, u, v))


# -------------------------------------------------------------------- #
# exact linear algebra


def _int_primitive(v: Sequence[int]) -> Vector:
    g = math.gcd(*v)
    if g == 0:
        raise ConeGeometryError("zero vector cannot be made primitive")
    return tuple([c // g for c in v])


def _content_free(v: Sequence[int], col: int) -> List[int]:
    """v divided by its content, signed so that v[col] > 0."""
    g = math.gcd(*v)
    if v[col] < 0:
        g = -g
    return [c // g for c in v]


def _row_reduce(
    rows: Sequence[Sequence[int]], invert: bool = False
) -> Tuple[List[int], List[Tuple[int, List[int]]]]:
    """Integer Gauss-Jordan elimination, one row at a time.

    Takes the rows in order and keeps a row when it is independent of
    the rows kept before it. Eliminates by cross-multiplication and
    divides out the content, so every entry stays an integer. Returns
    the indices of the kept rows and, for each, its pivot column and
    reduced row: positive in its own pivot column, zero in every other
    pivot column.

    With invert=True, each row of width n is extended by the unit
    vector e_k of length n, k the number of rows kept before it, and
    pivots are taken in the first n columns only. A dependent row still
    reduces to zero there and is dropped, so its unit vector goes to
    the next row. The reduced rows are then those of [base | identity],
    base the kept rows in order, exactly as a second elimination of
    that matrix would give them.
    """
    kept: List[int] = []
    pivots: List[Tuple[int, List[int]]] = []
    for idx, row in enumerate(rows):
        v = list(row)
        width = len(v)
        if invert:
            v.extend(int(j == len(kept)) for j in range(width))
        for col, p in pivots:
            if v[col]:
                f, g = p[col], v[col]
                v = [f * x - g * y for x, y in zip(v, p)]
        col = next((c for c in range(width) if v[c]), None)
        if col is None:
            continue
        v = _content_free(v, col)
        for k, (c, p) in enumerate(pivots):
            if p[col]:
                f, g = v[col], p[col]
                p = [f * x - g * y for x, y in zip(p, v)]
                pivots[k] = (c, _content_free(p, c))
        pivots.append((col, v))
        kept.append(idx)
        if len(pivots) == width:
            break
    return kept, pivots


# -------------------------------------------------------------------- #
# double description


def extreme_rays(rows: Sequence[Sequence[int]], dim: int) -> Tuple[Vector, ...]:
    """Extreme rays of the cone {x : <row, x> >= 0 for every row},
    computed by incremental double description.

    The cone must be pointed (the rows span the whole space) and full
    dimensional (the rays found span the whole space); either failure
    raises ConeGeometryError, because a cone without both properties
    has no well-defined extreme-ray description for our purposes.
    Returned rays are primitive integer vectors, sorted.

    The starting simplicial cone costs one elimination pass: the rows
    are reduced with a unit vector appended (see _row_reduce), which
    picks the first dim independent rows and inverts them at once.
    """
    constraints = [tuple(map(int, row)) for row in rows]
    if any(len(a) != dim for a in constraints):
        raise DimensionMismatchError("constraint row of wrong length")
    # Start from the simplicial subcone cut by the first dim independent
    # rows, `base`. The reduced [base | identity] holds, in the pivot
    # row of column c, d_c times row c of the inverse on the right;
    # ray j is column j of the inverse, tight on every base row except
    # row j. A ray's mask has bit i set when row i has been processed
    # and the ray is tight on it.
    base, reduced = _row_reduce(constraints, invert=True)
    if len(base) < dim:
        raise ConeGeometryError(
            "cone is not pointed: constraint normals do not span"
        )
    reduced.sort()
    scale = math.lcm(*(row[c] for c, row in reduced))
    base_mask = sum(1 << i for i in base)
    masks = {}
    for j, i in enumerate(base):
        column = [row[dim + j] * (scale // row[c]) for c, row in reduced]
        masks[_int_primitive(column)] = base_mask & ~(1 << i)

    for idx, a in enumerate(constraints):
        bit = 1 << idx
        if base_mask & bit:
            continue
        values = {r: _dot(a, r) for r in masks}
        positive = [r for r, v in values.items() if v > 0]
        negative = [r for r, v in values.items() if v < 0]
        combined = {}
        for p in positive:
            for q in negative:
                common = masks[p] & masks[q]
                if common.bit_count() < dim - 2 or any(
                    r != p and r != q and (masks[r] & common) == common
                    for r in masks
                ):
                    continue
                # The new ray is vp * q + |vq| * p with vp, |vq| > 0, and
                # p, q are >= 0 on every row processed so far, so it is
                # tight exactly where both are, and on row idx.
                vp, vq = values[p], values[q]
                ray = [vp * qc - vq * pc for pc, qc in zip(p, q)]
                combined[_int_primitive(ray)] = common | bit
        for r, v in values.items():
            if v < 0:
                del masks[r]
            elif v == 0:
                masks[r] |= bit
        masks.update(combined)

    rays = sorted(masks)
    if len(_row_reduce(rays)[0]) < dim:
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


def _column_scan(
    rows: Sequence[Tuple[Sequence[int], int]], bounds: Sequence[int]
) -> Iterator[Tuple[Vector, Vector]]:
    """Least lattice point of every column of a polyhedron over a box,
    with its row values.

    `rows` are (normal, rhs) pairs, each the half-space
    <normal, v> >= rhs on vectors one longer than `bounds`, and the
    last entry of every normal is >= 0. For each prefix in the box
    prod_j [0, bounds_j], in lexicographic order, yields
    (prefix + (t,), values) with t >= 0 the least value that meets
    every row and values[i] = <normal_i, prefix + (t,)>, in the order
    of `rows`. Because the last entries are >= 0, every row only gets
    easier as t grows, so t is a max of ceilings; a prefix that some
    row with last entry 0 rejects has no such t and is skipped.

    Each row's need, rhs - <normal[:-1], prefix>, is computed with one
    dot product per prefix of the outer coordinates bounds[:-1], at
    x = 0 in the last box coordinate x. Each step of x then subtracts
    the row's entry at x, so the need at x is the outer need minus
    entry * x, exact in integers, with no dot product per column. A
    row whose entries at x and t are both 0 (a fixed row) keeps its
    need along the whole walk, so it is tested once per outer prefix
    and, if positive, skips all of that prefix's columns. An empty
    `bounds` (d = 1 closures) gives the single column (t,).

    The values cost no dot product either. For a moving row, the need
    at x is rhs - <normal[:-1], (prefix, x)>, so its value is
    rhs - need + last * t. For a fixed row, the entries at x and t are
    0, so its value is <head, outer prefix>, the number the skip test
    has just formed.

    Raises BudgetExceededError, before scanning any column, when the
    box holds more than COLUMN_BUDGET columns.
    """
    columns = math.prod(b + 1 for b in bounds)
    if columns > COLUMN_BUDGET:
        raise BudgetExceededError(
            f"column scan over the box {tuple(bounds)} needs {columns} "
            f"columns, budget is {COLUMN_BUDGET}"
        )
    if not bounds:
        # A zero-width box coordinate in front gives the same column.
        padded = [((0,) + tuple(n), rhs) for n, rhs in rows]
        for v, values in _column_scan(padded, (0,)):
            yield v[1:], values
        return
    moving_at = [i for i, (n, _) in enumerate(rows) if n[-2] or n[-1]]
    fixed_at = [i for i, (n, _) in enumerate(rows) if not (n[-2] or n[-1])]
    moving = [rows[i] for i in moving_at]
    fixed = [(rows[i][0][:-2], rows[i][1]) for i in fixed_at]
    outer = [(n[:-2], rhs) for n, rhs in moving]
    rhss = [rhs for _, rhs in moving]
    steps = [n[-2] for n, _ in moving]
    lasts = [n[-1] for n, _ in moving]
    # The values are formed moving rows first; put them back in the
    # order of `rows`. With one row, itemgetter would return a bare
    # value rather than a tuple.
    order = moving_at + fixed_at
    position = sorted(range(len(rows)), key=order.__getitem__)
    arrange = operator.itemgetter(*position) if len(rows) > 1 else tuple
    inner = range(bounds[-1] + 1)
    for prefix in itertools.product(*(range(b + 1) for b in bounds[:-1])):
        heads = [_dot(head, prefix) for head, _ in fixed]
        if any(rhs > value for (_, rhs), value in zip(fixed, heads)):
            continue
        needs = [rhs - _dot(head, prefix) for head, rhs in outer]
        for x in inner:
            t = 0
            for need, last in zip(needs, lasts):
                if need > 0:
                    if last == 0:
                        break
                    c = -(-need // last)
                    if c > t:
                        t = c
            else:
                values = [
                    rhs - need + last * t
                    for rhs, need, last in zip(rhss, needs, lasts)
                ]
                yield prefix + (x, t), arrange(values + heads)
            needs = list(map(operator.sub, needs, steps))


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

    Minimality is read off the row values the scan yields. For v in
    the dilate and v_j > 0, v - e_j is >= 0, and its value on the
    bounded row (a, n*h) is <a, v> - a_j. So v - e_j lies in the
    dilate iff <a, v> - a_j >= n*h for every bounded facet, that is,
    iff every row's slack <a, v> - n*h is at least a_j. The last
    coordinate needs no test: it is the least feasible one of its
    column, so v - e_d is never in the dilate.
    """
    d = facets.dim
    if not facets.bounded:
        return ((0,) * d,)
    bounds = [n * m for m in maxexp]
    rows = [(f.normal, n * f.offset) for f in facets.bounded]
    rhss = [rhs for _, rhs in rows]
    # entries[j][i] is the j-th entry of the i-th normal
    entries = list(zip(*(normal for normal, _ in rows)))[: d - 1]
    gens = []
    for v, values in _column_scan(rows, bounds[: d - 1]):
        slack = list(map(operator.sub, values, rhss))
        if not any(
            v[j] and all(map(operator.ge, slack, column))
            for j, column in enumerate(entries)
        ):
            gens.append(v)
    return tuple(sorted(gens))


def closure_power(
    ideal: MonomialIdeal, n: int, facets: Optional[FacetSystem] = None
) -> MonomialIdeal:
    """The integral closure of ideal^n as a monomial ideal. For
    n <= 0 returns the unit ideal, matching the power convention.
    Like `ideal ** n`, refuses a bool or non-int n with TypeError,
    before any work."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError("exponent must be an int")
    if n <= 0:
        return MonomialIdeal.unit(ideal.dim)
    if facets is None:
        facets = newton_polyhedron(ideal)
    gens = _dilate_minimal_points(facets, n, ideal.max_exponents())
    return MonomialIdeal(ideal.dim, gens)

