"""Newton polyhedra, exact facet enumeration, integral closures.

The Newton polyhedron of a monomial ideal is the convex hull of its
exponent vectors plus the nonnegative orthant. Its facet inequalities
are computed exactly: homogenize the generators into a cone one
dimension up, run double description over the integers from the
orthant of the unit rows (every new vector an integer combination of
two others divided by its content: no rationals and no elimination)
to get the extreme rays of the dual cone (or read them off in closed
form, for the shapes below), and read each dual ray back as a facet.
A dual ray (w, -h) with w nonzero dehomogenizes to the inequality
<w, x> >= h; rays with w = 0 are the horizon facet and are dropped.
Offsets h > 0 give the bounded facets, h = 0 the coordinate facets
(their normals must be standard basis vectors, which is checked rather
than assumed).

In two variables the generators form a staircase, and the same dual
rays come from its lower convex hull in linear time (_plane_rays): the
Newton polygon's facets are its two unbounded edges and the edges of
that hull. Every other cone goes to `extreme_rays`, which reads two
shapes off their rows in closed form (`_cone_rays`): the Newton cone
of pure powers in d >= 2, and a cone with one row beyond the unit
rows, such as every one-facet lift of the `cone` module and the Newton
cone of a pure power in d = 1. Double description is the route for
any other cone, and the reference both closed forms are tested
against.

Integral closures of powers come straight from the facet description:
the closure of I^n is generated by the lattice points of the n-fold
dilate of the polyhedron, and the minimal such points are enumerated
column by column over a proven bounding box.

Everything is exact; no floating point anywhere.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import (
    BudgetExceededError,
    ConeGeometryError,
    DimensionMismatchError,
    InvalidIdealError,
    InvariantViolationError,
)
from .ideals import (
    MonomialIdeal,
    Vector,
    _Minimal,
    _Value,
    _axes,
    _check_dim,
    _exact_int,
    _exact_vector,
    _once,
)


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(operator.mul, u, v))


# -------------------------------------------------------------------- #
# exact linear algebra


def _int_primitive(v: Sequence[int]) -> Vector:
    g = math.gcd(*v)
    if g == 1:
        return tuple(v)
    if g == 0:
        raise ConeGeometryError("zero vector cannot be made primitive")
    return tuple([c // g for c in v])


# -------------------------------------------------------------------- #
# double description


def extreme_rays(rows: Sequence[Sequence[int]], dim: int) -> Tuple[Vector, ...]:
    """Extreme rays of the cone {x : <row, x> >= 0 for every row},
    read off the rows for the two shapes of `_cone_rays`, else computed
    by double description from the orthant of its unit rows.

    The cone must be pointed (the rows span the whole space) and full
    dimensional; either failure raises ConeGeometryError, because a
    cone without both properties has no well-defined extreme-ray
    description for our purposes. Returned rays are primitive integer
    vectors, sorted. Before any arithmetic, refuses a dim that is no
    positive int by `_exact_int` with InvalidIdealError, as
    `minimalize` does. Then one pass reads each row into a tuple by
    `_exact_vector`, in input order, and the first flawed row decides:
    a row of another length is refused with the DimensionMismatchError
    that names its length, one with an entry that fails `_exact_int`
    with the InvalidIdealError that names the row; within a row the
    length is checked first. A C-level pass over the types
    that let plain ints skip it bought nothing measurable: without it
    the pinned report jobs took +0.3% (median of seven side-by-side
    timings, -0.1 to +0.9%), inside the 0.9-point spread of the tree
    timed against itself (`tools/pooltime.py`, 2 cores, Python 3.11.7).

    Solved once per job. The kernel, `_cone_rays`, reads only the
    validated rows and dim, tuples of ints compared by value, and
    returns a tuple of tuples. So within one job (`ideals._job`) it
    runs once per (rows, dim) and a repeat returns what a fresh run
    would (the lemma of `ideals._once`). Every call still runs the
    checks above, and a ConeGeometryError is stored by no job: it is
    raised again, in the same words.
    """
    dim = _check_dim(dim)
    against = f"dimension {dim}"
    constraints = tuple([_exact_vector(a, dim, against) for a in rows])
    return _once(_cone_rays, constraints, dim)


def _cone_rays(constraints: Tuple[Vector, ...], dim: int) -> Tuple[Vector, ...]:
    """The extreme rays of `extreme_rays`, for rows it has validated:
    two cone shapes whose rays are known in closed form, and the loop
    `_double_description` for every other. Write n = dim and e_j for
    the unit rows. Both shapes ask for distinct rows that hold
    e_1, ..., e_(n-1); the rows beyond those decide the route.

    Lemma (one row). If the only other row is a with a_n > 0, the
    extreme rays are e_n and primitive(a_n e_j - a_j e_n), j < n. The
    map x -> (x_1, ..., x_(n-1), <a, x>) is triangular with diagonal
    1, ..., 1, a_n, so invertible, and it takes the cone onto the
    orthant: the cone is pointed and full dimensional, and its extreme
    rays are the preimages of e_1, ..., e_n. These are e_n / a_n and
    e_j - (a_j / a_n) e_n, on the rays named, as a_n > 0. Every
    one-facet lift of `cone.lift_halfspaces` has this shape, and so
    has the Newton cone of a pure power in d = 1.

    Lemma (pure powers). If n = d + 1 >= 3 and the other rows are
    exactly (a_i e_i, 1), i <= d, each a_i >= 1, the Newton cone
    `newton_polyhedron` builds for (x_i^a_i), the extreme rays are
    e_1, ..., e_(d+1) and w = (L/a_1, ..., L/a_d, -L), L = lcm(a_i).
    A point (y, s) of the cone has y >= 0 and a_i y_i + s >= 0. If
    s >= 0 it is sum_i y_i e_i + s e_(d+1). If s < 0 it is
    (-s / L) w + sum_i ((a_i y_i + s) / a_i) e_i, every coefficient
    >= 0. So these d + 2 vectors generate the cone, and each is
    extreme: the rows tight on it have rank d. On e_(d+1) those are
    e_1, ..., e_d; on e_j, j <= d, the e_i and (a_i e_i, 1) for
    i != j, which span e_(d+1) too since d >= 2 gives such an i; on w
    the d rows (a_i e_i, 1). The rows span the space and (1, ..., 1)
    is positive on each, so the cone is pointed and full dimensional.
    w is primitive: for each prime p some a_i carries the full power of
    p in L, so p does not divide L/a_i. In d = 1, e_1 is not extreme,
    and the cone takes the one-row route.

    Both routes return the rays sorted and primitive, as the loop
    does, so a repeat of either is what the loop would return; the
    tests check both against it. Every other row set, repeated rows
    included, goes to the loop.
    """
    rows = set(constraints)
    units = _axes((1,) * (dim - 1), dim)
    if len(rows) == len(constraints) and rows.issuperset(units):
        rest = rows.difference(units)
        if len(rest) == 1:
            (a,) = rest
            if a[-1] > 0:
                return _one_row_rays(a)
        elif len(rest) == dim - 1 > 1:
            powers = [sum(c) for c in zip(*rest)][:-1]
            if min(powers) > 0 and rest == {
                e + (1,) for e in _axes(powers, dim - 1)
            }:
                return _pure_power_rays(powers)
    return _double_description(constraints, dim)


def _one_row_rays(a: Vector) -> Tuple[Vector, ...]:
    """The rays of the one-row lemma of `_cone_rays`, sorted. Each
    a_n e_j - a_j e_n is divided by its content gcd(a_n, a_j), which
    a_n > 0 keeps nonzero: one `math.gcd` of two ints per ray. Built
    from `_axes` and `_int_primitive` on whole vectors, the same rays
    took 6.3 against 2.5 us on a lift in d = 4 (Python 3.11.7)."""
    *head, last = a
    zero = (0,) * len(head)
    rays = [zero + (1,)]
    for j, c in enumerate(head):
        g = math.gcd(last, c)
        rays.append(zero[:j] + (last // g,) + zero[j + 1 :] + (-c // g,))
    return tuple(sorted(rays))


def _pure_power_rays(powers: List[int]) -> Tuple[Vector, ...]:
    """The rays of the pure-power lemma of `_cone_rays`, sorted."""
    top = math.lcm(*powers)
    w = tuple([top // a for a in powers]) + (-top,)
    return tuple(sorted(_axes((1,) * len(w), len(w)) + [w]))


def _double_description(
    constraints: Tuple[Vector, ...], dim: int
) -> Tuple[Vector, ...]:
    """The extreme rays of `extreme_rays`, for validated rows of no
    shape `_cone_rays` solves in closed form.

    One loop over the rows: the lineality-first double description with
    the combinatorial adjacency test (Fukuda and Prodon, "Double
    description method revisited", 1996). It starts from the orthant of
    the unit rows, the rows equal to some e_j, set up in one pass: the
    lineality basis L holds the axes e_j that no unit row names, each
    named e_j is a ray, and its mask holds every unit row but those
    equal to e_j (<e_k, e_j> = 0 for k != j). That is the cone the unit
    rows cut out, with exact masks, and the loop then takes the other
    rows. After each row the processed cone is C = span(L) + cone(R), L
    a basis of its lineality space and R one vector for each extreme ray
    of C / span(L). Every processed row b vanishes on span(L), since l
    and -l both lie in C, so <b, r> does not depend on which vector
    stands for a ray r. A ray's mask has bit i set when row i has been
    processed and the ray is tight on it. A zero row is skipped: it
    holds everywhere and is tight on every ray, so it changes neither
    the cone nor any test below, and no mask holds it.

    A row a with <a, l0> != 0 for some l0 in L (the first such,
    negated if need be so that v0 = <a, l0> > 0) uses l0 up. Every
    other u in L and in R is projected along l0 onto a^perp, to
    u' = v0 * u - <a, u> * l0 made primitive by one `_int_primitive`
    call, the only division by the content (u itself when
    <a, u> = 0). Each x in C is x' + (<a, x> / v0) * l0 with x' in
    span(L') + cone(R'), so C cut by a is
    span(L') + cone(R') + cone(l0). L' is a basis of span(L) cut by
    a^perp, which holds the new lineality space. Modulo span(L'), the
    new cone is cone(R') times the half-line of l0, and cone(R') is
    C / span(L) carried over by the projection, so its extreme rays
    are R' and l0.
    Lemma (masks stay exact). For an earlier row b, <b, l0> = 0, as l0
    was in the lineality space. So <b, u'> = v0 * <b, u> has the sign
    of <b, u>, and <a, u'> = 0: each projected ray keeps its mask and
    gains a's bit. l0 is tight on every earlier row and positive on a,
    so its mask holds exactly the earlier rows.

    Any other row vanishes on span(L) and is one double-description
    step on C / span(L), a pointed cone in a space of dimension
    k = n - dim L. Every ray is evaluated on a once, into a list of
    (ray, mask, value). Rays with value >= 0 stay (value 0 adds a to
    the mask), rays with value < 0 go, and new rays come only from
    pairs of a positive ray p and a negative ray q that are adjacent.
    Let Z be the rows tight on both and F the face cut out by Z. F is
    the least face holding p and q, its rays are the rays tight on all
    of Z, and the rows tight on all of F are Z itself. So p and q are
    adjacent, F 2-dimensional, iff no third ray is tight on all of Z.
    p and q are, so that holds iff exactly two masks contain Z, which
    is counted by one AND per ray at C level. The new ray
    vp * q + |vq| * p is >= 0 on every processed row, and tight
    exactly where both are, and on a.

    End checks. The cone is pointed iff no lineality is left.
    Lemma (full dimension from the masks). A pointed cone lies in the
    hyperplane a.x = 0 iff every ray is tight on a. If every nonzero
    row has a ray that is not tight on it, the sum of one such ray per
    row is positive on every nonzero row, an interior point, and the
    cone is full dimensional. If some nonzero row is tight on every
    ray, it is an implicit equality and the cone lies in its
    hyperplane (Schrijver, "Theory of Linear and Integer Programming",
    section 8.2). So the check is one AND over the masks, which hold
    no zero row.

    Order. The rays come out sorted, so the order the rows are taken
    in is free. The other rows are taken last first. Both package
    callers of `extreme_rays` append the unit rows e_j last. Taken one
    by one through the loop, last first, each would use up its own e_j
    with no arithmetic and reach the same start state, at the cost of
    a pass over L per row: the one-pass start takes 18%, 23% and 19%
    less kernel time on the 2,675 calls that the report, gorenstein
    and corpus benchmark pools run (best of 9, alternating), with the
    same output on each. Timed on 5,307 recorded
    calls in 3 to 6 coordinates (those of the 218 report and 768
    gorenstein benchmark pool jobs and of 31 corpus self-checks; the
    sum of per-call minima over 9 interleaved repeats, in three
    comparisons, 2 cores, Python 3.11.7), the loop took 33-35% less
    process time than the Gauss-Jordan start before it on the report
    calls, 33-35% on the gorenstein calls and 35-37% on the corpus
    calls. Taking the rows with the most zero entries first, at the
    cost of a sort, saved 31-34%, and taking them in their given
    order 11-24%.
    """
    axes = _axes((1,) * dim, dim)
    units = dict.fromkeys(axes, 0)  # e_j -> bits of the rows equal to it
    others = []
    for idx, a in enumerate(constraints):
        if a in units:
            units[a] |= 1 << idx
        else:
            others.append(idx)
    seen = sum(units.values())  # the bits of distinct rows are disjoint
    lineality = [e for e in axes if not units[e]]
    masks = {e: seen & ~bits for e, bits in units.items() if bits}
    for idx in reversed(others):
        a = constraints[idx]
        bit = 1 << idx
        values = [sum(map(operator.mul, a, l)) for l in lineality]
        v0 = next(filter(None, values), 0)
        if v0:
            k = values.index(v0)
            l0 = lineality.pop(k)
            del values[k]
            if v0 < 0:
                l0, v0 = tuple([-c for c in l0]), -v0
            lineality = [
                _int_primitive([v0 * x - v * y for x, y in zip(l, l0)])
                if v else l
                for l, v in zip(lineality, values)
            ]
            projected = {l0: seen}
            for r, m in masks.items():
                v = sum(map(operator.mul, a, r))
                if v:
                    r = _int_primitive([v0 * x - v * y for x, y in zip(r, l0)])
                projected[r] = m | bit
            masks = projected
            seen |= bit
            continue
        if not any(a):
            continue
        seen |= bit
        evaluated = [
            (r, m, sum(map(operator.mul, a, r))) for r, m in masks.items()
        ]
        negative = [e for e in evaluated if e[2] < 0]
        combined = {}
        if negative:
            held = [m for _, m, _ in evaluated]
            for p, mp, vp in evaluated:
                if vp <= 0:
                    continue
                for q, mq, vq in negative:
                    common = mp & mq
                    # p and q hold common; adjacent iff no other ray does
                    if list(map(common.__and__, held)).count(common) > 2:
                        continue
                    ray = [vp * qc - vq * pc for pc, qc in zip(p, q)]
                    combined[_int_primitive(ray)] = common | bit
        masks = {
            r: m | bit if v == 0 else m for r, m, v in evaluated if v >= 0
        }
        masks.update(combined)

    if lineality:
        raise ConeGeometryError(
            "cone is not pointed: constraint normals do not span"
        )
    if functools.reduce(operator.and_, masks.values(), seen):
        raise ConeGeometryError(
            "cone is not full dimensional: extreme rays span a proper subspace"
        )
    return tuple(sorted(masks))


# -------------------------------------------------------------------- #
# facet systems


class HalfSpace(_Value):
    """The half-space {v : <normal, v> >= offset}. Refuses, with
    InvalidIdealError naming it, a normal entry or an offset that fails
    `_exact_int`, and stores an int subclass as the int it equals.
    Plain ints take the same path: with the facet systems solved once
    per job, the 218 pinned report jobs build 291 of these, and a
    C-level pass over the types that let plain ints skip it bought
    nothing measurable (the pool took -0.2% without it, median of five
    side-by-side timings; `tools/pooltime.py`, 2 cores, Python 3.11.7)."""

    normal: Tuple[int, ...]
    offset: int

    def __init__(self, normal: Tuple[int, ...], offset: int) -> None:
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", offset)
        normal = tuple(normal)
        if not (all(map(_exact_int, normal)) and _exact_int(offset)):
            raise InvalidIdealError(f"non-integer entry in facet {self}")
        object.__setattr__(self, "normal", tuple(map(int, normal)))
        object.__setattr__(self, "offset", int(offset))


class FacetSystem(_Value):
    """Facet description of a Newton polyhedron.

    `bounded` holds the facets with positive offset, sorted by normal:
    `newton_polyhedron` reads them off the dual rays (normal, -offset),
    which both `extreme_rays` and `_plane_rays` return sorted, and
    distinct facets have distinct primitive normals, so ray order is
    normal order.
    They are bounded only for an ideal primary to the maximal ideal
    (is_m_primary_source): (x^2 y) has x >= 2 and y >= 1, neither of
    them bounded. `coordinate` lists the axes whose coordinate
    hyperplane is a genuine facet. Membership tests always include the
    full set of coordinate half-spaces (they are valid for any Newton
    polyhedron, whether or not they are facets). Both are stored as
    tuples, whatever sequences they were given as, and dim as the
    plain int `_check_dim` returns. Refuses with InvalidIdealError a
    dim that is no positive int, as `minimalize` does, and, naming the
    entry, a bounded entry that is no `HalfSpace`,
    a bounded facet whose normal has another length, a negative entry,
    or whose offset is <= 0, and a coordinate entry that is no int
    (`_exact_int`) in range(dim). Every
    bounded facet of a Newton polyhedron has a normal >= 0 and a
    positive offset, and the closure scan's box and slack widths rest
    on both (see `_dilate_minimal_points`): a hand-made facet such as
    x - y >= 1 would give a wrong closure, not an error."""

    dim: int
    bounded: Tuple[HalfSpace, ...]
    coordinate: Tuple[int, ...]

    def __init__(
        self, dim: int, bounded: Tuple[HalfSpace, ...], coordinate: Tuple[int, ...]
    ) -> None:
        object.__setattr__(self, "dim", _check_dim(dim))
        object.__setattr__(self, "bounded", tuple(bounded))
        object.__setattr__(self, "coordinate", tuple(coordinate))
        for f in self.bounded:
            if not isinstance(f, HalfSpace):
                raise InvalidIdealError(f"bounded facet {f!r} is no HalfSpace")
            if len(f.normal) != self.dim:
                raise InvalidIdealError(
                    f"facet {f} has {len(f.normal)} normal entries, "
                    f"expected {self.dim}"
                )
            if min(f.normal) < 0 or f.offset <= 0:
                raise InvalidIdealError(
                    f"bounded facet {f} needs a normal >= 0 and an offset > 0"
                )
        for axis in self.coordinate:
            if not (_exact_int(axis) and 0 <= axis < self.dim):
                raise InvalidIdealError(
                    f"coordinate facet {axis!r} is no int in range({self.dim})"
                )

    def contains_power(self, v: Sequence[int], n: int) -> bool:
        """Is v a lattice point of the n-fold dilate of the
        polyhedron (equivalently: is x^v integral over I^n)?
        For n <= 0 only nonnegativity is required. Like
        `closure_power`, refuses an n that fails `_exact_int` with
        TypeError, and by `_exact_vector` a v of the wrong length or
        with an entry that fails it, before any arithmetic."""
        if not _exact_int(n):
            raise TypeError("exponent must be an int")
        w = _exact_vector(v, self.dim, f"dimension {self.dim}")
        if any(c < 0 for c in w):
            return False
        if n <= 0:
            return True
        return all(_dot(f.normal, w) >= n * f.offset for f in self.bounded)

    def is_m_primary_source(self) -> bool:
        """True iff the underlying ideal is primary to the maximal
        ideal: there is a bounded facet and every bounded facet normal
        is strictly positive in every coordinate."""
        if not self.bounded:
            return False
        return all(all(c > 0 for c in f.normal) for f in self.bounded)


def _plane_rays(gens: Sequence[Vector]) -> Tuple[Vector, ...]:
    """The extreme rays of the dual cone of a Newton polygon, as
    `extreme_rays` returns them for the homogenized constraints
    (g, 1) and e_j: sorted, primitive, one per facet of the cone over
    the polygon.

    `gens` is a minimal generating set in two variables, sorted
    lexicographically, so x strictly increases and y strictly
    decreases along it (a staircase).

    Lemma. The facets of the polygon P = conv(gens) + R^2_{>=0} are
    its two unbounded edges, x >= x_first and y >= y_last, and the
    edges of the lower convex hull of the staircase. Every edge of
    that hull has negative slope: its slopes increase from left to
    right, and the last edge ends at the point of least y. So each
    hull edge from p to q has the positive inward normal
    (p_y - q_y, q_x - p_x), and with the two unbounded edges these
    are all the facets. The cone over P has one more facet, the
    horizon (0, 0, 1), which holds the recession directions e_1, e_2.
    A facet <n, x> >= h of P gives the dual ray (n, -h), primitive
    once n is divided by its content (h = <n, p> is then an integer).

    The hull is Andrew's monotone chain over the staircase: a point is
    popped while it does not make a strict left turn with its
    neighbours (cross product <= 0), so a generator lying on an edge
    is not a vertex and every edge is a facet of its own. Cost O(k)
    for k generators, since they arrive sorted.
    """
    hull: List[Vector] = []
    for q in gens:
        while len(hull) > 1:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            if (ax - ox) * (q[1] - oy) - (ay - oy) * (q[0] - ox) > 0:
                break
            hull.pop()
        hull.append(q)
    rays = [(0, 0, 1), (1, 0, -gens[0][0]), (0, 1, -gens[-1][1])]
    for (px, py), (qx, qy) in zip(hull, hull[1:]):
        g = math.gcd(py - qy, qx - px)
        a, b = (py - qy) // g, (qx - px) // g
        rays.append((a, b, -(a * px + b * py)))
    return tuple(sorted(rays))


def newton_polyhedron(ideal: MonomialIdeal) -> FacetSystem:
    """Compute the facet description of the Newton polyhedron.

    The dual rays come from _plane_rays when d = 2 and from
    `extreme_rays` on the homogenized constraints otherwise; both
    return the same sorted primitive rays (see _plane_rays for the
    lemma), and `_facet_system` reads the facets off them, with every
    check, either way.

    Solved once per job. `_plane_rays` reads only the gens and
    `_facet_system` only d and the rays, tuples of ints compared by
    value, and each returns an immutable value. So within one job
    (`ideals._job`) each runs once per input and a repeat returns what
    a fresh run would (the lemma of `ideals._once`). Every call still
    calls `extreme_rays` when d != 2, and an InvariantViolationError is
    stored by no job: it is raised again, in the same words.
    """
    if ideal.is_zero():
        raise InvalidIdealError("the zero ideal has an empty Newton polyhedron")
    d = ideal.dim
    if d == 2:
        rays = _once(_plane_rays, ideal.gens)
    else:
        constraints = [g + (1,) for g in ideal.gens] + _axes((1,) * d, d + 1)
        rays = extreme_rays(constraints, d + 1)
    return _once(_facet_system, d, rays)


def _facet_system(d: int, rays: Tuple[Vector, ...]) -> FacetSystem:
    """The facets of `newton_polyhedron`, read off the sorted primitive
    dual rays of the homogenized cone in d + 1 coordinates, each ray
    checked for the shape a Newton polyhedron's facets must have."""
    bounded: List[HalfSpace] = []
    coordinate: List[int] = []
    for w in rays:
        normal, last = w[:d], w[d]
        if not any(normal):
            # horizon facet of the homogenization; vacuous downstairs
            continue
        if min(normal) < 0:
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
            # the entries are >= 0 here, so a sum of 1 is one entry 1
            if sum(normal) != 1:
                raise InvariantViolationError(
                    f"offset-zero facet with non-axis normal {normal}"
                )
            coordinate.append(normal.index(1))
        else:
            raise InvariantViolationError(
                f"dual ray {w} has nonzero normal but negative offset"
            )
    return FacetSystem(dim=d, bounded=tuple(bounded), coordinate=tuple(sorted(coordinate)))


# -------------------------------------------------------------------- #
# integral closures of powers


# A column scan refuses a box with more columns than this, so that an
# oversized input fails at once with its box size instead of running
# for minutes.
COLUMN_BUDGET = 2_000_000


def _pack(values: Iterable[int], width: int) -> int:
    """The values as the fields of one int, value r shifted left by
    width * r. A negative value borrows from the fields above it, but
    the int stays exact, so a sum of packed ints whose fields all end
    in [0, 2^width) reads back field by field."""
    return sum(map(operator.lshift, values, itertools.count(0, width)))


def _slack_fields(
    rows: Sequence[Tuple[Sequence[int], int]], bounds: Sequence[int]
) -> Tuple[int, int]:
    """The field width W of the packed slacks `_column_scan` yields
    for these rows and bounds, and the mask G of the top bit of each
    field (its guard bit), one field per row. The scan calls this once
    and hands W and G out with its batches, so no consumer derives
    them again.

    Lemma. Every slack the scan yields, and every normal entry n_rj at
    a box coordinate j with bound b_j >= 1, is below 2^(W - 1):
    - Every yielded point is feasible, so each slack is >= 0.
    - Write N_r = |rhs_r| + sum_j |n_rj| * b_j over the box
      coordinates j. On the box, a row's need
      rhs_r - <n_r, (prefix, x, 0)> is at most N_r, and the least t of
      a column is 0 or a need over a positive last entry l_r, rounded
      up. So every yielded t is at most
      T = max(0, max over rows with l_r > 0 of ceil(N_r / l_r)), and
      slack_r = <n_r, v> - rhs_r <= N_r + l_r * t <= N_r + l_r * T.
    - Such an entry has |n_rj| <= |n_rj| * b_j <= N_r.
    W is one more than the bit length of the largest N_r + l_r * T. So
    W covers every operand a consumer compares with a slack: another
    slack, or an entry n_rj at a coordinate j where the point is
    positive, whose bound is then >= 1. W comes from `rows` and
    `bounds` alone; no constant stands in.

    Dominance then costs one subtraction and one mask (the packed
    exponent vectors of Bachmann and Schönemann, ISSAC 1998). Let s
    pack values s_r and f pack values f_r, all below 2^(W - 1), and
    let g = s + G be s guarded, as the scan yields it. Then
    (g - f) & G == G iff s_r >= f_r for every row r. Field r of g is
    s_r + 2^(W - 1) > f_r, so no field borrows from the next one, and
    its guard bit stays set exactly when s_r >= f_r. Since s + G has
    no carry, it equals s | G, and s = g ^ G.
    """
    top = 0
    reach = []
    for normal, rhs in rows:
        # bounds are >= 0, so |n_rj * b_j| = |n_rj| * b_j
        n = abs(rhs) + sum(map(abs, map(operator.mul, normal, bounds)))
        reach.append(n)
        if normal[-1] and -(-n // normal[-1]) > top:
            top = -(-n // normal[-1])
    largest = max(
        [n + normal[-1] * top for n, (normal, _) in zip(reach, rows)],
        default=0,
    )
    width = largest.bit_length() + 1
    return width, _pack([1 << (width - 1)] * len(rows), width)


def _check_column_budget(bounds: Sequence[int]) -> None:
    """Refuse a box of more than COLUMN_BUDGET columns with
    BudgetExceededError naming the box and its column count. The count
    does not depend on the order of the sides, so a caller that scans
    the box with its coordinates permuted checks it first in its own
    order, and the message names the box as its caller knows it."""
    columns = math.prod(b + 1 for b in bounds)
    if columns > COLUMN_BUDGET:
        raise BudgetExceededError(
            f"column scan over the box {tuple(bounds)} needs {columns} "
            f"columns, budget is {COLUMN_BUDGET}"
        )


def _column_scan(
    rows: Sequence[Tuple[Sequence[int], int]], bounds: Sequence[int]
) -> Tuple[int, int, Iterator[Tuple[Vector, range, List[int], List[int]]]]:
    """Least lattice point of every column of a polyhedron over a box,
    with its row slacks packed into one int, one batch per outer
    prefix, and the packed layout those ints share.

    `rows` are (normal, rhs) pairs, each the half-space
    <normal, v> >= rhs on vectors one longer than `bounds`, and the
    last entry of every normal is >= 0. Write a point as
    (prefix, x, t): prefix in the box of the outer coordinates
    bounds[:-1], x in [0, bounds[-1]], and t >= 0.

    Returns (W, G, batches): the field width W and the guard mask G of
    `_slack_fields(rows, bounds)`, derived once here, and an iterator
    that yields, for each prefix in lexicographic order that has a
    feasible column, one batch (prefix, xs, ts, slacks). xs is the
    range of the x whose column has a feasible point, ts[i] is the
    least feasible t over xs[i], and
    slacks[i] = G + sum_r slack_r << (W * r) packs the point's row
    slacks slack_r = <normal_r, v> - rhs_r >= 0, in the order of
    `rows`, each field with its guard bit set. The lemma of
    `_slack_fields` puts every slack below 2^(W - 1), so field r holds
    slack_r + 2^(W - 1) < 2^W and none carries into the next. A
    consumer tests s_r >= f_r for every row as (s - f) & G == G, f
    packed at width W from values below 2^(W - 1) (an unguarded slack
    s ^ G, or normal entries), and needs no mask of its own.

    The points come out in lexicographic order. Because the last
    entries are >= 0, every row only gets easier as t grows, so t is a
    max of ceilings; a column that some row with last entry 0 rejects
    has no such t and is skipped. With no rows G and every slack are 0,
    and every column yields t = 0. An empty `bounds` (d = 1 closures)
    is scanned as the box (0,) with a zero column in front of every
    normal: its one batch has xs = range(0, 1) and stands for the
    single point (t,), not (0, t).

    Each row's need, rhs - <normal, (prefix, x, 0)>, is stepped, never
    formed by a dot product. The outer box is walked depth first; at
    depth j the first j coordinates are fixed and the rest are 0, and
    each step of coordinate j subtracts the rows' entries there. Along
    x, the need at x is the need at the prefix minus entry * x.

    A row with last entry 0 and x entry s holds at x iff
    s * x >= need at x = 0, so one loop over these rows per batch
    settles them in closed form: s > 0 bounds x from below by
    ceil(need / s), s < 0 bounds it from above by floor(need / s), and
    s = 0 leaves the same need on every column, so a positive need
    rejects the whole batch. xs is the intersection of those bounds
    with [0, bounds[-1]]. Every other row has last entry l > 0, and
    t(x) = max(0, ceil(need(x) / l) over those rows), with one list
    comprehension per row over xs. That holds a row with s = 0 too,
    whose ceiling is the same at every x: taking such rows once per
    batch instead bought nothing measurable (the pinned pools took
    +0.2 / -0.1 / +0.6% without it, report / gorenstein / corpus,
    medians of five side-by-side timings, inside the spread of the
    tree timed against itself; `tools/pooltime.py`, 2 cores, Python
    3.11.7).

    The slacks cost no dot product either. With need_r the row's need
    at x = 0, slack_r at (prefix, x, t) is s_r * x + l_r * t - need_r.
    So the packed slack is x * S + t * L - P, where S and L pack the
    rows' entries at x and t, and P packs the needs. P starts as the
    packed rhs minus G, which guards every slack at no cost per point,
    and is stepped with the needs, one subtraction of the packed
    entries per step. Fields of S and P may be negative; the ints stay
    exact, and every field of the sum is a slack plus its guard bit, in
    [2^(W - 1), 2^W), so it reads back.

    Raises BudgetExceededError at the call, before scanning any
    column, when the box holds more than COLUMN_BUDGET columns (see
    `_check_column_budget`).
    """
    _check_column_budget(bounds)
    if not bounds:
        # A zero-width box coordinate in front gives the same column.
        rows = [((0,) + tuple(n), rhs) for n, rhs in rows]
        bounds = (0,)
    depth = len(bounds) - 1
    last = bounds[-1]
    width, guard = _slack_fields(rows, bounds)
    rhss = [rhs for _, rhs in rows]
    # steps[j] holds the rows' entries at outer coordinate j, and
    # packed_steps[j] packs them.
    steps = [[n[j] for n, _ in rows] for j in range(depth)]
    packed_steps = [_pack(step, width) for step in steps]
    # shapes[i] holds row i's entries (s, l) at x and t. Rows with l = 0
    # clip x, or, with s = 0 too, hold on the whole batch or on none of
    # it; rows with l > 0 bound t.
    shapes = [(n[-2], n[-1]) for n, _ in rows]
    along = _pack((s for s, _ in shapes), width)
    lift = _pack((l for _, l in shapes), width)
    flat = [(i, s) for i, (s, l) in enumerate(shapes) if not l]
    lifting = [(i, s, l) for i, (s, l) in enumerate(shapes) if l]

    def batch(prefix: Vector, needs: List[int], packed: int):
        lo, hi = 0, last
        for i, s in flat:
            if s > 0:
                c = -(-needs[i] // s)
                if c > lo:
                    lo = c
            elif s:
                c = needs[i] // s
                if c < hi:
                    hi = c
            elif needs[i] > 0:
                return None
        if lo > hi:
            return None
        xs = range(lo, hi + 1)
        ceilings = [
            [-((s * x - needs[i]) // l) for x in xs] for i, s, l in lifting
        ]
        if ceilings:
            ts = list(map(max, itertools.repeat(0), *ceilings))
        else:
            ts = [0] * len(xs)
        slacks = [x * along + t * lift - packed for x, t in zip(xs, ts)]
        return prefix, xs, ts, slacks

    # walk takes itself as an argument: a closure that named itself
    # would hold itself through its own cell, and every scan would leave
    # that cycle, with the rows and steps it holds, to the collector.
    def walk(walk, j: int, prefix: Vector, needs: List[int], packed: int):
        if j == depth:
            found = batch(prefix, needs, packed)
            if found is not None:
                yield found
            return
        step, packed_step = steps[j], packed_steps[j]
        for p in range(bounds[j] + 1):
            yield from walk(walk, j + 1, prefix + (p,), needs, packed)
            needs = list(map(operator.sub, needs, step))
            packed -= packed_step

    return width, guard, walk(walk, 0, (), rhss, _pack(rhss, width) - guard)


def _facets_for(
    ideal: MonomialIdeal, facets: Optional[FacetSystem]
) -> FacetSystem:
    """The Newton polyhedron of ideal: the given facets, once they are
    checked to live in the ideal's dimension, or else computed. Every
    function that takes facets next to their ideal reads them here, so
    a mismatch is refused before any work."""
    if facets is None:
        return newton_polyhedron(ideal)
    if facets.dim != ideal.dim:
        raise DimensionMismatchError(
            f"facets of dimension {facets.dim} against an ideal of "
            f"dimension {ideal.dim}"
        )
    return facets


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

    Minimality in the prefix coordinates is read off the packed slacks
    the scan yields. For v in the dilate and v_j > 0, v - e_j is >= 0,
    and its value on the bounded row (a, n*h) is <a, v> - a_j. So
    v - e_j lies in the dilate iff every row's slack <a, v> - n*h is
    at least a_j: one subtraction of the column of entries a_j, packed
    at the width the scan returns, from the slack the scan yields
    already guarded, and one mask with the scan's guard bits. The
    columns to test are those of the nonzero prefix coordinates, found
    once per batch; the bound of such a coordinate is >= 1, so
    `_slack_fields` proves its entries below the guard bit (the
    normals are >= 0, as `FacetSystem` checks). The last
    coordinate needs no test: it is the least
    feasible one of its column, so v - e_d is never in the dilate.

    Lemma (the x coordinate, second to last). In a batch, xs is a
    range and the feasible t of one column form an upward-closed set
    {t >= ts[i]}, because every last entry of a normal is >= 0. A
    column outside the batch's range has no point in the dilate. So
    (prefix, x - 1, t) lies in the dilate iff x - 1 is in xs and the
    least t of that column is <= t: the x test compares each column
    with the one before it, and the first column of a batch has none.

    In d = 2 there are no prefix coordinates to test. For d = 1 the
    box is empty and its one column is the point (t,), with no column
    before it.

    Lemma (minimal output). The scan keeps exactly the lattice points
    of the dilate in the box that have no lower neighbour v - e_j in
    it, and sorts them. Such a point is minimal among all lattice
    points of the dilate: the normals are >= 0, so the dilate is closed
    upward in the orthant, and a point u <= v, u != v, in it gives the
    lower neighbour v - e_j >= u for any j with u_j < v_j. So the
    points are pairwise incomparable, one per column hence distinct,
    and sorted: they are their own minimalization, for any
    `FacetSystem` that passed its checks, whatever the box. With no
    bounded facet the dilate is the orthant, whose one minimal point
    is 0.
    """
    d = facets.dim
    if not facets.bounded:
        return ((0,) * d,)
    bounds = [n * m for m in maxexp[: d - 1]]
    rows = [(f.normal, n * f.offset) for f in facets.bounded]
    width, guard, batches = _column_scan(rows, bounds)
    # columns[j] packs the normals' entries at coordinate j; zipping
    # with a prefix reads the prefix coordinates alone
    columns = [_pack(c, width) for c in zip(*(normal for normal, _ in rows))]
    gens = []
    for prefix, xs, ts, slacks in batches:
        live = [c for p, c in zip(prefix, columns) if p]
        # v - e_x is in the dilate iff the column before has least t <= t
        fresh = itertools.chain((True,), map(operator.gt, ts, ts[1:]))
        for x, t, slack in itertools.compress(zip(xs, ts, slacks), fresh):
            if not (live and any((slack - c) & guard == guard for c in live)):
                gens.append(prefix + (x, t) if d > 1 else (t,))
    return tuple(sorted(gens))


def closure_power(
    ideal: MonomialIdeal, n: int, facets: Optional[FacetSystem] = None
) -> MonomialIdeal:
    """The integral closure of ideal^n as a monomial ideal. For
    n <= 0 returns the unit ideal, matching the power convention.
    Like `ideal ** n`, refuses an n that fails `_exact_int` with
    TypeError, before any work.

    Solved once per job. The scan, `_dilate_minimal_points(facets, n,
    maxexp)`, reads only its arguments, a frozen `FacetSystem`, an int
    and a tuple of ints, all compared by value, and returns a tuple of
    tuples. So within one job (`ideals._job`) it runs once per input
    and a repeat returns what a fresh scan would (the lemma of
    `ideals._once`). A BudgetExceededError is stored by no job: it is
    raised again, in the same words.

    Lemma (trusted points). The scan's points are already the sorted
    minimal generators (the lemma of `_dilate_minimal_points`), so they
    go to minimalize as an `ideals._Minimal` tuple, which it returns
    unread. Their entries are plain ints >= 0, dim of them: n is taken
    as the int it equals, and every other operand is a plain int (the
    normals and offsets of a `FacetSystem` and the ideal's maximal
    exponents). Each prefix coordinate comes from a `range` that
    starts at 0, x from a range whose start is a max with 0, and t from
    a max with 0; in d = 1 a point is (t,). A point has dim entries
    because the facets were checked to live in the ideal's dim."""
    if not _exact_int(n):
        raise TypeError("exponent must be an int")
    if n <= 0:
        return MonomialIdeal.unit(ideal.dim)
    facets = _facets_for(ideal, facets)
    gens = _once(_dilate_minimal_points, facets, int(n), ideal.max_exponents())
    return MonomialIdeal(ideal.dim, _Minimal(gens))

