"""The cone of the normalized extended Rees algebra and its canonical
module.

For an ideal I primary to the maximal ideal, the monomials of the
normalized extended Rees algebra form an affine semigroup in d + 1
coordinates: x^z t^b lies in it iff z is integral over I^b (no
condition beyond z >= 0 when b <= 0). Changing the last coordinate by
(z, b) -> (z, sum(z) - b) maps this semigroup into the nonnegative
orthant, where the cone it spans is cut out exactly by

    one row (a - h*1, h) per bounded facet <a, x> >= h of NP(I),
    plus the d coordinate rows.

All rows are facets of the cone, so the relative interior is the set
of points with every row value >= 1. By local duality the lattice
points of the relative interior generate the canonical module, and the
structure of that module is what the functions here extract: its
minimal generators, the degree invariant, and the Gorenstein property
(canonical module principal). The Gorenstein decision is always run
along two independent routes that must agree:

  route 1: every row of the facet matrix takes the value 1 at
           (1, ..., 1, q),
  route 2: the computed minimal generator set is a singleton.

Route 1 is the Danilov-Stanley criterion (Bruns-Herzog, Cohen-Macaulay
Rings, 6.3): a normal affine semigroup ring is Gorenstein iff some
lattice point takes the value 1 on every primitive support form. The
rows are those forms: a lifted row (a - h*1, h) is primitive because
the facet normal a is, so its entries have gcd(a, h) = 1; a coordinate
row is primitive too. The coordinate rows force the point to be
(1, ..., 1, t), and since the lifted rows grow with t, the only
candidate is t = q. Route 1 enumerates nothing, so it does not depend
on the search region that route 2 relies on.

A disagreement raises InvariantViolationError rather than returning
either answer.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import (
    IncompleteSearchError,
    InapplicableError,
    InvariantViolationError,
    NotMPrimaryError,
)
from .ideals import MonomialIdeal, Vector, _axes, _exact_vector, _once
from .polyhedra import (
    FacetSystem,
    _check_column_budget,
    _column_scan,
    _dot,
    _facets_for,
    extreme_rays,
)


@dataclass(frozen=True)
class ReesCone:
    """Facet matrix and extreme rays of the semigroup cone, in the
    orthant coordinates described in the module docstring. The matrix
    is all a consumer reads of the facets of NP(I): a row with last
    entry h > 0 is the lifted row (a - h*1, h) of the bounded facet
    <a, x> >= h, and the d rows with last entry 0 are the coordinate
    rows. That layout is written only in `lift_halfspaces`."""

    dim: int
    matrix: Tuple[Vector, ...]
    rays: Tuple[Vector, ...]

    def relint_member(self, v: Sequence[int]) -> bool:
        """Is v a lattice point of the relative interior, every facet
        row >= 1 at v? Like `FacetSystem.contains_power`, refuses a v
        of the wrong length or with an entry that is no int."""
        where = f"a cone in {self.dim + 1} coordinates"
        w = _exact_vector(v, self.dim + 1, where)
        return all(_dot(row, w) >= 1 for row in self.matrix)


def lift_halfspaces(facets: FacetSystem) -> ReesCone:
    """Build the cone from a facet description of NP(I).

    Refuses sources that are not primary to the maximal ideal, since
    the orthant embedding needs every bounded facet normal strictly
    positive.
    """
    if not facets.is_m_primary_source():
        raise NotMPrimaryError(
            "cone construction requires an ideal primary to the maximal ideal"
        )
    d = facets.dim
    rows = [
        tuple(a - f.offset for a in f.normal) + (f.offset,)
        for f in facets.bounded
    ] + _axes((1,) * d, d + 1)
    rays = extreme_rays(rows, d + 1)
    return ReesCone(dim=d, matrix=tuple(rows), rays=rays)


def compute_q(cone: ReesCone) -> int:
    """The least q with (1, ..., 1, q) in the relative interior.

    The coordinate rows take the value 1 there for every q. A row of
    the matrix with last entry h > 0 takes the value s + h*q, where
    s = sum(row[:d]), increasing in q; it is >= 1 iff
    q >= ceil((1 - s) / h) = -((s - 1) // h). So q is the largest of 1
    and these ceilings. For the lifted row (a - h*1, h) this is
    sum(a) + h*(q - d). The result must land in [1, d + 1], the probe
    must be interior and q - 1 must not be; anything else means the
    cone data is corrupt and raises InvariantViolationError.
    """
    d = cone.dim
    q = 1
    for *head, h in cone.matrix:
        if h > 0:
            q = max(q, -((sum(head) - 1) // h))
    if q > d + 1:
        raise InvariantViolationError(
            f"interior degree q = {q} exceeds d + 1 = {d + 1}"
        )
    probe = (1,) * d + (q,)
    if not cone.relint_member(probe):
        raise InvariantViolationError(f"{probe} not interior at computed q")
    if q > 1 and cone.relint_member((1,) * d + (q - 1,)):
        raise InvariantViolationError(f"q = {q} is not minimal")
    return q


@dataclass(frozen=True)
class CanonicalData:
    """Canonical module of the normalized algebra: minimal generators
    of the interior-point module, with the search certificate."""

    q: int
    generators: Tuple[Vector, ...]
    gorenstein: bool
    a_invariant: int
    search_box: Tuple[int, ...]
    sweep_box: Tuple[int, ...]


def canonical_generators(cone: ReesCone) -> CanonicalData:
    """Minimal generators of the module of interior lattice points,
    found by the scan `_canonical_scan`, whose docstring proves it.

    Solved once per job. The scan reads only the cone, a frozen
    `ReesCone` of tuples of ints compared by value, and returns a
    frozen `CanonicalData` of ints, bools and tuples. So within one
    job (`ideals._job`) it runs once per cone and a repeat returns
    what a fresh scan would (the lemma of `ideals._once`). Its
    refusals (IncompleteSearchError, BudgetExceededError,
    InvariantViolationError) are stored by no job: each is raised
    again, in the same words.
    """
    return _once(_canonical_scan, cone)


def _canonical_scan(cone: ReesCone) -> CanonicalData:
    """Minimal generators of the module of interior lattice points.

    Every minimal generator lies, coordinatewise, under the sum of the
    extreme rays (a point beyond that splits off an extreme ray while
    staying interior). Interior points of that box are generators iff
    they are not a previously accepted generator plus a cone point. A
    sweep over the enlarged box checks that the accepted set generates
    every interior point there, so an undersized search region fails
    loudly instead of returning a short list.

    Both the search and the sweep visit only the least interior point
    of each column (the points sharing their first d coordinates), and
    stay exact:

    - e_{d+1} is in the cone: the coordinate rows are 0 on it and the
      lifted rows equal h > 0.
    - So the interior points of each column are upward-closed.
    - A point above its column minimum m is m plus a multiple of
      e_{d+1}, so it is generated whenever m is. So no such point is
      ever a minimal generator, and the sweep fails on it only if it
      fails on m, which lies in the same box.

    One scan over the sweep box serves both, in one pass in the scan's
    lexicographic order. Its column minima inside the search box are
    the candidates; every other one up to the sweep height must be
    generated by the accepted set.

    The scan is oriented: it runs with the first d coordinates
    permuted so that the longest of the first d sweep sides, side k,
    comes last among them and becomes the column coordinate x, while t
    stays last. The scan yields one batch per prefix of the other
    d - 1 coordinates, so this makes the number of batches, and the
    per-batch overhead, the least the box allows, whatever the order
    in which the variables are labelled. Each point is mapped back to
    input coordinates by putting x in again at position k, so the
    generators, both boxes and every message are in input
    coordinates. The budget is checked on the sweep box in input
    order before the scan, so its message names that box too.

    Lemma. If v - g lies in the cone, then g comes no later than v in
    the lexicographic order of any permutation of the first d
    coordinates followed by t. The coordinate rows give z_g <= z_v
    coordinatewise, z the first d coordinates, and so z_g <=_lex z_v
    in any order of them. When z_g = z_v a lifted row (a - h*1, h),
    h > 0, takes the value h * (t_v - t_g) >= 0 at v - g, so
    t_g <= t_v. Every point that generates v thus comes no later in
    the oriented scan. So a candidate is a minimal generator iff no
    candidate accepted before it generates it: a generating candidate
    that was itself rejected is generated by an accepted one, and so
    is v, since the cone is closed under addition. A sweep point is
    generated by the final accepted set iff it is generated by the
    part accepted before it. So the accepted set, and the set of
    ungenerated sweep points, do not depend on the orientation. The
    lexicographically least ungenerated sweep point in input
    coordinates is kept, and raised with the full accepted list once
    the pass ends. The accepted generators are sorted by
    (coordinate sum, v) at the end. The prefix is tested against the
    search box once per batch, and only x <= box[k] and t <= box[d]
    per column.

    The generated-by test compares slacks instead of forming v - g.
    Every row is linear, so row . (v - g) >= 0 for every row of the
    facet matrix M exactly when M v - 1 >= M g - 1 componentwise: v
    is generated iff its slack dominates the slack of some accepted g.
    The scan yields every slack packed into one int with its guard
    bits G set, and returns G with its batches; an accepted g keeps
    its slack unguarded, slack ^ G. So each test is one subtraction
    and one mask, (slack - floor) & G == G (see
    `polyhedra._slack_fields`).
    """
    d = cone.dim
    q = compute_q(cone)
    box = tuple(sum(r[i] for r in cone.rays) for i in range(d + 1))
    sweep = tuple(b + 1 for b in box)
    _check_column_budget(sweep[:d])
    # the longest side becomes x (the last such side on a tie)
    k = max(range(d), key=lambda i: (sweep[i], i))
    order = [*range(k), *range(k + 1, d), k, d]
    rows = [(tuple(row[i] for i in order), 1) for row in cone.matrix]
    _, guard, batches = _column_scan(rows, [sweep[i] for i in order[:d]])
    outer_box = box[:k] + box[k + 1 : d]
    x_box, t_box, t_sweep = box[k], box[d], sweep[d]
    accepted: List[Vector] = []
    floors: List[int] = []
    missed: Optional[Vector] = None
    for prefix, xs, ts, slacks in batches:
        inside = all(map(operator.le, prefix, outer_box))
        for x, t, slack in zip(xs, ts, slacks):
            if t > t_sweep:
                continue
            for floor in floors:
                if (slack - floor) & guard == guard:
                    break
            else:
                point = prefix[:k] + (x,) + prefix[k:] + (t,)
                if inside and x <= x_box and t <= t_box:
                    accepted.append(point)
                    floors.append(slack ^ guard)
                elif missed is None or point < missed:
                    missed = point
    accepted.sort(key=lambda v: (sum(v), v))
    if missed is not None:
        raise IncompleteSearchError(
            f"interior point {missed} is not generated by {accepted}; "
            f"search box {box} was too small"
        )

    base = (1,) * d + (q,)
    if base not in accepted:
        raise InvariantViolationError(
            f"{base} is missing from the canonical generators {accepted}"
        )
    a_inv = -min(sum(g[:d]) - g[d] for g in accepted)
    if a_inv < q - d:
        raise InvariantViolationError(
            f"a-invariant {a_inv} below its lower bound {q - d}"
        )
    gorenstein = len(accepted) == 1
    if gorenstein and a_inv != q - d:
        raise InvariantViolationError(
            f"principal canonical module but a-invariant {a_inv} != {q - d}"
        )
    return CanonicalData(
        q=q,
        generators=tuple(accepted),
        gorenstein=gorenstein,
        a_invariant=a_inv,
        search_box=box,
        sweep_box=sweep,
    )


def is_gorenstein_normalization(
    ideal: MonomialIdeal, facets: Optional[FacetSystem] = None
) -> Tuple[bool, CanonicalData]:
    """Decide whether the normalized extended Rees algebra is
    Gorenstein, by both routes (see module docstring); returns the
    verdict and the canonical module data."""
    cone = lift_halfspaces(_facets_for(ideal, facets))
    data = canonical_generators(cone)

    base = (1,) * cone.dim + (data.q,)
    values = [_dot(row, base) for row in cone.matrix]
    route1 = all(w == 1 for w in values)
    route2 = data.gorenstein
    if route1 != route2:
        raise InvariantViolationError(
            f"Gorenstein routes disagree: the facet rows take the values "
            f"{values} at {base}, so the facet check says {route1}; "
            f"generator count says {route2} "
            f"({len(data.generators)} generators)"
        )
    return route2, data


@dataclass(frozen=True)
class PurePowerTest:
    """Closed-form Gorenstein test for ideals of pure powers.

    With L = lcm(a_1, ..., a_d), write sum_i L / a_i = j * L + p with
    1 <= p <= L. The normalized algebra is Gorenstein iff p = 1.
    """

    exponents: Tuple[int, ...]
    lcm: int
    quotient: int
    remainder: int
    gorenstein: bool


def pure_power_gorenstein_test(ideal: MonomialIdeal) -> PurePowerTest:
    exps = ideal.pure_power_exponents()
    if exps is None:
        raise InapplicableError(
            "the closed-form test applies only to ideals generated by "
            "pure powers of every variable"
        )
    lcm = math.lcm(*exps)
    total = sum(lcm // a for a in exps)
    p = total % lcm
    if p == 0:
        p = lcm
    j = (total - p) // lcm
    return PurePowerTest(
        exponents=exps,
        lcm=lcm,
        quotient=j,
        remainder=p,
        gorenstein=(p == 1),
    )
