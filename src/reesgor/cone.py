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
    DimensionMismatchError,
    IncompleteSearchError,
    InapplicableError,
    InvariantViolationError,
    NotMPrimaryError,
)
from .ideals import MonomialIdeal, Vector
from .polyhedra import (
    FacetSystem,
    _column_scan,
    _dot,
    extreme_rays,
    newton_polyhedron,
)


@dataclass(frozen=True)
class ReesCone:
    """Facet matrix and extreme rays of the semigroup cone, in the
    orthant coordinates described in the module docstring."""

    dim: int
    matrix: Tuple[Vector, ...]
    rays: Tuple[Vector, ...]
    source: FacetSystem

    def relint_member(self, v: Sequence[int]) -> bool:
        w = tuple(v)
        if len(w) != self.dim + 1:
            raise DimensionMismatchError(
                f"vector of length {len(w)} against a cone in "
                f"{self.dim + 1} coordinates"
            )
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
    rows: List[Vector] = []
    for f in facets.bounded:
        rows.append(tuple(a - f.offset for a in f.normal) + (f.offset,))
    for j in range(d):
        e = [0] * (d + 1)
        e[j] = 1
        rows.append(tuple(e))
    rays = extreme_rays(rows, d + 1)
    return ReesCone(dim=d, matrix=tuple(rows), rays=rays, source=facets)


def compute_q(cone: ReesCone) -> int:
    """The least q with (1, ..., 1, q) in the relative interior.

    Each lifted row evaluates on (1, ..., 1, q) to sum(a) + h*(q - d),
    increasing in q, so the minimum is a max of ceilings. The result
    must land in [1, d + 1]; anything else means the cone data is
    corrupt and raises InvariantViolationError.
    """
    d = cone.dim
    q = 1
    for f in cone.source.bounded:
        s = sum(f.normal)
        # smallest q with s + h*(q - d) >= 1
        q = max(q, d - (s - 1) // f.offset)
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
    """Minimal generators of the module of interior lattice points.

    Every minimal generator lies, coordinatewise, under the sum of the
    extreme rays (a point beyond that splits off an extreme ray while
    staying interior). Interior points of that box are processed in
    order of increasing coordinate sum; a point is a generator iff it
    is not a previously accepted generator plus a cone point. A final
    sweep over the enlarged box re-checks that the accepted set
    generates every interior point there, so an undersized search
    region fails loudly instead of returning a short list.

    Both passes visit only the least interior point of each column
    (the points sharing their first d coordinates), and stay exact:

    - e_{d+1} is in the cone: the coordinate rows are 0 on it and the
      lifted rows equal h > 0.
    - So the interior points of each column are upward-closed.
    - A point above its column minimum m is m plus a multiple of
      e_{d+1}, so it is generated whenever m is. Since m comes first
      in the order, no such point is ever accepted, and the sweep
      fails on it only if it fails on m, which lies in the same box.

    One scan over the sweep box serves both passes. Its column minima
    inside the search box are the candidates; every other one up to the
    sweep height must be generated by the final accepted set. The
    candidates need no re-check: each was accepted or found generated,
    and the accepted set only grows. The scan yields one batch per
    prefix of the first d - 1 coordinates, so the prefix is tested
    against the search box once per batch, and only x <= box[d - 1]
    and t <= box[d] per column.

    The generated-by test compares row values instead of forming
    v - g. Every row is linear, so row . (v - g) >= 0 for every row of
    the facet matrix M exactly when M v >= M g componentwise: v is
    generated iff its value tuple M v dominates the stored tuple M g
    of some accepted g. The values M v come from the scan, which
    yields them with each point.
    """
    d = cone.dim
    q = compute_q(cone)
    box = tuple(sum(r[i] for r in cone.rays) for i in range(d + 1))
    sweep = tuple(b + 1 for b in box)
    rows = [(row, 1) for row in cone.matrix]
    accepted: List[Vector] = []
    accepted_values: List[Vector] = []
    ge = operator.ge
    x_box, t_box, t_sweep = box[d - 1], box[d], sweep[d]

    candidates: List[Tuple[Vector, Vector]] = []
    rest: List[Tuple[Vector, Vector]] = []
    for prefix, xs, ts, columns in _column_scan(rows, sweep[:d]):
        inside = all(map(operator.le, prefix, box))
        for x, t, values in zip(xs, ts, zip(*columns)):
            if t > t_sweep:
                continue
            if inside and x <= x_box and t <= t_box:
                candidates.append((prefix + (x, t), values))
            else:
                rest.append((prefix + (x, t), values))
    candidates.sort(key=lambda pair: (sum(pair[0]), pair[0]))
    for v, values in candidates:
        if not any(all(map(ge, values, floor)) for floor in accepted_values):
            accepted.append(v)
            accepted_values.append(values)
    for v, values in rest:
        if not any(all(map(ge, values, floor)) for floor in accepted_values):
            raise IncompleteSearchError(
                f"interior point {v} is not generated by {accepted}; "
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
    if facets is None:
        facets = newton_polyhedron(ideal)
    cone = lift_halfspaces(facets)
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
