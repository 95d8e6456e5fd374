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

Route 2's generators come from one of two kernels. A cone with one
bounded facet reads them off its residue box in closed form
(`_residue_generators`). Every other cone runs the column scan
(`_swept_generators`) over the search box, the sum of the extreme
rays, which holds every minimal generator by the lemma of
`_canonical_scan`. That lemma needs the true extreme rays, in the
nonnegative orthant, and both kernels need e_(d+1) in the cone, every
row's last entry >= 0: `ReesCone` solves its rays from its matrix and
refuses a cone whose rays leave the orthant or that has a row with a
negative last entry.

A disagreement raises InvariantViolationError rather than returning
either answer.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import List, Optional, Sequence, Tuple

from .errors import (
    ConeGeometryError,
    InapplicableError,
    InvariantViolationError,
    NotMPrimaryError,
)
from .ideals import (
    MonomialIdeal,
    Vector,
    _Value,
    _axes,
    _check_dim,
    _exact_vector,
    _once,
)
from .polyhedra import (
    FacetSystem,
    _check_column_budget,
    _column_scan,
    _dot,
    _facets_for,
    extreme_rays,
)


class ReesCone(_Value):
    """Facet matrix of the semigroup cone, in the orthant coordinates
    described in the module docstring, and its extreme rays. The matrix
    is all a consumer reads of the facets of NP(I): a row with last
    entry h > 0 is the lifted row (a - h*1, h) of the bounded facet
    <a, x> >= h, and the d rows with last entry 0 are the coordinate
    rows. That layout is written only in `lift_halfspaces`.

    The fields are dim and matrix, so equality, hash, repr and pickle
    read those two; the rows are stored as tuples, and dim as the plain
    int `_check_dim` returns. `rays` is no field but a value worked out
    from them when the cone is built: the sorted primitive extreme rays
    `extreme_rays(matrix, dim + 1)` returns, solved through the job
    memo. Refuses, with InvalidIdealError, a dim that is no positive
    int, and, by `extreme_rays`, a row of another length or with an
    entry that is no int, the first flawed row deciding; a matrix whose
    cone is not pointed or not full dimensional raises the kernel's own
    ConeGeometryError. Then refuses, with ConeGeometryError naming
    them, rows whose last entry is negative, so that e_(d+1) lies
    outside the cone, and rays with a negative entry. The search box of
    `_canonical_scan` rests on rays that are the true ones and lie in
    the orthant, and both kernels on e_(d+1) in the cone. No lift has
    such a row or ray: its rows end in h > 0 or 0."""

    dim: int
    matrix: Tuple[Vector, ...]

    def __init__(self, dim: int, matrix: Tuple[Vector, ...]) -> None:
        dim = _check_dim(dim)
        matrix = tuple(map(tuple, matrix))
        rays = extreme_rays(matrix, dim + 1)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "rays", rays)
        below = [row for row in matrix if row[dim] < 0]
        if below:
            raise ConeGeometryError(f"rows {below} have a negative last entry")
        if min(itertools.chain(*rays), default=0) < 0:
            outside = [r for r in rays if min(r) < 0]
            raise ConeGeometryError(
                f"extreme rays {outside} leave the nonnegative orthant"
            )

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
    return ReesCone(d, rows)


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


class CanonicalData(_Value):
    """Canonical module of the normalized algebra: minimal generators
    of the interior-point module, with two boxes. The search box is
    the sum of the extreme rays, which holds every minimal generator
    (the lemma of `_canonical_scan`); a cone with several bounded
    facets is scanned over it, and a one-facet cone searches none of
    it. The sweep box, one more on every side, is the box the column
    budget is checked on."""

    q: int
    generators: Tuple[Vector, ...]
    gorenstein: bool
    a_invariant: int
    search_box: Tuple[int, ...]
    sweep_box: Tuple[int, ...]


def canonical_generators(cone: ReesCone) -> CanonicalData:
    """Minimal generators of the module of interior lattice points,
    found by `_canonical_scan`, whose docstring and those of its two
    kernels prove it.

    Solved once per job. `_canonical_scan` reads only the cone, a frozen
    `ReesCone` compared by value on its dim and matrix of tuples of
    ints, its rays a function of these two, and returns a frozen
    `CanonicalData` of ints, bools and tuples. So within one
    job (`ideals._job`) it runs once per cone and a repeat returns
    what a fresh scan would (the lemma of `ideals._once`). Its
    refusals (BudgetExceededError, InvariantViolationError) are stored
    by no job: each is raised again, in the same words.
    """
    return _once(_canonical_scan, cone)


def _canonical_scan(cone: ReesCone) -> CanonicalData:
    """Minimal generators of the module of interior lattice points,
    with q, the a-invariant and the invariant checks on them.

    Lemma (the search box). Every minimal generator lies in the
    zonotope sum_r [0, 1] * r over the extreme rays r, so it lies,
    coordinatewise, under the sum of the rays, the search box. Write
    an interior lattice point v = sum_r mu_r * r with every mu_r >= 0,
    as the rays generate the cone, and suppose mu_s > 1 for a ray s.
    Then v - s = sum_{r != s} mu_r * r + (mu_s - 1) * s lies in the
    cone. A row f of the matrix, an integer vector, with f(s) = 0 has
    f(v - s) = f(v) >= 1. Any other row has f(s) > 0, and
    f(v - s) >= (mu_s - 1) * f(s) > 0, as f is >= 0 on every ray; the
    value is an integer, so it is >= 1. So v - s is an interior
    lattice point, and v = (v - s) + s, s a lattice point of the cone,
    is not minimal. The rays are >= 0, so the zonotope lies under their
    sum. `ReesCone` solves its rays from its matrix and refuses rays
    that leave the orthant, so the lemma holds for every cone: the box
    is a proved bound, and nothing is swept at run time.

    The sweep box, one more on every side, is what the column budget
    is checked on, in input order, before either kernel runs, so an
    oversized input fails with that box in its message on both paths.

    A one-facet cone that passes the gate of `_residue_sides` reads
    its generators off its residue box, by `_residue_generators`. Any
    other cone runs the column scan `_swept_generators` over the search
    box. On a one-facet cone the scan would accept exactly the minimal
    generators the box holds, which by the lemma are all of them: the
    set that `_residue_generators` proves. Each kernel returns its
    generators in the order it finds them; they are sorted here, once,
    by (coordinate sum, v).
    """
    d = cone.dim
    q = compute_q(cone)
    box = tuple(map(sum, zip(*cone.rays)))
    sweep = tuple(b + 1 for b in box)
    _check_column_budget(sweep[:d])
    facet = _residue_sides(cone)
    if facet is None:
        accepted = _swept_generators(cone, box)
    else:
        accepted = _residue_generators(*facet)
    accepted.sort(key=lambda v: (sum(v), v))

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


def _residue_sides(
    cone: ReesCone,
) -> Optional[Tuple[Tuple[int, ...], int, Tuple[int, ...]]]:
    """(n, h, a) when the generators of the cone can be read off its
    residue box, else None.

    That is when the matrix is one lifted row (n - h*1, h) and the d
    coordinate rows, and every a_i = h / n_i is a positive integer.
    The search box is then (a_1, ..., a_d, 1 + sum_i (a_i - 1)), the
    sum of the extreme rays `ReesCone` solves from its matrix. The
    matrix has the shape of the one-row lemma of
    `polyhedra._cone_rays`, which gives the rays e_{d+1} and
    primitive(h e_i + (h - n_i) e_{d+1}) = (a_i e_i, a_i - 1), as
    h = n_i a_i and a_i, a_i - 1 are coprime. A cone built by
    `lift_halfspaces` from an ideal whose Newton polyhedron has one
    bounded facet <n, x> >= h therefore passes: that facet holds the
    vertex a_i e_i on every axis, so n_i a_i = h.
    """
    d = cone.dim
    lifted = [row for row in cone.matrix if row[d] > 0]
    if len(cone.matrix) != d + 1 or len(lifted) != 1:
        return None
    if set(cone.matrix) - set(lifted) != set(_axes((1,) * d, d + 1)):
        return None
    *head, h = lifted[0]
    normal = tuple(c + h for c in head)
    if any(n <= 0 or h % n for n in normal):
        return None
    return normal, h, tuple(h // n for n in normal)


def _residue_generators(
    normal: Tuple[int, ...], h: int, sides: Tuple[int, ...]
) -> List[Vector]:
    """Minimal generators of the interior-point module of the cone cut
    out by the lifted row (n - h*1, h) and the coordinate rows, where
    every a_i = h / n_i is a positive integer, in the order the walk
    finds them (`_canonical_scan` sorts them).

    Write N(z) = <n, z> for z in Z^d. The lifted row takes the value
    N(z) - h*(sum(z) - t) at (z, t), so (z, t) is interior iff z >= 1
    and sum(z) - t <= (N(z) - 1) / h.

    - The least interior point of the column over z >= 1 is
      m(z) = (z, sum(z) - b(z)) with b(z) = (N(z) - 1) // h. Write
      N(z) - 1 = h*b(z) + rho(z), 0 <= rho(z) < h.
    - Every interior point is m(z) + j e_{d+1}, j >= 0, and e_{d+1} is
      in the cone, so the minimal generators are among the m(z). And
      m(z) is minimal iff m(z) - m(z') is in the cone for no z' != z:
      if v - m(z') - j e_{d+1} is in the cone for some j >= 0, then so
      is v - m(z'), adding j e_{d+1}.
    - m(z) - m(z') is in the cone iff z' <= z and rho(z') <= rho(z):
      the coordinate rows ask z' <= z, and the lifted row takes the
      value N(z - z') - h*(b(z) - b(z')) = rho(z) - rho(z') there.
    - rho(z + a_i e_i) = rho(z), as N grows by n_i a_i = h. So if some
      z_i > a_i, then z' = z - a_i e_i has rho(z') = rho(z) and m(z)
      is not minimal. Every minimal generator has z in the residue box
      prod_i [1, a_i], and there m(z) is minimal iff rho(z) is below
      rho(z') for every z' in [1, z] other than z.

    So one pass over the residue box finds them. Let P(z) be the least
    rho over [1, z]. The box is walked in lines along its longest side
    k (the last such side on a tie), x = z_k. Let O be the least of the
    lines of P one step below the current line in each other
    coordinate (none on the first line), so O(x) is the least rho over
    the z' <= z outside the line.
    - Along the line, with c = (N(z) - 1 - n_k x) mod h,
      rho = (c + n_k x) mod h, for x = 1, ..., a_k. It climbs by n_k
      from c + n_k while below h, wraps once, at x = w + 1 with
      w = a_k - 1 - c // n_k, to c mod n_k, and climbs again to c
      (n_k a_k = h). So its running minimum is the step S that is
      `first` = rho(1) for x <= w and `low` = c mod n_k from the wrap
      on, and only x = 1 and the wrap can be below every rho before
      them on the line.
    - So P = min(S, O) along the line, and the minimal m(z) of the
      line are those two points, each kept iff its rho is below O
      there (always, on the first line).

    Three lemmas skip the work on lines that hold no generator. P and
    O never go below 0, as no rho does, and neither increases along x,
    since each is a least value over a set that grows with x.
    - Lines without a candidate. If neither x = 1 nor the wrap is below
      O, then P = O on the line: before the wrap
      S = first >= O(1) >= O(x), and from the wrap on
      S = low >= O(w + 1) >= O(x) (with no wrap, first = low). Such a
      line stores O itself and builds no S.
    - Dead lines. If a line one step below is all 0, then so is O, no
      rho is below it, and P = O = 0. Such a line stores one shared
      zero line and computes neither c nor S.
    - Early stop. Call a line a corner when every outer coordinate but
      the outermost is 1. Every later line of the walk
      (`itertools.product` order, outermost coordinate first) lies
      above the corner in every outer coordinate, so at each x the
      corner's point lies in [1, z] outside the later line, and O there
      is at most the corner's P. Once a corner's stored P starts at 0
      it is 0 on the whole line, every later O is 0, no later line
      holds a generator, and the walk stops. The only line one step
      below a corner is the corner before it, which was not 0 (else the
      walk had stopped), so a corner is never dead, and the test runs
      only after a line's P is computed. A Gorenstein cone, with
      rho(1, ..., 1) = 0, stops after its first line.
    A line with a candidate stores min(S, O), which at the candidate's
    x is below every line under it, so it equals none of them.

    The lines of P are kept in one slab: the lines whose outermost
    coordinate is the current one or the one before, each slot
    overwritten once its line is read for the last time. The outermost
    coordinate is the longest side other than k, so the slab holds
    prod_i a_i / a_outer entries, not the whole box. A corner is slot
    0 of its layer.
    """
    d = len(sides)
    # the longest side first, the last such side on a tie
    k, *outer = sorted(range(d), key=lambda i: (sides[i], i), reverse=True)
    n_k, a_k = normal[k], sides[k]
    # slot strides of the outer coordinates; the line one step below in
    # the outermost one is in the same slot, a layer back
    strides = [0] + [
        math.prod(sides[i] for i in outer[j + 1 :])
        for j in range(1, len(outer))
    ]
    slab: List[List[int]] = [[]] * math.prod(sides[i] for i in outer[1:])
    weights = [normal[i] for i in outer]
    zero = [0] * a_k
    found: List[Vector] = []
    ranges = [range(1, sides[i] + 1) for i in outer]
    for slot, prefix in enumerate(itertools.product(*ranges)):
        slot %= len(slab)
        below = [slab[slot - s] for s, z in zip(strides, prefix) if z > 1]
        if zero in below:  # a dead line
            slab[slot] = zero
            continue
        top = sum(map(operator.mul, weights, prefix)) - 1
        c = top % h
        w = a_k - 1 - c // n_k
        low = c % n_k
        first = c + n_k if w else low
        if not below:  # the first line: nothing below, h exceeds every rho
            below = [[h] * a_k]
        other = below[0] if len(below) == 1 else list(map(min, *below))
        # x counts from 0 here: the wrap is at x = w
        xs = [0] if first < other[0] else []
        if w and low < other[w]:
            xs.append(w)
        if xs:
            step = [first] * w + [low] * (a_k - w)
            slab[slot] = list(map(min, step, other))
            for x in xs:
                z = [0] * d
                for i, v in zip(outer, prefix):
                    z[i] = v
                z[k] = x + 1
                z.append(sum(z) - (top + n_k * (x + 1)) // h)
                found.append(tuple(z))
        else:  # a line without a candidate keeps its floor
            slab[slot] = other
        if not slot and not slab[slot][0]:  # a corner at 0: stop
            break
    return found


def _swept_generators(cone: ReesCone, box: Tuple[int, ...]) -> List[Vector]:
    """Minimal generators of the module of interior lattice points, by
    a column scan over the search box, in the order the scan accepts
    them (`_canonical_scan` sorts them).

    The box holds every minimal generator (the lemma of
    `_canonical_scan`). Interior points of the box are generators iff
    they are not a previously accepted generator plus a cone point.
    The scan visits only the least interior point of each column (the
    points sharing their first d coordinates), and stays exact:

    - e_{d+1} is in the cone: every row takes its last entry there,
      which is >= 0, as `ReesCone` refuses any other (on a lift, the
      coordinate rows are 0 on it and the lifted rows equal h > 0).
    - So the interior points of each column are upward-closed.
    - A point above its column minimum m is m plus a multiple of
      e_{d+1}, so it is generated whenever m is, and is never a
      minimal generator.

    The column minima over the first d sides of the box are the
    candidates, whatever their t. Every minimal generator is one of
    them, and the lemma below shows that the scan accepts exactly the
    minimal generators, so none above the box's height t <= box[d].

    The scan is oriented: it runs with the first d coordinates
    permuted so that the longest of the first d sides, side k, comes
    last among them and becomes the column coordinate x, while t stays
    last. The scan yields one batch per prefix of the other d - 1
    coordinates, so this makes the number of batches, and the
    per-batch overhead, the least the box allows, whatever the order
    in which the variables are labelled. Each point is mapped back to
    input coordinates by putting x in again at position k, so the
    generators are in input coordinates.

    Lemma. If v - g lies in the cone, then g comes no later than v in
    the lexicographic order of any permutation of the first d
    coordinates followed by t. The cone lies in the orthant, as its
    rays do (`ReesCone` refuses others), so v - g >= 0: z_g <= z_v
    coordinatewise, z the first d coordinates, and so z_g <=_lex z_v
    in any order of them, and t_g <= t_v. Every point that generates v thus comes no later in
    the oriented scan. So the scan accepts a candidate v iff v is a
    minimal generator, by induction along the scan. A minimal v is
    generated by no other interior point. A v that is not minimal is
    generated by a minimal generator g != v, which lies in the box and
    is a column minimum, so g is a candidate that comes before v and
    was accepted. So the accepted set does not depend on the
    orientation, though the order the scan accepts it in does.

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
    # the longest side becomes x (the last such side on a tie)
    k = max(range(d), key=lambda i: (box[i], i))
    order = [*range(k), *range(k + 1, d), k, d]
    rows = [(tuple(row[i] for i in order), 1) for row in cone.matrix]
    _, guard, batches = _column_scan(rows, [box[i] for i in order[:d]])
    accepted: List[Vector] = []
    floors: List[int] = []
    for prefix, xs, ts, slacks in batches:
        for x, t, slack in zip(xs, ts, slacks):
            for floor in floors:
                if (slack - floor) & guard == guard:
                    break
            else:
                accepted.append(prefix[:k] + (x,) + prefix[k:] + (t,))
                floors.append(slack ^ guard)
    return accepted


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


class PurePowerTest(_Value):
    """Closed-form Gorenstein test for ideals of pure powers.

    With L = lcm(a_1, ..., a_d), write sum_i L / a_i = j * L + p with
    1 <= p <= L. The normalized algebra is Gorenstein iff p = 1.

    Its a-invariant is -j (`quotient`). The cone has the one bounded
    facet sum_i z_i / a_i >= 1, so by the lemma of `_residue_generators`
    its minimal generators are points m(z) = (z, sum(z) - b(z)), z >= 1,
    with b(z) = (N(z) - 1) // h = ceil(N(z) / h) - 1. That depends on
    N / h alone, so take n_i = L / a_i and h = L. z = (1, ..., 1) is
    always kept, as [1, z] holds no other point, and b grows with z,
    as every n_i > 0. So a = -min b(z) over the generators
    = -b(1, ..., 1) = -((sum_i L / a_i - 1) // L) = -j, since
    sum_i L / a_i - 1 = j * L + (p - 1) with 0 <= p - 1 < L.
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
