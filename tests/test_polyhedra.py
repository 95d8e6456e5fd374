"""Newton polyhedron facets, extreme rays, and integral closures."""

import itertools
import math
from fractions import Fraction

import pytest

from reesgor import (
    MonomialIdeal,
    closure_power,
    extreme_rays,
    integral_closure,
    newton_polyhedron,
)
from reesgor.errors import (
    BudgetExceededError,
    ConeGeometryError,
    DimensionMismatchError,
    InvalidIdealError,
)
from reesgor.oracle import oracle_iclosure_member
from reesgor.polyhedra import COLUMN_BUDGET, _column_minima, _row_reduce

from conftest import random_ideal, random_m_primary, seeded


def facet_set(ideal):
    facets = newton_polyhedron(ideal)
    return {(f.normal, f.offset) for f in facets.bounded}


# ------------------------------------------------------------------ #
# facet enumeration


def test_facets_two_pure_powers():
    j = MonomialIdeal(2, ((2, 0), (0, 2)))
    facets = newton_polyhedron(j)
    assert facet_set(j) == {((1, 1), 2)}
    assert facets.coordinate == (0, 1)
    assert facets.is_m_primary_source()


def test_facets_principal_ideal():
    j = MonomialIdeal(2, ((1, 0),))
    facets = newton_polyhedron(j)
    assert facet_set(j) == {((1, 0), 1)}
    assert facets.coordinate == (1,)
    assert not facets.is_m_primary_source()


def test_facets_two_bounded():
    j = MonomialIdeal(2, ((3, 0), (1, 1), (0, 3)))
    assert facet_set(j) == {((1, 2), 3), ((2, 1), 3)}


def test_facets_three_variables():
    j = MonomialIdeal(3, ((2, 0, 0), (0, 2, 0), (0, 0, 4)))
    facets = newton_polyhedron(j)
    assert facet_set(j) == {((2, 2, 1), 4)}
    assert facets.coordinate == (0, 1, 2)
    assert facets.is_m_primary_source()


def test_facets_interior_generator_is_redundant():
    # (1,1) lies on the segment between (2,0) and (0,2)
    a = MonomialIdeal(2, ((2, 0), (1, 1), (0, 2)))
    b = MonomialIdeal(2, ((2, 0), (0, 2)))
    assert facet_set(a) == facet_set(b)


def test_facets_zero_ideal_rejected():
    with pytest.raises(InvalidIdealError):
        newton_polyhedron(MonomialIdeal.zero(2))


def test_facet_offsets_are_supported():
    # the offset is the minimum of the normal over the generators,
    # attained by at least one generator (the facet touches the hull)
    rng = seeded(21)
    for _ in range(15):
        ideal = random_ideal(rng, rng.choice((2, 3)))
        facets = newton_polyhedron(ideal)
        for f in facets.bounded:
            values = [
                sum(a * g for a, g in zip(f.normal, gen))
                for gen in ideal.gens
            ]
            assert min(values) == f.offset
            assert math.gcd(*f.normal) == 1


def test_facets_scale_with_powers():
    rng = seeded(22)
    for _ in range(8):
        ideal = random_ideal(rng, 2, max_coord=4)
        base = facet_set(ideal)
        for n in (2, 3):
            scaled = {(nrm, n * off) for nrm, off in base}
            assert facet_set(ideal ** n) == scaled


def test_facets_irredundant():
    # dropping any bounded facet admits a point that the full system
    # rejects, so no listed facet is implied by the others
    for gens in [
        ((2, 0), (0, 2)),
        ((3, 0), (1, 1), (0, 3)),
        ((4, 0), (2, 1), (0, 3)),
        ((2, 0, 0), (0, 2, 0), (0, 0, 4)),
    ]:
        ideal = MonomialIdeal(len(gens[0]), gens)
        facets = newton_polyhedron(ideal)
        bounded = facets.bounded
        top = max(f.offset for f in bounded) + 1
        for skip in range(len(bounded)):
            others = [f for i, f in enumerate(bounded) if i != skip]
            dropped = bounded[skip]
            witness = None
            for v in itertools.product(range(top + 1), repeat=ideal.dim):
                if all(o.evaluate(v) >= o.offset for o in others) and (
                    dropped.evaluate(v) < dropped.offset
                ):
                    witness = v
                    break
            assert witness is not None, (gens, dropped)


# ------------------------------------------------------------------ #
# extreme rays


def test_extreme_rays_orthant():
    rows = ((1, 0), (0, 1))
    assert set(extreme_rays(rows, 2)) == {(1, 0), (0, 1)}


def test_extreme_rays_simplicial_cone():
    rows = ((-2, -2, -3, 4), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    rays = set(extreme_rays(rows, 4))
    assert rays == {(0, 0, 0, 1), (0, 0, 4, 3), (0, 2, 0, 1), (2, 0, 0, 1)}


def test_extreme_rays_reject_non_pointed():
    with pytest.raises(ConeGeometryError):
        extreme_rays(((1, 0),), 2)
    with pytest.raises(ConeGeometryError):
        extreme_rays(((1, 1), (-1, -1), (0, 1)), 2)


def test_extreme_rays_drop_redundant_row():
    rows = ((1, 0), (0, 1), (1, 1))
    assert set(extreme_rays(rows, 2)) == {(1, 0), (0, 1)}


def test_extreme_rays_satisfy_rows():
    rng = seeded(23)
    for _ in range(10):
        ideal = random_m_primary(rng, rng.choice((2, 3)))
        facets = newton_polyhedron(ideal)
        d = ideal.dim
        rows = [
            tuple(a - f.offset for a in f.normal) + (f.offset,)
            for f in facets.bounded
        ]
        rows += [
            tuple(1 if i == j else 0 for i in range(d + 1)) for j in range(d)
        ]
        rays = extreme_rays(rows, d + 1)
        for r in rays:
            assert all(
                sum(a * b for a, b in zip(row, r)) >= 0 for row in rows
            )
            assert math.gcd(*r) == 1


# ------------------------------------------------------------------ #
# the rational double description, kept as the reference


def _reference_rank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    rank = 0
    for c in range(len(m[0])):
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


def _reference_inverse_columns(matrix):
    n = len(matrix)
    aug = [
        [Fraction(matrix[i][j]) for j in range(n)]
        + [Fraction(1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [tuple(aug[i][n + j] for i in range(n)) for j in range(n)]


def _reference_primitive(v):
    g = 0
    for c in v:
        g = math.gcd(g, c)
    if g == 0:
        raise ConeGeometryError("zero vector cannot be made primitive")
    return tuple(c // g for c in v)


def _reference_extreme_rays(rows, dim):
    """extreme_rays as it was over Fraction: the base picked by one
    rank per row, its rays from a rational inverse, and every ray's
    tight set recomputed from scratch at every step."""
    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    constraints = [tuple(int(x) for x in row) for row in rows]
    if any(len(a) != dim for a in constraints):
        raise DimensionMismatchError("constraint row of wrong length")
    if _reference_rank(constraints) < dim:
        raise ConeGeometryError(
            "cone is not pointed: constraint normals do not span"
        )
    base, base_indices = [], set()
    for idx, a in enumerate(constraints):
        if _reference_rank(base + [a]) > len(base):
            base.append(a)
            base_indices.add(idx)
            if len(base) == dim:
                break
    rays = sorted(
        _reference_primitive(
            [int(x * math.lcm(*(y.denominator for y in col))) for x in col]
        )
        for col in _reference_inverse_columns(base)
    )
    processed = list(base)
    for idx, a in enumerate(constraints):
        if idx in base_indices:
            continue
        values = {r: dot(a, r) for r in rays}
        if all(v >= 0 for v in values.values()):
            processed.append(a)
            continue
        masks = {
            r: sum(1 << i for i, b in enumerate(processed) if dot(b, r) == 0)
            for r in rays
        }

        def adjacent(p, q):
            common = masks[p] & masks[q]
            if common.bit_count() < dim - 2:
                return False
            return not any(
                r != p and r != q and (masks[r] & common) == common
                for r in rays
            )

        kept = {r for r in rays if values[r] >= 0}
        for p in rays:
            for q in rays:
                if values[p] > 0 and values[q] < 0 and adjacent(p, q):
                    kept.add(_reference_primitive(
                        [values[p] * qc - values[q] * pc for pc, qc in zip(p, q)]
                    ))
        processed.append(a)
        rays = sorted(kept)
    if _reference_rank(rays) < dim:
        raise ConeGeometryError(
            "cone is not full dimensional: extreme rays span a proper subspace"
        )
    return tuple(rays)


def _outcome(fn, rows, dim):
    try:
        return fn(rows, dim)
    except (ConeGeometryError, DimensionMismatchError) as exc:
        return type(exc), str(exc)


def _row_sets(rng, count):
    """Seeded constraint sets for extreme_rays: homogenized Newton
    constraints, lifted cone rows, and random rows in [-4, 4] with
    repeated, scaled, negated, summed and zero rows mixed in, so that
    non-pointed, not full-dimensional, redundant and degenerate cones
    all occur."""
    for i in range(count):
        kind = i % 4
        dim = rng.randint(2, 6) if kind == 3 else rng.randint(2, 4)
        if kind == 0:
            ideal = random_ideal(rng, dim, max_coord=4)
            rows = [g + (1,) for g in ideal.gens] + [
                tuple(int(k == j) for k in range(dim + 1)) for j in range(dim)
            ]
            yield rows, dim + 1
            continue
        if kind == 1:
            facets = newton_polyhedron(random_m_primary(rng, dim, max_coord=4))
            rows = [
                tuple(a - f.offset for a in f.normal) + (f.offset,)
                for f in facets.bounded
            ] + [
                tuple(int(k == j) for k in range(dim + 1)) for j in range(dim)
            ]
            yield rows, dim + 1
            continue
        rows = [
            tuple(rng.randint(-4, 4) for _ in range(dim))
            for _ in range(rng.randint(1, dim + 3))
        ]
        for _ in range(rng.randint(0, 2)):
            a, b = rng.choice(rows), rng.choice(rows)
            rows.append(rng.choice((
                a,
                tuple(2 * x for x in a),
                tuple(-x for x in a),
                tuple(x + y for x, y in zip(a, b)),
                (0,) * dim,
            )))
        rng.shuffle(rows)
        yield rows, dim


def test_extreme_rays_match_the_rational_reference():
    rng = seeded(29)
    outcomes = set()
    for rows, dim in _row_sets(rng, 1500):
        expected = _outcome(_reference_extreme_rays, rows, dim)
        assert _outcome(extreme_rays, rows, dim) == expected, (rows, dim)
        outcomes.add(expected[1] if isinstance(expected[0], type) else "rays")
    assert outcomes == {
        "rays",
        "cone is not pointed: constraint normals do not span",
        "cone is not full dimensional: extreme rays span a proper subspace",
    }


def test_row_reduce_keeps_the_rank_rises_and_inverts():
    rng = seeded(30)
    for _ in range(200):
        width = rng.randint(1, 6)
        rows = [
            tuple(rng.randint(-4, 4) for _ in range(width))
            for _ in range(rng.randint(1, width + 3))
        ]
        rows += [rng.choice(rows) for _ in range(rng.randint(0, 2))]
        rng.shuffle(rows)
        kept, pivots = _row_reduce(rows)
        assert kept == [
            i for i in range(len(rows))
            if _reference_rank(rows[: i + 1]) > _reference_rank(rows[:i])
        ]
        columns = [c for c, _ in pivots]
        for c, row in pivots:
            assert row[c] > 0
            assert all(row[k] == 0 for k in columns if k != c)
        if len(kept) < width:
            continue
        # a nonsingular base: recover the inverse columns from the
        # reduced [base | identity] and multiply back
        base = [rows[i] for i in kept]
        _, reduced = _row_reduce(
            [b + tuple(int(k == j) for k in range(width))
             for j, b in enumerate(base)]
        )
        reduced.sort()
        scale = math.lcm(*(row[c] for c, row in reduced))
        inverse = [
            [row[width + j] * (scale // row[c]) for c, row in reduced]
            for j in range(width)
        ]
        for i, b in enumerate(base):
            for j, col in enumerate(inverse):
                value = sum(x * y for x, y in zip(b, col))
                assert value == (scale if i == j else 0)
        assert scale > 0


# ------------------------------------------------------------------ #
# column scan


def test_column_minima_are_least_feasible_points():
    rng = seeded(28)
    for _ in range(10):
        rows = [
            (
                (rng.randint(-2, 3), rng.randint(-2, 3), rng.randint(0, 2)),
                rng.randint(-1, 4),
            )
            for _ in range(3)
        ]

        def meets(v):
            return all(
                sum(a * b for a, b in zip(normal, v)) >= rhs
                for normal, rhs in rows
            )

        # no row needs t above 16 when its last entry is positive
        expected = []
        for prefix in itertools.product(range(4), repeat=2):
            column = [t for t in range(17) if meets(prefix + (t,))]
            if column:
                expected.append(prefix + (column[0],))
        assert list(_column_minima(rows, (3, 3))) == expected


def test_column_scan_budget():
    with pytest.raises(BudgetExceededError, match=f"{COLUMN_BUDGET + 1} columns"):
        next(_column_minima([], (COLUMN_BUDGET,)))


# ------------------------------------------------------------------ #
# integral closure


def test_closure_frozen_values():
    j = MonomialIdeal(2, ((2, 0), (0, 2)))
    assert integral_closure(j).gens == ((0, 2), (1, 1), (2, 0))
    big = MonomialIdeal(3, ((2, 0, 0), (0, 2, 0), (0, 0, 4)))
    assert integral_closure(big).gens == (
        (0, 0, 4),
        (0, 1, 2),
        (0, 2, 0),
        (1, 0, 2),
        (1, 1, 0),
        (2, 0, 0),
    )


def test_closure_power_conventions():
    j = MonomialIdeal(2, ((2, 0), (0, 2)))
    assert closure_power(j, 0).is_unit()
    assert closure_power(j, -3).is_unit()


def test_closure_contains_power_and_is_closed():
    rng = seeded(24)
    for _ in range(10):
        ideal = random_ideal(rng, 2, max_coord=4)
        facets = newton_polyhedron(ideal)
        for n in (1, 2, 3):
            closed = closure_power(ideal, n, facets)
            assert (ideal ** n).is_subset(closed)
            assert integral_closure(closed) == closed


def test_closure_generators_are_minimal_members():
    rng = seeded(25)
    for _ in range(10):
        ideal = random_ideal(rng, rng.choice((2, 3)), max_coord=3)
        facets = newton_polyhedron(ideal)
        for n in (1, 2):
            closed = closure_power(ideal, n, facets)
            for g in closed.gens:
                assert facets.contains_power(g, n)
                for j in range(ideal.dim):
                    if g[j] > 0:
                        down = g[:j] + (g[j] - 1,) + g[j + 1 :]
                        assert not facets.contains_power(down, n)


def test_closure_generator_box_bound():
    # every minimal generator of the closure of ideal^n fits under
    # n * max_exponents coordinatewise
    rng = seeded(26)
    for _ in range(10):
        ideal = random_ideal(rng, 2, max_coord=5)
        bound = ideal.max_exponents()
        for n in (1, 2, 3):
            for g in closure_power(ideal, n).gens:
                assert all(c <= n * b for c, b in zip(g, bound))


def test_closure_member_matches_scaling_oracle():
    rng = seeded(27)
    for _ in range(6):
        ideal = random_ideal(rng, 2, max_coord=3)
        facets = newton_polyhedron(ideal)
        k_max = max(1, math.lcm(*(f.offset for f in facets.bounded)))
        for v in itertools.product(range(5), repeat=2):
            direct = facets.contains_power(v, 1)
            assert direct == oracle_iclosure_member(v, ideal, k_max)


def test_monomial_membership_under_closure():
    # x*y*z is integral over (x^3, y^3, z^3) but x*y is not
    j = MonomialIdeal(3, ((3, 0, 0), (0, 3, 0), (0, 0, 3)))
    facets = newton_polyhedron(j)
    assert facets.contains_power((1, 1, 1), 1)
    assert not facets.contains_power((1, 1, 0), 1)
