"""Newton polyhedron facets, extreme rays, and integral closures."""

import itertools
import math

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
    InvalidIdealError,
)
from reesgor.oracle import oracle_iclosure_member
from reesgor.polyhedra import COLUMN_BUDGET, _column_minima

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
