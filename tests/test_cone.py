"""The lifted semigroup cone and the canonical module read off it."""

import dataclasses
import itertools

import pytest

from reesgor import (
    MonomialIdeal,
    canonical_generators,
    compute_q,
    embed_phi,
    extreme_rays,
    filtration_reduction_number,
    is_gorenstein_normalization,
    lift_halfspaces,
    newton_polyhedron,
    pure_power_gorenstein_test,
)
from reesgor.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    InapplicableError,
    IncompleteSearchError,
    NotMPrimaryError,
)
from reesgor.oracle import oracle_relint_points

from conftest import random_m_primary, seeded


def cone_of(gens):
    ideal = MonomialIdeal(len(gens[0]), gens)
    return lift_halfspaces(newton_polyhedron(ideal))


# ------------------------------------------------------------------ #
# coordinate change


def test_embed_phi_fixed_points_and_involution():
    assert embed_phi((3, 1, 2)) == (3, 1, 2)
    assert embed_phi((2, 0, 5)) == (2, 0, -3)
    assert embed_phi((1, 1, 1, 2)) == (1, 1, 1, 1)
    for v in [(0, 0, 0), (4, 7, -3), (1, 2, 3, 4)]:
        assert embed_phi(embed_phi(v)) == v
    with pytest.raises(DimensionMismatchError):
        embed_phi((5,))


# ------------------------------------------------------------------ #
# cone construction


def test_lift_matrix_and_rays_frozen():
    cone = cone_of(((2, 0), (0, 2)))
    assert cone.matrix == ((-1, -1, 2), (1, 0, 0), (0, 1, 0))
    assert set(cone.rays) == {(0, 0, 1), (0, 2, 1), (2, 0, 1)}

    cone = cone_of(((2, 0, 0), (0, 2, 0), (0, 0, 4)))
    assert cone.matrix == (
        (-2, -2, -3, 4),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
    )
    assert set(cone.rays) == {
        (0, 0, 0, 1),
        (0, 0, 4, 3),
        (0, 2, 0, 1),
        (2, 0, 0, 1),
    }

    cone = cone_of(((3, 0), (1, 1), (0, 3)))
    assert cone.matrix == (
        (-2, -1, 3),
        (-1, -2, 3),
        (1, 0, 0),
        (0, 1, 0),
    )
    assert set(cone.rays) == {(0, 0, 1), (0, 3, 2), (1, 1, 1), (3, 0, 2)}


def test_lift_requires_m_primary():
    with pytest.raises(NotMPrimaryError):
        cone_of(((1, 0),))
    with pytest.raises(NotMPrimaryError):
        is_gorenstein_normalization(MonomialIdeal(2, ((2, 0), (1, 1))))


def test_membership_predicates():
    cone = cone_of(((3, 0), (1, 1), (0, 3)))
    assert cone.cone_member((1, 1, 1))
    assert not cone.relint_member((1, 1, 1))
    assert cone.relint_member((1, 1, 2))
    assert cone.cone_member((3, 0, 2))
    assert not cone.relint_member((3, 0, 2))
    assert not cone.cone_member((3, 1, 2))
    assert not cone.relint_member((3, 1, 2))


def test_matrix_and_rays_are_mutually_dual():
    # running the ray enumeration on the rays recovers the facet rows,
    # so the inequality description is exactly the facet description
    rng = seeded(31)
    cases = [
        ((1, 0), (0, 1)),
        ((2, 0), (0, 2)),
        ((3, 0), (1, 1), (0, 3)),
        ((2, 0, 0), (0, 2, 0), (0, 0, 4)),
    ]
    for _ in range(6):
        cases.append(random_m_primary(rng, rng.choice((2, 3)), max_coord=4).gens)
    for gens in cases:
        cone = cone_of(gens)
        back = extreme_rays(cone.rays, cone.dim + 1)
        assert set(back) == set(cone.matrix)


def test_rays_generate_relint_base_point():
    # every interior point stays interior after adding any ray
    rng = seeded(32)
    for _ in range(8):
        ideal = random_m_primary(rng, 2, max_coord=4)
        cone = lift_halfspaces(newton_polyhedron(ideal))
        data = canonical_generators(cone)
        for g in data.generators:
            for r in cone.rays:
                assert cone.relint_member(tuple(a + b for a, b in zip(g, r)))


# ------------------------------------------------------------------ #
# interior degree q


def test_q_frozen_values():
    assert compute_q(cone_of(((1, 0), (0, 1)))) == 1
    assert compute_q(cone_of(((2, 0), (0, 2)))) == 2
    assert compute_q(cone_of(((3, 0), (1, 1), (0, 3)))) == 2
    assert compute_q(cone_of(((2, 0, 0), (0, 2, 0), (0, 0, 4)))) == 2
    assert compute_q(cone_of(((5, 0), (0, 5)))) == 2
    assert compute_q(cone_of(((1, 0, 0), (0, 1, 0), (0, 0, 1)))) == 1


def test_q_is_minimal_interior_height():
    rng = seeded(33)
    for _ in range(10):
        ideal = random_m_primary(rng, rng.choice((2, 3)), max_coord=4)
        cone = lift_halfspaces(newton_polyhedron(ideal))
        q = compute_q(cone)
        d = cone.dim
        assert 1 <= q <= d + 1
        assert cone.relint_member((1,) * d + (q,))
        if q > 1:
            assert not cone.relint_member((1,) * d + (q - 1,))


# ------------------------------------------------------------------ #
# canonical module


def test_canonical_frozen_values():
    data = canonical_generators(cone_of(((1, 0), (0, 1))))
    assert data.generators == ((1, 1, 1),)
    assert data.gorenstein and data.a_invariant == -1

    data = canonical_generators(cone_of(((2, 0), (0, 2))))
    assert data.generators == ((1, 1, 2), (1, 2, 2), (2, 1, 2))
    assert not data.gorenstein and data.a_invariant == 0

    data = canonical_generators(cone_of(((3, 0), (1, 1), (0, 3))))
    assert data.generators == ((1, 1, 2), (1, 2, 2), (2, 1, 2))
    assert not data.gorenstein and data.a_invariant == 0

    data = canonical_generators(cone_of(((2, 0, 0), (0, 2, 0), (0, 0, 4))))
    assert data.generators == ((1, 1, 1, 2),)
    assert data.gorenstein and data.a_invariant == -1

    data = canonical_generators(cone_of(((2, 0), (0, 3))))
    assert data.generators == ((1, 1, 2), (1, 2, 2), (2, 1, 2))
    assert not data.gorenstein and data.a_invariant == 0


def test_canonical_generators_are_minimal():
    # no generator is another generator plus a cone point
    rng = seeded(34)
    for _ in range(8):
        ideal = random_m_primary(rng, 2, max_coord=5)
        cone = lift_halfspaces(newton_polyhedron(ideal))
        data = canonical_generators(cone)
        for g in data.generators:
            for h in data.generators:
                if g == h:
                    continue
                diff = tuple(a - b for a, b in zip(g, h))
                assert not cone.cone_member(diff)


def test_interior_points_match_oracle():
    for gens in [((2, 0), (0, 2)), ((3, 0), (1, 1), (0, 3))]:
        cone = cone_of(gens)
        data = canonical_generators(cone)
        box = data.search_box
        expected = [
            v
            for v in itertools.product(*(range(b + 1) for b in box))
            if cone.relint_member(v)
        ]
        assert oracle_relint_points(cone.matrix, box) == expected


def test_gorenstein_shift_identity():
    # for a principal canonical module the interior points are exactly
    # the base point plus the cone points
    cone = cone_of(((2, 0, 0), (0, 2, 0), (0, 0, 4)))
    data = canonical_generators(cone)
    assert data.gorenstein
    base = data.generators[0]
    for v in itertools.product(*(range(b + 1) for b in data.search_box)):
        shifted = tuple(a - b for a, b in zip(v, base))
        assert cone.relint_member(v) == cone.cone_member(shifted)


def _full_box_generators(cone, box):
    """The canonical generators by the full box scan: every interior
    point of the box, in (sum, v) order, kept unless an already kept
    generator plus a cone point gives it."""
    interior = sorted(
        (
            v
            for v in itertools.product(*(range(b + 1) for b in box))
            if cone.relint_member(v)
        ),
        key=lambda v: (sum(v), v),
    )
    kept = []
    for v in interior:
        if not any(
            cone.cone_member(tuple(a - b for a, b in zip(v, g))) for g in kept
        ):
            kept.append(v)
    return tuple(kept)


def _interior_shift_route(cone, box, q):
    """The Gorenstein route by interior shift: every interior point v
    of the box has M v >= M (1, ..., 1, q) row by row."""
    def values(v):
        return [sum(a * b for a, b in zip(row, v)) for row in cone.matrix]

    floor = values((1,) * cone.dim + (q,))
    return all(
        all(x >= y for x, y in zip(values(v), floor))
        for v in itertools.product(*(range(b + 1) for b in box))
        if cone.relint_member(v)
    )


def test_column_scan_matches_full_box_scan():
    rng = seeded(35)
    for i in range(60):
        ideal = random_m_primary(rng, 2 + i % 3)
        gorenstein, data = is_gorenstein_normalization(ideal)
        cone = lift_halfspaces(newton_polyhedron(ideal))
        box = data.search_box
        assert data.generators == _full_box_generators(cone, box), ideal
        assert gorenstein == _interior_shift_route(cone, box, data.q), ideal


def test_filtration_reduction_number():
    _, data = is_gorenstein_normalization(
        MonomialIdeal(3, ((2, 0, 0), (0, 2, 0), (0, 0, 4)))
    )
    assert filtration_reduction_number(data, 3) == 1
    _, data = is_gorenstein_normalization(MonomialIdeal(2, ((2, 0), (0, 2))))
    assert filtration_reduction_number(data, 2) == 1
    _, data = is_gorenstein_normalization(MonomialIdeal(2, ((1, 0), (0, 1))))
    assert filtration_reduction_number(data, 2) == 0


# ------------------------------------------------------------------ #
# Gorenstein decisions


def test_gorenstein_verdicts_frozen():
    def verdict(gens):
        ideal = MonomialIdeal(len(gens[0]), gens)
        return is_gorenstein_normalization(ideal)[0]

    assert verdict(((1, 0), (0, 1)))
    assert verdict(((2, 0, 0), (0, 2, 0), (0, 0, 4)))
    assert not verdict(((2, 0), (0, 2)))
    assert not verdict(((2, 0), (0, 3)))
    assert not verdict(((3, 0), (1, 1), (0, 3)))


def test_pure_power_test_frozen():
    t = pure_power_gorenstein_test(MonomialIdeal.pure_powers((2, 2, 4)))
    assert (t.lcm, t.quotient, t.remainder, t.gorenstein) == (4, 1, 1, True)
    t = pure_power_gorenstein_test(MonomialIdeal.pure_powers((2, 3)))
    assert (t.lcm, t.remainder, t.gorenstein) == (6, 5, False)
    t = pure_power_gorenstein_test(MonomialIdeal.pure_powers((2, 2)))
    assert (t.lcm, t.remainder, t.gorenstein) == (2, 2, False)
    t = pure_power_gorenstein_test(MonomialIdeal.pure_powers((1, 1)))
    assert (t.remainder, t.gorenstein) == (1, True)


def test_pure_power_test_rejects_other_shapes():
    with pytest.raises(InapplicableError):
        pure_power_gorenstein_test(MonomialIdeal(2, ((2, 0), (1, 1), (0, 2))))
    with pytest.raises(InapplicableError):
        pure_power_gorenstein_test(MonomialIdeal(2, ((3, 0), (1, 1), (0, 3))))


def test_fast_and_full_agree_on_samples():
    for exps in [(2, 2), (2, 3), (3, 3), (5, 2), (2, 2, 2), (2, 3, 3),
                 (2, 2, 4), (3, 3, 3), (2, 3, 6), (4, 4, 2),
                 (2, 3, 5, 7), (3, 5, 7, 11), (2, 3, 5, 7, 11),
                 (3, 5, 7, 11, 13)]:
        ideal = MonomialIdeal.pure_powers(exps)
        fast = pure_power_gorenstein_test(ideal).gorenstein
        full, _ = is_gorenstein_normalization(ideal)
        assert fast == full, exps


def test_oversized_box_fails_fast():
    # 11.6M columns: refused before any of them is scanned
    ideal = MonomialIdeal.pure_powers((7, 11, 13, 17, 19, 23))
    with pytest.raises(BudgetExceededError) as info:
        is_gorenstein_normalization(ideal)
    message = str(info.value)
    assert "(7, 11, 13, 17, 19, 23)" in message
    assert "11612160 columns" in message


def test_undersized_search_box_is_reported():
    # With the unit vectors as rays the search box is (1, 1, 1), which
    # holds no interior point; the sweep then meets (1, 1, 2) outside it.
    cone = cone_of(((3, 0), (1, 1), (0, 3)))
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(IncompleteSearchError) as info:
        canonical_generators(dataclasses.replace(cone, rays=units))
    message = str(info.value)
    assert "interior point (1, 1, 2)" in message
    assert "search box (1, 1, 1)" in message
