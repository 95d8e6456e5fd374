"""Brute-force reference checks: the oracle, and the membership
oracles of conftest, must agree with naive divisibility, and the box
budget must trip on oversized boxes."""

import itertools
import re

import pytest

from reesgor import MonomialIdeal, oracle
from reesgor.errors import BudgetExceededError
from reesgor.oracle import Box, oracle_colon, oracle_intersect

from conftest import (
    oracle_iclosure_member,
    oracle_power_member,
    oracle_relint_points,
    random_ideal,
    random_m_primary,
    seeded,
)


def test_box_points_and_budget():
    box = Box((2, 3))
    assert box.size == 12
    assert len(list(box.points())) == 12
    # one point past the budget is refused before any is produced
    with pytest.raises(BudgetExceededError):
        Box((oracle.DEFAULT_BUDGET,)).size
    with pytest.raises(BudgetExceededError):
        Box((oracle.DEFAULT_BUDGET,)).points()
    with pytest.raises(BudgetExceededError):
        list(Box((1000, 1000, 1000)).points())


def test_power_member_is_divisibility_for_first_power():
    rng = seeded(7)
    for _ in range(12):
        ideal = random_ideal(rng, 2, max_coord=4)
        for v in itertools.product(range(6), repeat=2):
            member = MonomialIdeal(2, (v,)).is_subset(ideal)
            assert oracle_power_member(v, ideal, 1) == member


def test_power_member_counts_degrees_for_maximal_ideal():
    m = MonomialIdeal.pure_powers((1, 1))
    for n in range(6):
        for v in itertools.product(range(8), repeat=2):
            assert oracle_power_member(v, m, n) == (sum(v) >= n)


def test_power_member_matches_computed_powers():
    rng = seeded(8)
    for _ in range(8):
        ideal = random_ideal(rng, 2, max_coord=3)
        for n in range(4):
            power = ideal ** n
            for v in itertools.product(range(7), repeat=2):
                member = MonomialIdeal(2, (v,)).is_subset(power)
                assert oracle_power_member(v, ideal, n) == member


def test_colon_oracle_frozen():
    m = MonomialIdeal.pure_powers((1, 1))
    j = MonomialIdeal(2, ((2, 0), (0, 2)))
    assert oracle_colon(j, m) == ((0, 2), (1, 1), (2, 0))
    assert oracle_colon(j, m ** 2) == ((0, 1), (1, 0))
    assert oracle_colon(j ** 2, m ** 2) == (m ** 3).gens


def test_intersect_oracle_frozen():
    j = MonomialIdeal(2, ((2, 0), (0, 2)))
    k = MonomialIdeal(2, ((1, 1),))
    assert oracle_intersect(j, k) == ((1, 2), (2, 1))


def test_iclosure_member_frozen():
    j = MonomialIdeal(2, ((2, 0), (0, 2)))
    # (1, 1) is on the bounded facet x + y >= 2: 2*(1,1) lands in j^2
    assert oracle_iclosure_member((1, 1), j, 2)
    assert not oracle_iclosure_member((1, 0), j, 4)
    assert oracle_iclosure_member((2, 0), j, 1)
    # closure of j^2 needs x + y >= 4: (3,1) is in via 2*(3,1) = (6,2)
    assert oracle_iclosure_member((3, 1), j, 2, power=2)
    assert not oracle_iclosure_member((2, 1), j, 4, power=2)


def test_relint_points_frozen():
    rows = ((1, 0), (0, 1))
    pts = oracle_relint_points(rows, (2, 2))
    assert pts == [(1, 1), (1, 2), (2, 1), (2, 2)]
    rows = ((-1, -1, 2), (1, 0, 0), (0, 1, 0))
    pts = oracle_relint_points(rows, (1, 1, 3))
    assert pts == [(1, 1, 2), (1, 1, 3)]


def test_relint_budget_guard():
    with pytest.raises(BudgetExceededError):
        oracle_relint_points(((1, 0),), (10**6, 10**6))


# ------------------------------------------------------------------ #
# the box fills against the point-by-point scans they replaced


def _divides_some(v, gens):
    return any(all(g[i] <= v[i] for i in range(len(v))) for g in gens)


def _minimal_members(members):
    minimal = []
    for v in members:
        downs = (
            v[:j] + (v[j] - 1,) + v[j + 1 :] for j in range(len(v)) if v[j] > 0
        )
        if not any(down in members for down in downs):
            minimal.append(v)
    return tuple(sorted(minimal))


def _reference_oracle_colon(ideal, divisor):
    """Test every box point v for v + g in the ideal, g in the divisor."""
    bounds = tuple(
        max((g[i] for g in ideal.gens), default=0) for i in range(ideal.dim)
    )
    members = set()
    for v in Box(bounds).points():
        if all(
            _divides_some(tuple(a + b for a, b in zip(v, g)), ideal.gens)
            for g in divisor.gens
        ):
            members.add(v)
    return _minimal_members(members)


def _reference_oracle_intersect(left, right):
    """Test every point of the joint box for membership in both."""
    bounds = tuple(
        max(
            max((g[i] for g in left.gens), default=0),
            max((g[i] for g in right.gens), default=0),
        )
        for i in range(left.dim)
    )
    members = {
        v
        for v in Box(bounds).points()
        if _divides_some(v, left.gens) and _divides_some(v, right.gens)
    }
    return _minimal_members(members)


def _special_ideals(dim):
    """The zero and unit ideals, two powers of the maximal ideal, and
    ideals that are not m-primary once d >= 2: a power of the first
    variable alone, whose box then has last side 0, and one monomial
    off every axis."""
    return (
        MonomialIdeal(dim, ()),
        MonomialIdeal.unit(dim),
        MonomialIdeal.pure_powers((1,) * dim),
        MonomialIdeal.pure_powers((2,) * dim),
        MonomialIdeal(dim, ((2,) + (0,) * (dim - 1),)),
        MonomialIdeal(dim, ((1,) * dim,)),
    )


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_box_fills_match_the_point_scans(dim):
    rng = seeded(900 + dim)
    max_coord = 4 if dim < 4 else 3
    pairs = []
    for _ in range(12 if dim < 4 else 5):
        ideal = random_m_primary(rng, dim, max_coord=max_coord)
        other = random_m_primary(rng, dim, max_coord=max_coord)
        pairs += [(ideal * ideal, ideal), (ideal, other)]
        pairs.append((other * ideal, other))
        pairs.append((random_ideal(rng, dim, max_coord=max_coord), other))
        pairs.append((other, random_ideal(rng, dim, max_coord=max_coord)))
        # divisor generators beyond the box of the numerator, so every
        # read of the colon is clamped
        pairs.append((ideal, other * other * other))
        pairs.append((random_ideal(rng, dim, max_coord=2), other * other))
    special = _special_ideals(dim)
    pairs += [(a, b) for a in special for b in special]
    pairs += [(ideal, s) for s in special] + [(s, ideal) for s in special]
    for left, right in pairs:
        assert oracle_colon(left, right) == _reference_oracle_colon(
            left, right
        ), (left, right)
        assert oracle_intersect(left, right) == _reference_oracle_intersect(
            left, right
        ), (left, right)


def test_box_budget_refuses_before_allocating(monkeypatch):
    """The fills allocate their starts with list(), so a list built
    before the budget check fails the test with an AssertionError."""

    def no_allocation(*args):
        raise AssertionError("allocated before the budget check")

    monkeypatch.setattr(oracle, "list", no_allocation, raising=False)
    big = MonomialIdeal.pure_powers((10**6,) * 3)
    message = (
        f"box {(10**6,) * 3} holds {(10**6 + 1) ** 3} points, "
        f"budget is {oracle.DEFAULT_BUDGET}"
    )
    with pytest.raises(BudgetExceededError, match=re.escape(message)):
        oracle_colon(big, MonomialIdeal.pure_powers((1, 1, 1)))
    with pytest.raises(BudgetExceededError, match=re.escape(message)):
        oracle_intersect(big, MonomialIdeal.pure_powers((1, 1, 1)))
