"""Exponent-vector arithmetic: canonical form, products, colons."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reesgor import MonomialIdeal, minimalize
from reesgor.errors import DimensionMismatchError, InvalidIdealError

from conftest import random_ideal, seeded


def I(dim, *gens):
    return MonomialIdeal(dim, tuple(gens))


# ------------------------------------------------------------------ #
# canonical form


def test_minimalize_drops_dominated_and_duplicates():
    assert minimalize([(2, 0), (3, 0), (2, 0), (0, 1), (2, 5)], 2) == (
        (0, 1),
        (2, 0),
    )
    assert minimalize([], 2) == ()
    assert minimalize([(0, 0), (1, 0)], 2) == ((0, 0),)


def test_minimalize_orders_by_lex():
    assert minimalize([(0, 3), (1, 1), (3, 0)], 2) == ((0, 3), (1, 1), (3, 0))


def test_minimalize_rejects_bad_input():
    with pytest.raises(InvalidIdealError):
        minimalize([(1,)], 2)
    with pytest.raises(InvalidIdealError):
        minimalize([(1, -1)], 2)
    with pytest.raises(InvalidIdealError):
        minimalize([(1, 1.5)], 2)


def test_booleans_are_not_ideal_data():
    with pytest.raises(InvalidIdealError):
        minimalize([(True, 0), (0, 2)], 2)
    with pytest.raises(InvalidIdealError):
        MonomialIdeal(2, ((True, 0), (0, 2)))
    with pytest.raises(InvalidIdealError):
        MonomialIdeal(True, ((3,),))


def test_constructor_canonicalizes():
    a = I(2, (2, 0), (0, 2), (3, 1))
    b = I(2, (0, 2), (2, 0))
    assert a == b
    assert a.gens == ((0, 2), (2, 0))


def test_zero_unit_maximal():
    z = MonomialIdeal.zero(3)
    u = MonomialIdeal.unit(3)
    m = MonomialIdeal.maximal(3)
    assert z.is_zero() and not z.is_unit()
    assert u.is_unit() and not u.is_zero()
    assert m.gens == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert u.contains((0, 0, 0)) and not z.contains((5, 5, 5))


def test_display_names():
    assert I(2, (2, 0), (0, 2)).to_str() == "(x^2, y^2)"
    assert I(2, (1, 1)).to_str() == "(x*y)"
    assert MonomialIdeal.unit(2).to_str() == "(1)"
    assert MonomialIdeal.zero(2).to_str() == "(0)"
    assert MonomialIdeal.maximal(5).to_str() == "(x1, x2, x3, x4, x5)"


# ------------------------------------------------------------------ #
# predicates


def test_m_primary_and_pure_powers():
    assert I(2, (2, 0), (0, 2)).is_m_primary()
    assert I(2, (2, 0), (1, 1), (0, 2)).is_m_primary()
    assert not I(2, (2, 0), (1, 1)).is_m_primary()
    assert not MonomialIdeal.unit(2).is_m_primary()
    assert not MonomialIdeal.zero(2).is_m_primary()
    assert I(2, (2, 0), (0, 3)).pure_power_exponents() == (2, 3)
    assert I(2, (2, 0), (1, 1), (0, 3)).pure_power_exponents() is None
    assert MonomialIdeal.pure_powers((4, 1, 2)).pure_power_exponents() == (
        4,
        1,
        2,
    )


def test_containment():
    m2 = MonomialIdeal.maximal(2) ** 2
    j = I(2, (2, 0), (0, 2))
    assert j.is_subset(m2)
    assert not m2.is_subset(j)
    assert j <= m2
    assert m2.contains((1, 1)) and not j.contains((1, 1))


# ------------------------------------------------------------------ #
# arithmetic


def test_sum_product_power():
    m = MonomialIdeal.maximal(2)
    assert m + m == m
    assert m * m == I(2, (2, 0), (1, 1), (0, 2))
    assert m ** 3 == I(2, (3, 0), (2, 1), (1, 2), (0, 3))
    assert m ** 0 == MonomialIdeal.unit(2)
    assert m ** -2 == MonomialIdeal.unit(2)
    j = I(2, (2, 0), (0, 2))
    assert j + I(2, (1, 1)) == I(2, (2, 0), (1, 1), (0, 2))


def test_power_matches_repeated_product():
    rng = seeded(101)
    for _ in range(10):
        ideal = random_ideal(rng, rng.choice((2, 3)))
        by_product = MonomialIdeal.unit(ideal.dim)
        for n in range(5):
            assert ideal ** n == by_product
            by_product = by_product * ideal


def test_colon_frozen_values():
    m = MonomialIdeal.maximal(2)
    j = I(2, (2, 0), (0, 2))
    assert j.colon(m) == I(2, (1, 1), (2, 0), (0, 2))
    assert j.colon(m ** 2) == m
    assert (j ** 2).colon(m ** 2) == m ** 3
    assert (m ** 2).colon(m) == m
    assert j.colon(MonomialIdeal.unit(2)) == j
    assert j.colon(MonomialIdeal.zero(2)) == MonomialIdeal.unit(2)


def test_intersection_frozen_values():
    m = MonomialIdeal.maximal(2)
    j = I(2, (2, 0), (0, 2))
    assert (j & m ** 4) == m ** 4
    assert (I(2, (1, 0)) & I(2, (0, 1))) == I(2, (1, 1))
    assert (j & MonomialIdeal.unit(2)) == j
    assert (j & MonomialIdeal.zero(2)).is_zero()


def test_bracket_power():
    j = I(2, (2, 0), (1, 1))
    assert j.bracket_power(3) == I(2, (6, 0), (3, 3))
    assert j.bracket_power(1) == j


def test_max_exponents():
    assert I(2, (2, 0), (1, 1), (0, 3)).max_exponents() == (2, 3)


def test_dimension_mismatch_refused():
    j = I(2, (1, 0))
    k = I(3, (1, 0, 0))
    with pytest.raises(DimensionMismatchError):
        j * k
    with pytest.raises(DimensionMismatchError):
        j + k
    with pytest.raises(DimensionMismatchError):
        j.colon(k)
    with pytest.raises(DimensionMismatchError):
        j & k
    with pytest.raises(DimensionMismatchError):
        j.contains((1, 0, 0))


# ------------------------------------------------------------------ #
# properties

vectors2 = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=6
)


@given(vectors2)
@settings(max_examples=60, deadline=None)
def test_minimalize_idempotent(vs):
    once = minimalize(vs, 2)
    assert minimalize(once, 2) == once


@given(vectors2)
@settings(max_examples=60, deadline=None)
def test_minimalize_permutation_invariant(vs):
    rev = list(reversed(vs))
    assert minimalize(vs, 2) == minimalize(rev, 2)


@given(vectors2, vectors2)
@settings(max_examples=60, deadline=None)
def test_colon_product_contained(us, vs):
    a = MonomialIdeal(2, tuple(us))
    b = MonomialIdeal(2, tuple(vs))
    q = a.colon(b)
    assert (q * b).is_subset(a)
    assert a.is_subset(q)


@given(vectors2, vectors2)
@settings(max_examples=60, deadline=None)
def test_intersection_is_lower_bound(us, vs):
    a = MonomialIdeal(2, tuple(us))
    b = MonomialIdeal(2, tuple(vs))
    c = a & b
    assert c.is_subset(a) and c.is_subset(b)
    assert (a * b).is_subset(c)
