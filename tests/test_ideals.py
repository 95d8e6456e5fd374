"""Exponent-vector arithmetic: canonical form, products, colons."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reesgor import (
    MonomialIdeal,
    closure_power,
    core_compute,
    minimalize,
    newton_polyhedron,
)
from reesgor.errors import (
    DimensionMismatchError,
    InapplicableError,
    InvalidIdealError,
)
from reesgor.ideals import leq
from reesgor.oracle import oracle_colon, oracle_intersect

from conftest import random_ideal, random_m_primary, seeded, single_facet_ideal


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


def _reference_check(vectors, dim):
    """The per-vector validation minimalize ran on every raw vector
    before it checked the deduplicated set: the first malformed
    vector, in input order, raises."""
    unique = set()
    for raw in vectors:
        v = tuple(raw)
        if len(v) != dim:
            raise InvalidIdealError(
                f"generator {v} has {len(v)} entries, expected {dim}"
            )
        for entry in v:
            if type(entry) is not int and (
                isinstance(entry, bool) or not isinstance(entry, int)
            ):
                raise InvalidIdealError(f"non-integer exponent in {v}")
            if entry < 0:
                raise InvalidIdealError(f"negative exponent in {v}")
        unique.add(v)
    return unique


class Exponent(int):
    """An int subclass that is not bool: an exponent like any other."""


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class is compared
        return type(exc), str(exc)
    return None


def test_minimalize_rejects_bad_input():
    with pytest.raises(InvalidIdealError):
        minimalize([(1,)], 2)
    with pytest.raises(InvalidIdealError):
        minimalize([(1, -1)], 2)
    with pytest.raises(InvalidIdealError):
        minimalize([(1, 1.5)], 2)
    # Each malformed input raises the class and message of the check
    # of every vector in input order, whichever vector the set-level
    # check would notice first.
    malformed = [
        [(1,)],
        [(1, -1)],
        [(1, 1.5)],
        [(0, 3), (1,), (1, -1)],  # wrong arity before a negative entry
        [(0, 3), (1, -1), (1,)],  # and the other way round
        [(1, 0, 2), (1, 1)],
        [(2, 0), (1.0, 1)],  # a float equal to an int
        [(0, 2), (True, 0)],  # a bool
        [(0, 2), (False, 1), (1, -1)],
        [(1, 0), 5],  # a non-iterable entry
        [(1,), 5],  # wrong arity before a non-iterable entry
        [5, (1,)],
        [(1, [2])],  # an unhashable entry
        [(1, None)],
        ["ab"],
        [(0, 1), (-1, 0), (1, 1.5)],
    ]
    for vectors in malformed:
        expected = _raised(_reference_check, vectors, 2)
        assert expected is not None, vectors
        assert _raised(minimalize, vectors, 2) == expected, vectors
        assert _raised(minimalize, iter(vectors), 2) == expected, vectors
    # An int subclass that is not bool passes both checks.
    vectors = [(Exponent(2), 0), (0, Exponent(3)), (Exponent(3), 1)]
    assert _reference_check(vectors, 2)
    assert minimalize(vectors, 2) == ((0, 3), (2, 0))
    assert MonomialIdeal(2, tuple(vectors)) == I(2, (2, 0), (0, 3))


def test_booleans_are_not_ideal_data():
    with pytest.raises(InvalidIdealError):
        minimalize([(True, 0), (0, 2)], 2)
    with pytest.raises(InvalidIdealError):
        MonomialIdeal(2, ((True, 0), (0, 2)))
    with pytest.raises(InvalidIdealError):
        MonomialIdeal(True, ((3,),))


def _reference_minimalize(vectors, dim):
    """The pairwise loop minimalize ran before its bitset pass: after
    sorting by coordinate sum, keep each vector that no vector kept
    before it divides. Input is assumed valid."""
    kept = []
    for v in sorted({tuple(w) for w in vectors}, key=lambda w: (sum(w), w)):
        if not any(leq(u, v) for u in kept):
            kept.append(v)
    return tuple(sorted(kept))


def _minimalize_cases(rng):
    """Seeded inputs for d = 1..6: random rows with repeats, chains,
    antichains on a hyperplane, all-equal rows, and the empty set; and
    for d = 2, sets with ties in the first entry and repeated second
    entries, where the running minimum must keep the first candidate of
    each second entry only."""
    yield [(1, 3), (1, 2), (2, 2), (0, 5), (3, 2), (2, 1), (1, 2)], 2
    yield [(0, 4), (2, 4), (1, 4), (3, 0), (3, 1), (5, 0)], 2
    for _ in range(150):
        rows = [
            (rng.randint(0, 3), rng.randint(0, 3))
            for _ in range(rng.randint(1, 12))
        ]
        rows += [(rng.choice(rows)[0], rng.randint(0, 3)) for _ in range(3)]
        rows += [(rng.randint(0, 3), rng.choice(rows)[1]) for _ in range(3)]
        yield rows, 2
    for dim in range(1, 7):
        for _ in range(150):
            top = rng.randint(0, 6)
            rows = [
                tuple(rng.randint(0, top) for _ in range(dim))
                for _ in range(rng.randint(1, 40))
            ]
            rows += rng.choices(rows, k=rng.randint(0, 10))
            rng.shuffle(rows)
            yield rows, dim
        start = tuple(rng.randint(0, 3) for _ in range(dim))
        chain = [start]
        for _ in range(12):
            step = [0] * dim
            step[rng.randrange(dim)] = rng.randint(0, 2)
            chain.append(tuple(a + b for a, b in zip(chain[-1], step)))
        yield chain + chain[::2], dim
        total = 8
        antichain = []
        for _ in range(30):
            cuts = sorted(rng.randint(0, total) for _ in range(dim - 1))
            parts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
            antichain.append(tuple(parts))
        yield antichain, dim
        yield [start] * 7, dim
        yield [], dim


def test_minimalize_matches_the_pairwise_reference():
    rng = seeded(707)
    sizes = set()
    for rows, dim in _minimalize_cases(rng):
        fast = minimalize(rows, dim)
        assert fast == _reference_minimalize(rows, dim), (rows, dim)
        assert list(fast) == sorted(fast)
        sizes.add((len(set(rows)), len(fast)))
    # duplicates collapse, dominated rows drop, and antichains survive
    assert (1, 1) in sizes and (0, 0) in sizes
    assert any(kept == 1 < given for given, kept in sizes)
    assert any(kept == given > 10 for given, kept in sizes)


def test_minimalize_keeps_one_bitset_per_candidate_alive():
    # The 7381 closure generators of (x^3, y^3, z^3)^40 are an
    # antichain. Holding one bitset of up to k bits for every candidate
    # peaked near 13 MB; the lazy chain keeps one alive at a time, next
    # to the two prefix tables, and peaks near 1.4 MB.
    gens = closure_power(I(3, (3, 0, 0), (0, 3, 0), (0, 0, 3)), 40).gens
    assert len(gens) == 7381
    tracemalloc.start()
    try:
        kept = minimalize(gens, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept == gens
    assert peak < 4_000_000


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
    # m-primary is read off the Newton polyhedron, which the zero ideal
    # does not have (test_facets_zero_ideal_rejected)
    def m_primary(ideal):
        return newton_polyhedron(ideal).is_m_primary_source()

    assert m_primary(I(2, (2, 0), (0, 2)))
    assert m_primary(I(2, (2, 0), (1, 1), (0, 2)))
    assert not m_primary(I(2, (2, 0), (1, 1)))
    assert not m_primary(MonomialIdeal.unit(2))
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


def test_power_takes_one_product_per_further_factor(monkeypatch):
    # I ** n makes n - 1 products for n >= 1 and none for n <= 0.
    products = []
    multiply = MonomialIdeal.__mul__

    def counting(self, other):
        products.append(other)
        return multiply(self, other)

    monkeypatch.setattr(MonomialIdeal, "__mul__", counting)
    ideal = I(3, (2, 0, 0), (1, 1, 0), (0, 3, 1), (0, 0, 2))
    for n in range(-2, 7):
        products.clear()
        ideal ** n
        assert len(products) == max(n - 1, 0), n
        assert all(other is ideal for other in products), n


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


def _reference_intersect(left, right):
    """The intersection as & formed it before its shortcut: minimalize
    the componentwise maxima of every pair of generators."""
    return MonomialIdeal(left.dim, tuple(
        tuple(max(a, b) for a, b in zip(g, h))
        for g in left.gens
        for h in right.gens
    ))


def _colon_pieces(ideal, divisor):
    """The single-generator quotients (ideal : x^g), g in the divisor,
    that colon intersects one after another."""
    return [
        MonomialIdeal(ideal.dim, tuple(
            tuple(max(a - b, 0) for a, b in zip(h, g)) for h in ideal.gens
        ))
        for g in divisor.gens
    ]


def _intersection_pairs(rng):
    """Seeded pairs for & and colon in d = 2, 3: random ideals, a
    reduction against its ideal and its powers (J inside I), and the
    running intersection of colon pieces against the next piece, where
    one side holds most generators of the other."""
    for _ in range(80):
        dim = rng.choice((2, 3))
        top = 5 if dim == 2 else 3
        ideal, reduction = single_facet_ideal(rng, dim, max_coord=top)
        other = random_m_primary(rng, dim, max_coord=top)
        yield random_ideal(rng, dim, max_coord=top), other
        yield other, random_m_primary(rng, dim, max_coord=top)
        yield reduction, ideal
        yield ideal, reduction
        yield reduction ** 2, ideal
        yield ideal ** 2, other
        pieces = _colon_pieces(reduction ** 2, ideal)
        running = pieces[0]
        for piece in pieces[1:]:
            yield running, piece
            yield piece, running
            running = _reference_intersect(running, piece)


def test_intersection_and_colon_match_the_references():
    rng = seeded(1207)
    shortcut = joined = 0
    for left, right in _intersection_pairs(rng):
        both = left & right
        assert both == _reference_intersect(left, right), (left, right)
        assert both.gens == oracle_intersect(left, right), (left, right)
        assert left.colon(right).gens == oracle_colon(left, right), (
            left, right,
        )
        inside = sum(right.contains(g) for g in left.gens)
        shortcut += inside
        joined += len(left.gens) - inside
    # both branches of & run often: a generator already in the other
    # ideal, and one joined with every generator of the other
    assert shortcut > 500 and joined > 100, (shortcut, joined)


def test_bracket_power():
    j = I(2, (2, 0), (1, 1))
    assert j.bracket_power(3) == I(2, (6, 0), (3, 3))
    assert j.bracket_power(1) == j


def test_booleans_are_not_powers():
    j = I(2, (2, 0), (0, 3))
    with pytest.raises(TypeError):
        j ** True
    with pytest.raises(InvalidIdealError):
        j.bracket_power(True)
    with pytest.raises(InapplicableError):
        core_compute(j, j, True)
    assert j ** 1 == j.bracket_power(1) == j


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
