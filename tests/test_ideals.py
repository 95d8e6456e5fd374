"""Exponent-vector arithmetic: canonical form, products, colons."""

import collections
import dataclasses
import enum
import inspect
import itertools
import math
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reesgor import (
    FacetSystem,
    HalfSpace,
    MonomialIdeal,
    a_invariant_consistency,
    canonical_generators,
    closure_power,
    cohen_macaulay_test,
    core_compute,
    extreme_rays,
    lift_halfspaces,
    minimalize,
    newton_polyhedron,
    pure_power_gorenstein_test,
    quasi_gorenstein_test,
)
from reesgor.errors import (
    DimensionMismatchError,
    InapplicableError,
    InvalidIdealError,
)
from reesgor import ideals
from reesgor.ideals import SCAN_LIMIT, leq
from reesgor.oracle import Box, oracle_colon, oracle_intersect
from reesgor.report import JobSpec, build_report, job_from_dict, to_json

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
        [(1, 0), (True, 0)],  # a bool equal to a vector before it
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
        assert _raised(minimalize, (v for v in vectors), 2) == expected
    # Only the private marker type skips validation: malformed vectors
    # in a plain set or frozenset are refused as in any other container,
    # naming the first one in the set's own order.
    sets = 0
    for vectors in malformed:
        try:
            distinct = len(set(vectors)) == len(vectors)
        except TypeError:  # an unhashable entry cannot be in a set
            continue
        if not distinct:  # (1, 0) and (True, 0) are one set member
            continue
        for form in (set(vectors), frozenset(vectors)):
            expected = _raised(_reference_check, form, 2)
            assert expected is not None, form
            assert _raised(minimalize, form, 2) == expected, form
            sets += 1
    assert sets > 20
    # A vector may be an iterator: it is read once, and checked as read.
    assert minimalize([iter((1, 0)), [0, 1]], 2) == ((0, 1), (1, 0))
    assert _raised(minimalize, [iter((1, 0)), (0, -1)], 2) == (
        InvalidIdealError,
        "negative exponent in (0, -1)",
    )
    assert _raised(minimalize, [(1, 0), iter((True, 0))], 2) == (
        InvalidIdealError,
        "non-integer exponent in (True, 0)",
    )
    # An int subclass that is not bool passes both checks.
    vectors = [(Exponent(2), 0), (0, Exponent(3)), (Exponent(3), 1)]
    assert _reference_check(vectors, 2)
    assert minimalize(vectors, 2) == ((0, 3), (2, 0))
    assert MonomialIdeal(2, tuple(vectors)) == I(2, (2, 0), (0, 3))


def test_malformed_vectors_are_named_in_every_size_class():
    # Validation runs before the dominance step, so a small set (the
    # scan of the kept antichain) and a large one (the bitset pass)
    # name the same malformed vector, first or last, as the check of
    # every vector in input order does.
    for dim in (3, 4):
        for size in (3, SCAN_LIMIT + 5):
            good = [
                tuple((j >> k) % 4 for k in range(0, 2 * dim, 2))
                for j in range(size)
            ]
            bad = (1,) * (dim - 1) + (-1,)
            short = (1,) * (dim - 1)
            flag = (True,) + (0,) * (dim - 1)
            for wrong in (bad, short, flag):
                for vectors in ([wrong] + good, good + [wrong]):
                    expected = _raised(_reference_check, vectors, dim)
                    assert expected is not None, vectors
                    assert expected[0] is InvalidIdealError
                    assert _raised(minimalize, vectors, dim) == expected


def test_minimalize_refuses_a_dim_the_constructor_refuses():
    expected = (InvalidIdealError, "ambient dimension must be a positive int")
    for vectors, dim in (
        ([(1,)], True),
        ([(1, 2)], 2.0),
        ([(1, 2)], "2"),
        ([], 0),
        ([(1,)], None),
    ):
        assert _raised(minimalize, vectors, dim) == expected
        assert _raised(MonomialIdeal, dim, tuple(vectors)) == expected
    assert minimalize([(1, 2)], Exponent(2)) == ((1, 2),)


class _Level(enum.IntEnum):
    """An int subclass whose repr shows it: a member that leaks into an
    answer changes the answer's repr."""

    TWO = 2
    THREE = 3


def test_int_subclass_exponents_are_stored_as_ints():
    # An int subclass passes the rule, but the ideal stores the ints it
    # equals, so its report is written as JSON like any other.
    expected = to_json(build_report(JobSpec(I(2, (2, 0), (0, 3)), None)))
    for two, three in ((Exponent(2), Exponent(3)), (_Level.TWO, _Level.THREE)):
        ideal = MonomialIdeal(two, ((two, 0), (0, three)))
        assert type(ideal.dim) is int
        assert {type(e) for g in ideal.gens for e in g} == {int}
        assert to_json(build_report(JobSpec(ideal, None))) == expected


def _facets():
    return newton_polyhedron(I(2, (2, 0), (0, 3)))


# entry -> (a call with x at that entry, the error and message it
# raises for a value that fails the rule, {x} standing for the value)
INT_ENTRIES = {
    "MonomialIdeal-dim": (
        lambda x: MonomialIdeal(x, ((2, 0), (0, 3))),
        InvalidIdealError,
        "ambient dimension must be a positive int",
    ),
    "MonomialIdeal-gens": (
        lambda x: MonomialIdeal(2, ((x, 0), (0, 3))),
        InvalidIdealError,
        "non-integer exponent in ({x}, 0)",
    ),
    "minimalize-dim": (
        lambda x: minimalize([(2, 0), (0, 3)], x),
        InvalidIdealError,
        "ambient dimension must be a positive int",
    ),
    "minimalize-entries": (
        lambda x: minimalize([(x, 0), (0, 3)], 2),
        InvalidIdealError,
        "non-integer exponent in ({x}, 0)",
    ),
    "pure_powers": (
        lambda x: MonomialIdeal.pure_powers((x, 3)),
        InvalidIdealError,
        "pure power exponents must be positive ints, got ({x}, 3)",
    ),
    "bracket_power": (
        lambda x: I(2, (2, 0), (1, 1)).bracket_power(x),
        InvalidIdealError,
        "bracket power requires a positive int",
    ),
    "pow": (
        lambda x: I(2, (2, 0), (1, 1)) ** x,
        TypeError,
        "exponent must be an int",
    ),
    "extreme_rays-dim": (
        lambda x: extreme_rays([(1, 0), (1, 2)], x),
        InvalidIdealError,
        "ambient dimension must be a positive int",
    ),
    "extreme_rays-entries": (
        lambda x: extreme_rays([(x, -1), (0, 1)], 2),
        InvalidIdealError,
        "non-integer exponent in ({x}, -1)",
    ),
    "contains_power-v": (
        lambda x: _facets().contains_power((x, 1), 1),
        InvalidIdealError,
        "non-integer exponent in ({x}, 1)",
    ),
    "contains_power-n": (
        lambda x: _facets().contains_power((2, 2), x),
        TypeError,
        "exponent must be an int",
    ),
    "relint_member": (
        lambda x: lift_halfspaces(_facets()).relint_member((x, 1, 1)),
        InvalidIdealError,
        "non-integer exponent in ({x}, 1, 1)",
    ),
    "closure_power": (
        lambda x: closure_power(I(2, (2, 0), (1, 1)), x),
        TypeError,
        "exponent must be an int",
    ),
    "core_compute": (
        lambda x: core_compute(
            I(2, (2, 0), (1, 1), (0, 2)), I(2, (2, 0), (0, 2)), x
        ),
        InapplicableError,
        "the power u must be a positive int",
    ),
    "HalfSpace-normal": (
        lambda x: HalfSpace((x, 1), 2),
        InvalidIdealError,
        "non-integer entry in facet HalfSpace(normal=({x}, 1), offset=2)",
    ),
    "HalfSpace-offset": (
        lambda x: HalfSpace((1, 1), x),
        InvalidIdealError,
        "non-integer entry in facet HalfSpace(normal=(1, 1), offset={x})",
    ),
    "FacetSystem-dim": (
        lambda x: FacetSystem(x, (HalfSpace((1, 1), 2),), ()),
        InvalidIdealError,
        "ambient dimension must be a positive int",
    ),
    "job_from_dict-dim": (
        lambda x: job_from_dict({"dim": x, "gens": [[2, 0], [0, 3]]}),
        ValueError,
        "'dim' must be a positive integer",
    ),
}


@pytest.mark.parametrize("entry", INT_ENTRIES)
def test_every_int_entry_follows_the_one_rule(entry):
    # `ideals._exact_int`: an int subclass gives the answer of the int
    # it equals, with no member of it left in the answer, and a bool or
    # a float is refused with the entry's own error and message.
    call, error, message = INT_ENTRIES[entry]
    assert repr(call(_Level.TWO)) == repr(call(2))
    for value in (True, 2.0):
        assert _raised(call, value) == (error, message.format(x=value))


def test_pure_powers_refuse_bool_exponents():
    for exps in ((True, 2), (2, False), (1.0, 2)):
        assert _raised(MonomialIdeal.pure_powers, exps) == (
            InvalidIdealError,
            f"pure power exponents must be positive ints, got {exps}",
        )
    assert MonomialIdeal.pure_powers((1, 2)) == I(2, (1, 0), (0, 2))


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


def _sets_of_size(rng, dim, count):
    """Sets of exactly count distinct rows: random rows from a box that
    holds at least twice as many, with repeats, and for dim > 1 an
    antichain drawn from the rows of one coordinate sum."""
    top = 1
    while (top + 1) ** dim < 2 * count:
        top += 1
    box = list(itertools.product(range(top + 1), repeat=dim))
    for _ in range(20):
        rows = rng.sample(box, count)
        yield rows + rng.choices(rows, k=5)
    if dim > 1:
        total = 1
        while math.comb(total + dim - 1, dim - 1) < count:
            total += 1
        plane = [
            v
            for v in itertools.product(range(total + 1), repeat=dim)
            if sum(v) == total
        ]
        yield rng.sample(plane, count)


def _minimalize_cases(rng):
    """Seeded inputs for d = 1..6: random rows with repeats, chains,
    antichains on a hyperplane, all-equal rows, and the empty set; and
    for d = 2, sets with ties in the first entry and repeated second
    entries, where the running minimum must keep the first candidate of
    each second entry only. For every d but 2, sets of exactly
    SCAN_LIMIT and SCAN_LIMIT + 1 distinct rows sit on either side of
    the switch from the scan of the kept antichain to the bitsets:
    random rows with repeats, and antichains, which keep every row."""
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
    for dim in (1, 3, 4, 5, 6):
        for count in (SCAN_LIMIT, SCAN_LIMIT + 1):
            for rows in _sets_of_size(rng, dim, count):
                yield rows, dim


def test_minimalize_matches_the_pairwise_reference(monkeypatch):
    rng = seeded(707)
    sizes = set()
    methods = {}
    for rows, dim in _minimalize_cases(rng):
        expected = _reference_minimalize(rows, dim)
        fast = minimalize(rows, dim)
        assert fast == expected, (rows, dim)
        assert list(fast) == sorted(fast)
        # the dominance step alone, as the kernels of * and & and the
        # colon pieces run it on their distinct candidates, and the
        # unchecked entry for vectors already minimal by a lemma
        assert ideals._minimal(sorted(set(rows)), dim) == expected, (rows, dim)
        trusted = minimalize(ideals._Minimal(expected), dim)
        assert type(trusted) is tuple and trusted == expected, (rows, dim)
        given = len(set(rows))
        sizes.add((given, len(fast)))
        # outside d = 2 the count of distinct rows picks the method, so
        # each method also runs alone on every case, through both entries
        if dim != 2:
            methods.setdefault(dim, set()).add(given <= SCAN_LIMIT)
            for limit in (-1, len(rows)):
                monkeypatch.setattr(ideals, "SCAN_LIMIT", limit)
                assert minimalize(rows, dim) == expected, (rows, dim, limit)
                assert ideals._minimal(sorted(set(rows)), dim) == expected, (
                    rows, dim, limit,
                )
            monkeypatch.setattr(ideals, "SCAN_LIMIT", SCAN_LIMIT)
    # both the scan and the bitset pass ran on their own size class
    assert methods == {dim: {True, False} for dim in (1, 3, 4, 5, 6)}
    # duplicates collapse, dominated rows drop, and antichains survive
    assert (1, 1) in sizes and (0, 0) in sizes
    assert any(kept == 1 < given for given, kept in sizes)
    assert any(kept == given > SCAN_LIMIT for given, kept in sizes)


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
    z = MonomialIdeal(3, ())
    u = MonomialIdeal.unit(3)
    m = MonomialIdeal.pure_powers((1, 1, 1))
    assert z.is_zero() and z != u
    assert u == I(3, (0, 0, 0), (1, 2, 3)) and not u.is_zero()
    assert m.gens == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert I(3, (0, 0, 0)).is_subset(u)
    assert not I(3, (5, 5, 5)).is_subset(z)


def test_display_names():
    assert I(2, (2, 0), (0, 2)).to_str() == "(x^2, y^2)"
    assert I(2, (1, 1)).to_str() == "(x*y)"
    assert MonomialIdeal.unit(2).to_str() == "(1)"
    assert MonomialIdeal(2, ()).to_str() == "(0)"
    assert MonomialIdeal.pure_powers((1,) * 5).to_str() == (
        "(x1, x2, x3, x4, x5)"
    )


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
    m2 = MonomialIdeal.pure_powers((1, 1)) ** 2
    j = I(2, (2, 0), (0, 2))
    assert j.is_subset(m2)
    assert not m2.is_subset(j)
    assert I(2, (1, 1)).is_subset(m2) and not I(2, (1, 1)).is_subset(j)


def _scanned_subset(left, right):
    """left <= right by testing every generator of right against each
    generator of left: the path the fast paths of is_subset skip."""
    return all(
        map(ideals._divides_some, itertools.repeat(right.gens), left.gens)
    )


def _containment_path(right):
    """The path is_subset takes against right."""
    if right.dim == 2:
        return "bisection"
    return "scan" if right.pure_power_exponents() is None else "pure powers"


def test_fast_containment_paths_agree_with_the_scan():
    # Left sides: random ideals, one-generator ideals (the membership
    # test of x^v), m-primary ideals, and the zero and unit ideals;
    # right sides the same plus pure powers, in d = 1..4.
    rng = seeded(43)
    reached = collections.Counter()
    for _ in range(400):
        dim = rng.randint(1, 4)
        zero, unit = MonomialIdeal(dim, ()), MonomialIdeal.unit(dim)
        pure = MonomialIdeal.pure_powers(
            [rng.randint(1, 5) for _ in range(dim)]
        )
        point = tuple(rng.randint(0, 6) for _ in range(dim))
        lefts = [
            random_ideal(rng, dim, max_gens=8, max_coord=6),
            random_m_primary(rng, dim),
            I(dim, point),
            pure,
            zero,
            unit,
        ]
        rights = [
            random_ideal(rng, dim, max_gens=8),
            random_m_primary(rng, dim, extras=rng.randint(0, 3)),
            pure,
            zero,
            unit,
        ]
        for left in lefts:
            for right in rights:
                expected = _scanned_subset(left, right)
                assert left.is_subset(right) is expected, (left, right)
                reached[_containment_path(right), expected] += 1
    for path in ("bisection", "pure powers", "scan"):
        assert reached[path, True] > 100 and reached[path, False] > 100, reached


def _supported_pure_powers(ideal):
    """pure_power_exponents by its definition: d generators, each with
    exactly one nonzero entry, read off that entry."""
    if len(ideal.gens) != ideal.dim:
        return None
    exps = [0] * ideal.dim
    for g in ideal.gens:
        support = [i for i, e in enumerate(g) if e > 0]
        if len(support) != 1:
            return None
        exps[support[0]] = g[support[0]]
    return tuple(exps)


def test_pure_power_exponents_match_the_support_definition():
    # Pure powers, pure powers with one power dropped or one mixed
    # generator added, random ideals, and the zero and unit ideals, in
    # d = 1..5. Against each pure power, is_subset's comparison per
    # entry answers as the divisor scan does.
    rng = seeded(49)
    seen = collections.Counter()
    for _ in range(300):
        dim = rng.randint(1, 5)
        exps = [rng.randint(1, 5) for _ in range(dim)]
        pure = MonomialIdeal.pure_powers(exps)
        ideals = [
            pure,
            I(dim, *pure.gens[1:]),
            I(dim, *pure.gens, tuple(rng.randint(0, 3) for _ in range(dim))),
            random_ideal(rng, dim, max_gens=dim + 1, max_coord=4),
            MonomialIdeal(dim, ()),
            MonomialIdeal.unit(dim),
        ]
        for ideal in ideals:
            expected = _supported_pure_powers(ideal)
            assert ideal.pure_power_exponents() == expected, ideal
            seen["pure powers", expected is not None] += 1
        assert pure.pure_power_exponents() == tuple(exps)
        for left in ideals:
            expected = _scanned_subset(left, pure)
            assert left.is_subset(pure) is expected, (left, pure)
            seen["subset", expected] += 1
    assert MonomialIdeal.unit(1).pure_power_exponents() is None
    assert min(seen.values()) > 300 and len(seen) == 4, seen


def test_the_slotted_ideal_keeps_its_dataclass_contract(monkeypatch):
    ideal = I(2, (2, 0), (0, 2), (1, 3))
    with pytest.raises(dataclasses.FrozenInstanceError):
        ideal.dim = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        ideal.gens = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        del ideal.gens
    # A name that is no field has no slot. The frozen value base raises
    # FrozenInstanceError for it as for a field; the slotted dataclass
    # this class once was raised TypeError from super() there.
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        ideal.extra = 1
    assert not hasattr(ideal, "__dict__") and not hasattr(ideal, "extra")
    assert repr(ideal) == "MonomialIdeal(dim=2, gens=((0, 2), (2, 0)))"
    assert ideal == I(2, (0, 2), (2, 0)) and ideal != I(2, (0, 2))
    assert hash(ideal) == hash(I(2, (0, 2), (2, 0))) == hash(
        (2, ((0, 2), (2, 0)))
    )
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(ideal, protocol))
        assert copy == ideal and type(copy) is MonomialIdeal, protocol
    for dim in (Exponent(2), _Level.TWO):
        assert type(MonomialIdeal(dim, ((1, 0),)).dim) is int
        assert type(MonomialIdeal.unit(dim).dim) is int
    assert type(MonomialIdeal.pure_powers((_Level.TWO, 1)).gens[1][0]) is int
    # The errors of the parent tree, whose unit formed the zero vector
    # before the constructor refused the dim.
    for dim, expected in (
        (0, (InvalidIdealError, "ambient dimension must be a positive int")),
        (-1, (InvalidIdealError, "ambient dimension must be a positive int")),
        (True, (InvalidIdealError, "ambient dimension must be a positive int")),
        (2.0, (TypeError, "can't multiply sequence by non-int of type 'float'")),
        ("2", (TypeError, "can't multiply sequence by non-int of type 'str'")),
    ):
        assert _raised(MonomialIdeal.unit, dim) == expected, dim
    for exponents in ((), (0, 1), (True, 1), (1.0, 2), (-1,), ("a",), (2, None)):
        assert _raised(MonomialIdeal.pure_powers, exponents) == (
            InvalidIdealError,
            f"pure power exponents must be positive ints, got {exponents}",
        )
    assert _raised(MonomialIdeal.pure_powers, None) == (
        TypeError, "'NoneType' object is not iterable",
    )
    # Every construction calls the module-global minimalize once, the
    # count perfbench/tracer.py reads off its wrapper of that name.
    calls, built = [], []
    minimalize_ = ideals.minimalize
    init = MonomialIdeal.__init__

    def counted_minimalize(vectors, dim):
        calls.append(dim)
        return minimalize_(vectors, dim)

    def counted_init(self, dim, gens):
        built.append(dim)
        init(self, dim, gens)

    monkeypatch.setattr(ideals, "minimalize", counted_minimalize)
    monkeypatch.setattr(MonomialIdeal, "__init__", counted_init)
    anchor = I(3, (3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1))
    for construction in (
        lambda: MonomialIdeal.unit(3),
        lambda: MonomialIdeal.pure_powers((2, 3, 4)),
        lambda: I(3, (1, 2, 0)),
    ):
        before = len(calls)
        construction()
        assert len(calls) == before + 1 == len(built)
    with ideals._job():
        build_report(JobSpec(anchor, None))
    assert len(calls) == len(built) > 300


def _m_squared():
    return I(2, (2, 0), (1, 1), (0, 2))


def _cone():
    return lift_halfspaces(newton_polyhedron(_m_squared()))


# One value of each class built on ideals._Value, and its repr: the
# string the class gave when it was a frozen dataclass.
VALUES = {
    "MonomialIdeal": (
        _m_squared,
        "MonomialIdeal(dim=2, gens=((0, 2), (1, 1), (2, 0)))",
    ),
    "HalfSpace": (
        lambda: HalfSpace((2, 2, 1), 4),
        "HalfSpace(normal=(2, 2, 1), offset=4)",
    ),
    "FacetSystem": (
        lambda: newton_polyhedron(_m_squared()),
        "FacetSystem(dim=2, bounded=(HalfSpace(normal=(1, 1), offset=2),),"
        " coordinate=(0, 1))",
    ),
    "ReesCone": (
        _cone,
        "ReesCone(dim=2, matrix=((-1, -1, 2), (1, 0, 0), (0, 1, 0)))",
    ),
    "CanonicalData": (
        lambda: canonical_generators(_cone()),
        "CanonicalData(q=2, generators=((1, 1, 2), (1, 2, 2), (2, 1, 2)),"
        " gorenstein=False, a_invariant=0, search_box=(2, 2, 3),"
        " sweep_box=(3, 3, 4))",
    ),
    "PurePowerTest": (
        lambda: pure_power_gorenstein_test(MonomialIdeal.pure_powers((2, 3))),
        "PurePowerTest(exponents=(2, 3), lcm=6, quotient=0, remainder=5,"
        " gorenstein=False)",
    ),
    "QGVerdict": (
        lambda: quasi_gorenstein_test(_m_squared()),
        "QGVerdict(quasi_gorenstein=False, a=None, u=None,"
        " reduction=MonomialIdeal(dim=2, gens=((0, 2), (2, 0))),"
        " reduction_number=1, nilpotency_index=1, checked_range=(1, 1))",
    ),
    "CMVerdict": (
        lambda: cohen_macaulay_test(_m_squared()),
        "CMVerdict(cohen_macaulay=True,"
        " reduction=MonomialIdeal(dim=2, gens=((0, 2), (2, 0))),"
        " reduction_number=1, first_failure=None)",
    ),
    "ConsistencyCheck": (
        lambda: a_invariant_consistency(_m_squared())[0],
        "ConsistencyCheck(name='closure-index', applicable=True, ok=True,"
        " expected=0, actual=0)",
    ),
    "JobSpec": (
        lambda: job_from_dict({"dim": 2, "gens": [[2, 0], [1, 1], [0, 2]]}),
        "JobSpec(ideal=MonomialIdeal(dim=2, gens=((0, 2), (1, 1), (2, 0))),"
        " reduction=None)",
    ),
    "Box": (lambda: Box((2, 3)), "Box(bounds=(2, 3))"),
}


@pytest.mark.parametrize("name", VALUES)
def test_every_value_keeps_the_frozen_dataclass_contract(name):
    build, shown = VALUES[name]
    value = build()
    assert type(value).__name__ == name and isinstance(value, ideals._Value)
    assert repr(value) == shown
    fields = type(value)._fields
    for field in fields:
        with pytest.raises(
            dataclasses.FrozenInstanceError,
            match=f"^cannot assign to field '{field}'$",
        ):
            setattr(value, field, None)
        with pytest.raises(
            dataclasses.FrozenInstanceError,
            match=f"^cannot delete field '{field}'$",
        ):
            delattr(value, field)
    assert repr(value) == shown
    twin = build()
    assert twin is not value and twin == value and not twin != value
    values = tuple(getattr(value, field) for field in fields)
    assert hash(twin) == hash(value) == hash(values)
    assert value.__eq__(values) is NotImplemented and value != values
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(value, protocol))
        assert copy == value and type(copy) is type(value), protocol
    # the constructor takes the fields, in order, as the dataclass's did
    cls = type(value)
    assert tuple(inspect.signature(cls).parameters) == fields
    assert cls(**dict(zip(fields, values))) == value == cls(*values)
    with pytest.raises(TypeError) as missing:
        cls(*values[:-1])
    assert str(missing.value).startswith(f"{name}.__init__() missing 1 ")


# ------------------------------------------------------------------ #
# arithmetic


def test_sum_product_power():
    m = MonomialIdeal.pure_powers((1, 1))
    assert MonomialIdeal(2, m.gens + m.gens) == m
    assert m * m == I(2, (2, 0), (1, 1), (0, 2))
    assert m ** 3 == I(2, (3, 0), (2, 1), (1, 2), (0, 3))
    assert m ** 0 == MonomialIdeal.unit(2)
    assert m ** -2 == MonomialIdeal.unit(2)
    j = I(2, (2, 0), (0, 2))
    k = I(2, (1, 1))
    assert MonomialIdeal(2, j.gens + k.gens) == I(2, (2, 0), (1, 1), (0, 2))


def test_power_matches_repeated_product():
    rng = seeded(101)
    for _ in range(10):
        ideal = random_ideal(rng, rng.choice((2, 3)))
        by_product = MonomialIdeal.unit(ideal.dim)
        for n in range(5):
            assert ideal ** n == by_product
            by_product = by_product * ideal


def test_power_takes_one_product_per_further_factor(monkeypatch):
    # I ** n runs the product kernel n - 1 times for n >= 1 and never
    # for n <= 0, each time with the gens of I as its second factor.
    products = []
    multiply = ideals._product

    def counting(a_gens, b_gens, dim):
        products.append(b_gens)
        return multiply(a_gens, b_gens, dim)

    monkeypatch.setattr(ideals, "_product", counting)
    ideal = I(3, (2, 0, 0), (1, 1, 0), (0, 3, 1), (0, 0, 2))
    for n in range(-2, 7):
        products.clear()
        ideal ** n
        assert len(products) == max(n - 1, 0), n
        assert all(gens is ideal.gens for gens in products), n


def test_power_keeps_one_power_alive():
    # I ** n drops each product once the next is formed. A ladder that
    # held I^1 .. I^300 at once, though ** reads only the top rung,
    # peaked at 7.9 MB on this input; one power at a time peaks near
    # 0.3 MB.
    ideal = I(2, (2, 0), (1, 1), (0, 2))
    tracemalloc.start()
    try:
        top = ideal ** 300
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert top.gens == tuple((i, 600 - i) for i in range(601))
    assert peak < 2_000_000


def test_power_stores_nothing_in_a_job():
    # ** runs the product kernel itself, not through the job memo, so
    # inside a job I ** 300 adds no entry and still peaks as it does
    # outside one; the job's memo is the same dict afterwards, and a
    # product (through `*`) stores in it
    ideal = I(2, (2, 0), (1, 1), (0, 2))
    with ideals._job():
        memo = ideals._job_memo.get()
        tracemalloc.start()
        try:
            top = ideal ** 300
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert memo == {}
        assert ideals._job_memo.get() is memo
        assert ideal * ideal == ideal ** 2
        assert list(memo) == [(ideals._product, ideal.gens, ideal.gens, 2)]
    assert top.gens == tuple((i, 600 - i) for i in range(601))
    assert peak < 2_000_000


def test_colon_frozen_values():
    m = MonomialIdeal.pure_powers((1, 1))
    j = I(2, (2, 0), (0, 2))
    assert j.colon(m) == I(2, (1, 1), (2, 0), (0, 2))
    assert j.colon(m ** 2) == m
    assert (j ** 2).colon(m ** 2) == m ** 3
    assert (m ** 2).colon(m) == m
    assert j.colon(MonomialIdeal.unit(2)) == j
    assert j.colon(MonomialIdeal(2, ())) == MonomialIdeal.unit(2)


def test_intersection_frozen_values():
    m = MonomialIdeal.pure_powers((1, 1))
    j = I(2, (2, 0), (0, 2))
    assert (j & m ** 4) == m ** 4
    assert (I(2, (1, 0)) & I(2, (0, 1))) == I(2, (1, 1))
    assert (j & MonomialIdeal.unit(2)) == j
    assert (j & MonomialIdeal(2, ())).is_zero()


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
        # the product, built through the validated entry of minimalize
        assert left * right == MonomialIdeal(left.dim, tuple(
            tuple(a + b for a, b in zip(g, h))
            for g in left.gens
            for h in right.gens
        )), (left, right)
        assert both.gens == oracle_intersect(left, right), (left, right)
        assert left.colon(right).gens == oracle_colon(left, right), (
            left, right,
        )
        # each single-divisor piece, built through the validated entry
        for g, piece in zip(right.gens, _colon_pieces(left, right)):
            assert left.colon(I(left.dim, g)) == piece, (left, g)
        inside = sum(I(right.dim, g).is_subset(right) for g in left.gens)
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
        j.colon(k)
    with pytest.raises(DimensionMismatchError):
        j & k
    with pytest.raises(DimensionMismatchError):
        j.is_subset(k)
    # an operand that is no ideal at all is refused by type, named
    with pytest.raises(TypeError, match="expected MonomialIdeal, got int$"):
        j * 3
    with pytest.raises(TypeError, match="expected MonomialIdeal, got str$"):
        j & "x"
    with pytest.raises(TypeError, match="got NoneType$"):
        j.colon(None)
    with pytest.raises(TypeError, match="expected MonomialIdeal, got int$"):
        j.is_subset(2)


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
