"""The lifted semigroup cone and the canonical module read off it."""

import collections
import inspect
import itertools
import json
import math
import operator
import pathlib
import pickle
import sys

import pytest

from reesgor import (
    MonomialIdeal,
    canonical_generators,
    compute_q,
    extreme_rays,
    is_gorenstein_normalization,
    lift_halfspaces,
    newton_polyhedron,
    pure_power_gorenstein_test,
)
from reesgor import cone as cone_module
from reesgor.cone import CanonicalData
from reesgor.ideals import _job
from reesgor.polyhedra import _slack_fields
from reesgor.errors import (
    BudgetExceededError,
    ConeGeometryError,
    DimensionMismatchError,
    InapplicableError,
    InvalidIdealError,
    InvariantViolationError,
    NotMPrimaryError,
)
from reesgor.cli import EXIT_USAGE, classify_failure
from reesgor.report import gorenstein_section
from conftest import (
    column_minima,
    cone_member,
    embed_phi,
    oracle_relint_points,
    random_m_primary,
    seeded,
    single_facet_ideal,
)

PINS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "pins"


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


def test_gorenstein_normalization_refuses_facets_of_another_dimension(
    monkeypatch,
):
    # a square in two variables was once judged on the facets of a cube
    square = MonomialIdeal(2, ((2, 0), (0, 2)))
    cube = newton_polyhedron(
        MonomialIdeal(3, ((2, 0, 0), (0, 2, 0), (0, 0, 2)))
    )

    def no_work(*args):
        raise AssertionError("cone lifted before the facets were checked")

    monkeypatch.setattr(cone_module, "lift_halfspaces", no_work)
    with pytest.raises(
        DimensionMismatchError,
        match="facets of dimension 3 against an ideal of dimension 2",
    ):
        is_gorenstein_normalization(square, cube)


def test_membership_predicates():
    cone = cone_of(((3, 0), (1, 1), (0, 3)))
    assert cone_member(cone, (1, 1, 1))
    assert not cone.relint_member((1, 1, 1))
    assert cone.relint_member((1, 1, 2))
    assert cone_member(cone, (3, 0, 2))
    assert not cone.relint_member((3, 0, 2))
    assert not cone_member(cone, (3, 1, 2))
    assert not cone.relint_member((3, 1, 2))


def test_relint_member_refuses_entries_that_are_not_ints():
    # (1.0, 1, 2) and (True, 1, 2) would pass as (1, 1, 2); a negative
    # entry keeps its answer.
    cone = cone_of(((3, 0), (1, 1), (0, 3)))
    for v in ((1.0, 1, 2), (True, 1, 2), (1, 1, 2.5)):
        with pytest.raises(InvalidIdealError, match="non-integer exponent in"):
            cone.relint_member(v)
    assert not cone.relint_member((-1, 1, 2))


def test_membership_helpers_refuse_a_vector_of_the_wrong_length():
    # zip would silently drop the extra or missing coordinates
    cone = cone_of(((3, 0), (1, 1), (0, 3)))
    for v in ((1, 1, 2, -100), (1, 2)):
        with pytest.raises(DimensionMismatchError, match=f"length {len(v)}.* 3 "):
            cone.relint_member(v)
    facets = newton_polyhedron(MonomialIdeal(2, ((3, 0), (1, 1), (0, 3))))
    for v in ((1,), (1, 2, 3)):
        with pytest.raises(DimensionMismatchError, match=f"length {len(v)}.* 2$"):
            facets.contains_power(v, 1)


def test_lifted_cones_equal_the_cone_built_from_their_rows():
    # ReesCone solves its rays from its matrix. On every ideal of both
    # pinned pools (all m-primary) and on seeded ones in d = 2..5, the
    # lift equals the cone built from its rows, whose rays are those of
    # extreme_rays; the cone holds plain ints and survives a pickle.
    ideals = [
        ideal
        for workload in ("report", "gorenstein")
        for ideal in _pinned_ideals(workload)
    ]
    rng = seeded(2605)
    for d in (2, 3, 4, 5):
        ideals += [random_m_primary(rng, d) for _ in range(25)]
    assert len(ideals) == 986 + 100
    for ideal in ideals:
        lifted = lift_halfspaces(newton_polyhedron(ideal))
        d, rows = lifted.dim, lifted.matrix
        assert cone_module.ReesCone(d, rows) == lifted, ideal
        assert lifted.rays == extreme_rays(rows, d + 1), ideal
        for v in (*lifted.matrix, *lifted.rays):
            assert type(v) is tuple and {*map(type, v)} == {int}, ideal
        copy = pickle.loads(pickle.dumps(lifted))
        assert copy == lifted and copy.rays == lifted.rays, ideal


def test_a_cone_built_from_lists_stores_tuples():
    # ReesCone stores its rows as tuples. A cone given lists once
    # passed every check and stored them, and canonical_generators
    # then raised TypeError (unhashable type: 'list'), outside a job too.
    built = cone_module.ReesCone(2, [[-1, -1, 2], [1, 0, 0], [0, 1, 0]])
    tuples = cone_module.ReesCone(2, ((-1, -1, 2), (1, 0, 0), (0, 1, 0)))
    assert built == tuples == cone_of(((2, 0), (1, 1), (0, 2)))
    assert hash(built) == hash(tuples)
    assert built.rays == tuples.rays == ((0, 0, 1), (0, 2, 1), (2, 0, 1))
    expected = canonical_generators(tuples)
    assert canonical_generators(built) == expected
    with _job():
        assert canonical_generators(built) == expected


def test_rees_cone_refuses_a_dim_that_is_no_positive_int():
    # True once stored dim=True, and 2.0 raised a bare TypeError from
    # the ray solve; both are bad input, exit 1.
    for dim, rows in (
        (True, ((1, 0), (0, 1))),
        (2.0, ((-1, -1, 2), (1, 0, 0), (0, 1, 0))),
        (0, ((1,),)),
    ):
        with pytest.raises(
            InvalidIdealError, match="ambient dimension must be a positive int"
        ) as refused:
            cone_module.ReesCone(dim, rows)
        assert classify_failure(refused.value) == EXIT_USAGE


def test_rees_cone_refuses_malformed_rows_and_rays_when_built():
    # Short matrix rows once made a violated invariant, which the exit
    # table reads as an untrusted result rather than as bad input; the
    # refusal names the length. The rays are solved from the rows, and
    # a cone whose rays leave the orthant is refused.
    cone = cone_of(((2, 0), (0, 2)))
    with pytest.raises(
        DimensionMismatchError, match="vector of length 2 against dimension 3"
    ) as refused:
        cone_module.ReesCone(cone.dim, tuple(r[1:] for r in cone.matrix))
    assert classify_failure(refused.value) == EXIT_USAGE
    with pytest.raises(InvalidIdealError, match="non-integer exponent in"):
        cone_module.ReesCone(cone.dim, cone.matrix + ((1, 0.5, 0),))
    assert cone_module.ReesCone(cone.dim, cone.matrix) == cone
    # The cone x >= 0, x + t >= 0 has the true rays (0, 1) and (1, -1).
    rows = ((1, 0), (1, 1))
    assert extreme_rays(rows, 2) == ((0, 1), (1, -1))
    outside = r"extreme rays \[\(1, -1\)\] leave the nonnegative orthant"
    with pytest.raises(ConeGeometryError, match=outside) as refused:
        cone_module.ReesCone(1, rows)
    assert classify_failure(refused.value) == EXIT_USAGE


def test_rees_cone_stores_an_int_subclass_dim_as_its_int():
    class Dim(int):
        pass

    cone = cone_of(((2, 0), (0, 2)))
    built = cone_module.ReesCone(Dim(2), cone.matrix)
    assert type(built.dim) is int and built == cone


def _brute_generators(matrix, d):
    # The minimal generators by their definition, over the sum of the
    # rays one larger on every side: the interior points that are no
    # other interior point plus a point of the cone. The cone lies in
    # the orthant, so such a point lies under the generator, in the box.
    box = [sum(r) + 1 for r in zip(*extreme_rays(matrix, d + 1))]

    def inside(v, least):
        return all(sum(map(operator.mul, row, v)) >= least for row in matrix)

    points = itertools.product(*(range(b + 1) for b in box))
    interior = [v for v in points if inside(v, 1)]
    found = [
        v
        for v in interior
        if not any(
            u != v and inside([a - b for a, b in zip(v, u)], 0)
            for u in interior
        )
    ]
    return tuple(sorted(found, key=lambda v: (sum(v), v)))


def test_rees_cone_refuses_rows_with_a_negative_last_entry():
    # e_(d+1) lies outside such a cone, and both kernels rest on it:
    # this matrix, whose rays lie in the orthant, was answered with the
    # generators ((1, 1, 1), (1, 2, 2)), though the first row is 0 at
    # (1, 2, 2) and the definition finds ((1, 1, 1),) alone.
    matrix = ((2, 1, -2), (0, -1, 2), (1, 2, 3), (1, 0, 0), (0, 1, 0))
    assert min(itertools.chain(*extreme_rays(matrix, 3))) >= 0
    assert _brute_generators(matrix, 2) == ((1, 1, 1),)
    named = r"rows \[\(2, 1, -2\)\] have a negative last entry"
    with pytest.raises(ConeGeometryError, match=named) as refused:
        cone_module.ReesCone(2, matrix)
    assert classify_failure(refused.value) == EXIT_USAGE


def test_hand_built_cones_match_the_brute_force_definition():
    # Seeded cones in d = 2..3: the coordinate rows and one to three
    # random rows with a last entry >= 0. Those the constructor accepts
    # and whose box is small are answered as the definition answers, or
    # refused by an invariant check that names its witness.
    rng = seeded(48)
    answered = collections.Counter()
    for n in range(2000):
        d = 2 + n % 2
        rows = [
            tuple(rng.randint(-3, 3) for _ in range(d)) + (rng.randint(0, 3),)
            for _ in range(rng.randint(1, 3))
        ] + [tuple(int(i == j) for i in range(d + 1)) for j in range(d)]
        try:
            cone = cone_module.ReesCone(d, rows)
        except ConeGeometryError:
            continue
        if math.prod(sum(r) + 2 for r in zip(*cone.rays)) > 400:
            continue
        try:
            data = canonical_generators(cone)
        except InvariantViolationError:
            continue
        assert data.generators == _brute_generators(cone.matrix, d), rows
        answered[data.gorenstein] += 1
    assert answered[True] > 100 and answered[False] > 50, answered


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
                assert not cone_member(cone, diff)


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
        assert cone.relint_member(v) == cone_member(cone, shifted)


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
            cone_member(cone, tuple(a - b for a, b in zip(v, g)))
            for g in kept
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


def _reference_scan(cone, box):
    """The column scan of `canonical_generators` with the generated-by
    test it had before the row-value kernel, and with the sweep it had
    before its search box was proved: (accepted, missed), the
    generators accepted among the column minima over the first d sides
    of box, by forming v - g for every accepted g and testing it for
    cone membership row by row, and the other column minima of the
    sweep box, one more on every side, that they do not generate."""
    d = cone.dim
    sweep = tuple(b + 1 for b in box)
    rows = [(row, 1) for row in cone.matrix]
    accepted = []

    def generated(v):
        return any(
            cone_member(cone, tuple(a - b for a, b in zip(v, g)))
            for g in accepted
        )

    candidates = []
    rest = []
    for v in column_minima(rows, sweep[:d]):
        if all(a <= b for a, b in zip(v[:d], box)):
            candidates.append(v)
        elif v[d] <= sweep[d]:
            rest.append(v)
    for v in sorted(candidates, key=lambda v: (sum(v), v)):
        if not generated(v):
            accepted.append(v)
    return accepted, [v for v in rest if not generated(v)]


def _reference_canonical_generators(cone):
    """`canonical_generators` by `_reference_scan` over the sum of the
    rays, asserting that the box holds every generator and that its
    sweep finds every interior point generated."""
    d = cone.dim
    q = compute_q(cone)
    box = tuple(sum(r[i] for r in cone.rays) for i in range(d + 1))
    accepted, missed = _reference_scan(cone, box)
    assert all(v[d] <= box[d] for v in accepted), (cone, accepted)
    assert not missed, (cone, missed)

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
        sweep_box=tuple(b + 1 for b in box),
    )


def _outcome(scan, cone):
    try:
        return scan(cone)
    except InvariantViolationError as e:
        return type(e), str(e)


def test_canonical_generators_match_the_reference_scan():
    # True cones match the reference.
    rng = seeded(82)
    cones = [cone_of(((3, 0, 0, 0, 0), (0, 5, 0, 0, 0), (0, 0, 7, 0, 0),
                      (0, 0, 0, 11, 0), (0, 0, 0, 0, 13)))]
    for i in range(40):
        d = 1 + i % 5
        ideal = random_m_primary(rng, d, max_coord=5 if d < 4 else 3)
        cones.append(lift_halfspaces(newton_polyhedron(ideal)))
    for cone in cones:
        expected = _outcome(_reference_canonical_generators, cone)
        assert _outcome(canonical_generators, cone) == expected, cone.matrix


def _several_facets(rng, d):
    """Pure powers with the product of two variables below their
    simplex: a Newton polyhedron with several bounded facets."""
    exps = [rng.randint(2, 4 if d < 4 else 3) for _ in range(d)]
    pair = rng.sample(range(d), 2)
    for i in pair:
        exps[i] = max(exps[i], 3)
    extra = tuple(int(i in pair) for i in range(d))
    return MonomialIdeal(d, (*MonomialIdeal.pure_powers(exps).gens, extra))


def test_the_search_box_holds_every_generator_the_sweep_would_find():
    # The lemma of `_canonical_scan` by the reference's sweep, on true
    # cones in d = 2..5 (seeded draws, most with several bounded facets,
    # and the bases of both benchmark pools that are not pure powers):
    # the sweep box, one more on every side, holds no interior point the
    # generators do not generate. On the small cones the full box scan
    # finds the same generators in the sweep box as in the search box.
    rng = seeded(44)
    ideals = [_several_facets(rng, 2 + i % 4) for i in range(48)]
    ideals += [random_m_primary(rng, 2 + i % 4, max_coord=3)
               for i in range(16)]
    for workload in ("report", "gorenstein"):
        for entry in _pinned_entries(workload):
            gens = tuple(map(tuple, entry["gens"]))
            ideal = MonomialIdeal(entry["dim"], gens)
            if entry["variant"] == 0 and ideal.pure_power_exponents() is None:
                ideals.append(ideal)
    cones = []
    for ideal in ideals:
        facets = newton_polyhedron(ideal)
        if facets.is_m_primary_source():
            cones.append(lift_halfspaces(facets))
    several = {cone.dim for cone in cones if len(cone.matrix) > cone.dim + 1}
    assert several == {2, 3, 4, 5}
    small = set()
    for cone in cones:
        data = canonical_generators(cone)
        assert _reference_canonical_generators(cone) == data, cone.matrix
        if math.prod(b + 2 for b in data.search_box) <= 2500:
            small.add(len(cone.matrix) > cone.dim + 1)
            assert _full_box_generators(cone, data.sweep_box) == (
                _full_box_generators(cone, data.search_box)
            ), cone.matrix
    assert small == {False, True}


def test_canonical_data_follows_every_relabelling_of_the_variables(
    monkeypatch,
):
    # The scan is oriented along the longest side of the search box, so
    # each relabelling scans in another order; the answer must be the
    # relabelled answer, boxes included. The seeded draws all have one
    # bounded facet and read the residue box; the two cones with two
    # bounded facets, in d = 3 and 4, run the scan.
    rng = seeded(26)
    ideals = [
        random_m_primary(rng, d, max_coord=5 if d < 4 else 3)
        for d in (2, 2, 3, 3, 4, 5)
    ]
    ideals += [
        MonomialIdeal(3, ((6, 0, 0), (0, 2, 0), (0, 0, 3), (1, 0, 1))),
        MonomialIdeal(
            4,
            (
                (3, 0, 0, 0),
                (0, 2, 0, 0),
                (0, 0, 2, 0),
                (0, 0, 0, 4),
                (1, 0, 0, 1),
            ),
        ),
    ]
    scanned = []
    scan_kernel = cone_module._swept_generators

    def counted(cone, box):
        scanned.append(box)
        return scan_kernel(cone, box)

    monkeypatch.setattr(cone_module, "_swept_generators", counted)
    checked = 0
    for ideal in ideals:
        d = ideal.dim
        _, data = is_gorenstein_normalization(ideal)
        for perm in itertools.permutations(range(d)):

            def move(v):
                return tuple(v[i] for i in perm) + tuple(v[d:])

            image = MonomialIdeal(d, tuple(map(move, ideal.gens)))
            _, got = is_gorenstein_normalization(image)
            gens = map(move, data.generators)
            expected = tuple(sorted(gens, key=lambda v: (sum(v), v)))
            assert got.generators == expected, (ideal, perm)
            assert (got.q, got.a_invariant, got.gorenstein) == (
                data.q,
                data.a_invariant,
                data.gorenstein,
            )
            assert got.search_box == move(data.search_box)
            assert got.sweep_box == move(data.sweep_box)
            checked += max(got.sweep_box[:d]) != got.sweep_box[d - 1]
    assert checked > 0
    # 1 + 6 and 1 + 24 scans: each cone and every relabelling of it
    assert len(scanned) == 32
    assert any(max(s[:-1]) != s[-2] for s in scanned)


def test_cones_oriented_off_the_last_side_match_the_reference():
    # Where the longest side is not the last one the scan visits points
    # in another order than the reference, yet both must accept the
    # same generators.
    rng = seeded(5)
    oriented = 0
    for i in range(300):
        d = 2 + i % 3
        ideal = random_m_primary(rng, d, max_coord=5 if d < 4 else 3)
        cone = lift_halfspaces(newton_polyhedron(ideal))
        sides = [sum(r[j] for r in cone.rays) for j in range(d)]
        if max(sides) == sides[-1]:
            continue
        expected = _outcome(_reference_canonical_generators, cone)
        assert _outcome(canonical_generators, cone) == expected, ideal
        oriented += 1
    assert oriented > 50


def test_wide_slack_fields_match_the_reference_generators():
    # Pure powers with exponents near 2^35 (2^70 in d = 1) lift to rows
    # with entries near 2^70, so the packed slacks have fields wider
    # than 64 bits. Their true rays span boxes far past the column
    # budget, so the scan runs on small boxes instead: the sums of
    # e_j + e_{d+1} scaled by 1, 2 or 3, and e_{d+1}. Generator sets of
    # one and of several points, and boxes too small to hold every
    # generator, all occur.
    big = 1 << 35
    ideals = [
        ((big * big + 1,),),
        ((big + 1, 0), (0, big + 2)),
        ((big + 1, 0, 0), (0, big, 0), (0, 0, 3)),
        ((big + 1, 0, 0), (0, big, 0), (0, 0, big - 1), (1, 1, 1)),
    ]
    outcomes = set()
    for gens in ideals:
        cone = cone_of(gens)
        d = cone.dim
        for scale in (1, 2, 3):
            box = (scale,) * d + (d * scale + 1,)
            expected, missed = _reference_scan(cone, box)
            assert cone_module._swept_generators(cone, box) == expected, (
                gens,
                scale,
            )
            rows = [(row, 1) for row in cone.matrix]
            assert _slack_fields(rows, box[:d])[0] > 64
            outcomes.add("short" if missed else len(expected) > 1)
    assert outcomes == {"short", False, True}


def _pinned_entries(workload):
    with open(PINS / f"{workload}.jsonl", encoding="utf-8") as fh:
        for line in fh:
            yield json.loads(line)


def _pinned_ideals(workload):
    for entry in _pinned_entries(workload):
        yield MonomialIdeal(entry["dim"], tuple(map(tuple, entry["gens"])))


def test_one_facet_cones_read_the_scans_generators_off_the_residue_box():
    # Every pure power of the gorenstein pool, 300 seeded one-facet
    # ideals in d = 1..4 and every one-facet m-primary report-pool
    # ideal: the gate passes, the closed form is taken, and its
    # generators are the ones the column scan finds.
    ideals = [
        ideal
        for ideal in _pinned_ideals("gorenstein")
        if ideal.pure_power_exponents() is not None
    ]
    pure = len(ideals)
    rng = seeded(37)
    ideals += [single_facet_ideal(rng, 1 + i % 4)[0] for i in range(300)]
    pool = 0
    for ideal in _pinned_ideals("report"):
        facets = newton_polyhedron(ideal)
        if facets.is_m_primary_source() and len(facets.bounded) == 1:
            ideals.append(ideal)
            pool += 1
    assert pure > 500 and pool > 50
    for ideal in ideals:
        cone = lift_halfspaces(newton_polyhedron(ideal))
        data = canonical_generators(cone)
        assert cone_module._residue_sides(cone) is not None, ideal
        swept = cone_module._swept_generators(cone, data.search_box)
        swept.sort(key=lambda v: (sum(v), v))
        assert data.generators == tuple(swept), ideal


def test_cones_off_the_gate_keep_the_scans_outcome_in_its_words():
    # Hand-built one-row cones whose facet normal does not divide h or
    # whose rows are not the coordinate rows fail the gate: each takes
    # the scan, errors and their messages included.
    cones = []
    # the last one divides h, but its second coordinate row is y >= x
    for normal, h, skew in (
        ((2, 3), 5, 0), ((3, 4), 6, 0), ((4, 6, 3), 8, 0), ((2, 3), 6, -1)
    ):
        d = len(normal)
        rows = [tuple(n - h for n in normal) + (h,)] + [
            tuple(int(i == j) for i in range(d + 1)) for j in range(d)
        ]
        rows[-1] = (skew,) + rows[-1][1:]
        cones.append(cone_module.ReesCone(d, rows))
    for cone in cones:
        assert cone_module._residue_sides(cone) is None, cone
        expected = _outcome(_reference_canonical_generators, cone)
        assert _outcome(canonical_generators, cone) == expected, cone


def _brute_residue_generators(normal, h, sides):
    # The residue box by the lemma's criterion alone: z is a generator
    # iff rho(z) < rho(z') for every other z' in [1, z]. It shares no
    # code with the walk, its lines, floors or stop.
    def rho(z):
        return (sum(n * c for n, c in zip(normal, z)) - 1) % h

    found = []
    for z in itertools.product(*(range(1, a + 1) for a in sides)):
        under = itertools.product(*(range(1, c + 1) for c in z))
        if all(rho(z) < rho(y) for y in under if y != z):
            top = sum(n * c for n, c in zip(normal, z)) - 1
            found.append(z + (sum(z) - top // h,))
    return sorted(found, key=lambda v: (sum(v), v))


def _lines_run(function, calls):
    # The line numbers of function that run while calls() does, by a
    # line trace of its frames alone, as tools/reach.py takes one.
    ran = set()

    def lines(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return lines

    def enter(frame, event, arg):
        return lines if frame.f_code is function.__code__ else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        calls()
    finally:
        sys.settrace(previous)
    return ran


def test_the_residue_walk_matches_the_brute_force_definition():
    # Seeded one-facet cones in d = 1..5, with h the lcm of the sides
    # or, for two thirds of them, a multiple of it, plus Gorenstein
    # cones (rho(1, ..., 1) = 0, where the walk stops after its first
    # line) and cones whose floor reaches 0 partway through. A line
    # trace shows that they reach the early stop, the dead zero line
    # and the line that keeps its floor.
    rng = seeded(43)
    largest = {1: 40, 2: 12, 3: 6, 4: 4, 5: 3}
    cases = [(5,), (1, 4), (2, 2, 2), (1, 1, 3), (3, 3, 3, 3), (2,) * 5]
    cases = [(sides, 1) for sides in cases]
    for i in range(200):
        d = 1 + i % 5
        sides = tuple(rng.randint(1, largest[d]) for _ in range(d))
        cases.append((sides, rng.choice((1, 2, 3))))
    calls = []
    kinds = set()
    for sides, multiple in cases:
        h = math.lcm(*sides) * multiple
        normal = tuple(h // a for a in sides)
        calls.append((normal, h, sides))
        if multiple == 1:
            cone = lift_halfspaces(
                newton_polyhedron(MonomialIdeal.pure_powers(sides))
            )
            assert cone_module._residue_sides(cone) == calls[-1], sides
            # the search box is the residue box, one more side for t
            box = tuple(map(sum, zip(*cone.rays)))
            assert box == sides + (1 + sum(sides) - len(sides),), sides
        expected = _brute_residue_generators(normal, h, sides)
        walked = cone_module._residue_generators(normal, h, sides)
        walked.sort(key=lambda v: (sum(v), v))
        assert walked == expected, (sides, multiple)
        rho = [
            (sum(n * c for n, c in zip(normal, z)) - 1) % h
            for z in itertools.product(*(range(1, a + 1) for a in sides))
        ]
        if rho[0] == 0:
            kinds.add("gorenstein")
            assert len(expected) == 1, sides
        else:
            kinds.add("zero partway" if 0 in rho else "no zero")
    assert kinds == {"gorenstein", "zero partway", "no zero"}

    walk = cone_module._residue_generators
    source, start = inspect.getsourcelines(walk)
    marks = {}
    for mark in ("break", "slab[slot] = zero", "slab[slot] = other"):
        (index,) = [i for i, line in enumerate(source) if mark in line]
        marks[mark] = start + index
    ran = _lines_run(walk, lambda: [walk(*call) for call in calls])
    assert {mark for mark, line in marks.items() if line in ran} == set(marks)


def test_filtration_reduction_number():
    """The report's filtration reduction number is a + d - 1."""
    for gens, expected in [
        (((2, 0, 0), (0, 2, 0), (0, 0, 4)), 1),
        (((2, 0), (0, 2)), 1),
        (((1, 0), (0, 1)), 0),
    ]:
        section = gorenstein_section(MonomialIdeal(len(gens), gens), False)
        assert section["filtration_reduction_number"] == expected


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
        fast = pure_power_gorenstein_test(ideal)
        full, data = is_gorenstein_normalization(ideal)
        assert fast.gorenstein == full, exps
        assert data.a_invariant == -fast.quotient, exps


def test_oversized_box_fails_fast():
    # 17.5M sweep columns: refused before any of them is scanned
    ideal = MonomialIdeal.pure_powers((7, 11, 13, 17, 19, 23))
    with pytest.raises(BudgetExceededError) as info:
        is_gorenstein_normalization(ideal)
    message = str(info.value)
    assert "(8, 12, 14, 18, 20, 24)" in message
    assert "17506125 columns" in message


def test_oversized_box_is_named_in_the_order_of_the_variables():
    # The scan would run with the longest side, 24, moved last; the
    # message still names the sweep box as the variables order it.
    ideal = MonomialIdeal.pure_powers((23, 7, 11, 13, 17, 19))
    with pytest.raises(BudgetExceededError) as info:
        is_gorenstein_normalization(ideal)
    message = str(info.value)
    assert "(24, 8, 12, 14, 18, 20)" in message
    assert "17506125 columns" in message
