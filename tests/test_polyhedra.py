"""Newton polyhedron facets, extreme rays, and integral closures."""

import gc
import itertools
import math
import operator
import re
from fractions import Fraction

import pytest

from reesgor import (
    MonomialIdeal,
    canonical_generators,
    closure_power,
    extreme_rays,
    lift_halfspaces,
    minimalize,
    newton_polyhedron,
    polyhedra,
)
from reesgor import cone as cone_module
from reesgor.cli import EXIT_USAGE, classify_failure
from reesgor.ideals import _axes, _job
from reesgor.errors import (
    BudgetExceededError,
    ConeGeometryError,
    DimensionMismatchError,
    InvalidIdealError,
    InvariantViolationError,
)
from reesgor.polyhedra import (
    COLUMN_BUDGET,
    FacetSystem,
    HalfSpace,
    _column_scan,
    _cone_rays,
    _dilate_minimal_points,
    _dot,
    _double_description,
    _plane_rays,
    _slack_fields,
)
from reesgor.report import closure_section

from conftest import (
    column_minima,
    column_points,
    oracle_iclosure_member,
    random_ideal,
    random_m_primary,
    seeded,
)


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
        newton_polyhedron(MonomialIdeal(2, ()))


@pytest.mark.parametrize(
    "source, ray, message",
    [
        ("_plane_rays", (1, -1, -1),
         "facet normal with a negative entry: (1, -1, -1)"),
        ("_plane_rays", (2, 2, -4),
         "imprimitive facet normal (2, 2) (offset 4)"),
        ("_plane_rays", (1, 1, 0),
         "offset-zero facet with non-axis normal (1, 1)"),
        ("_plane_rays", (2, 0, 0),
         "offset-zero facet with non-axis normal (2, 0)"),
        ("_plane_rays", (0, 1, 1),
         "dual ray (0, 1, 1) has nonzero normal but negative offset"),
        ("extreme_rays", (0, 3, 0, -6),
         "imprimitive facet normal (0, 3, 0) (offset 6)"),
        ("extreme_rays", (0, 1, 1, 0),
         "offset-zero facet with non-axis normal (0, 1, 1)"),
    ],
)
def test_newton_polyhedron_refuses_a_corrupt_dual_ray(
    monkeypatch, source, ray, message
):
    """Each check on the dual rays names a ray that breaks it: the
    rays of a sound ideal, with one corrupt ray put in, are refused."""
    dim = len(ray) - 1
    ideal = MonomialIdeal.pure_powers((2,) * dim)
    sound = getattr(polyhedra, source)
    monkeypatch.setattr(
        polyhedra, source, lambda *args: sound(*args) + (ray,)
    )
    with pytest.raises(InvariantViolationError, match=re.escape(message)):
        newton_polyhedron(ideal)


def _homogenized_rays(ideal):
    """Dual rays of the Newton polyhedron by double description on the
    homogenized constraints (g, 1) and e_j."""
    d = ideal.dim
    rows = [g + (1,) for g in ideal.gens]
    rows += [tuple(int(i == j) for i in range(d + 1)) for j in range(d)]
    return extreme_rays(rows, d + 1)


def _plane_cases(rng):
    """Seeded ideals in two variables: random staircases (many not
    m-primary, some principal), m-primary ones, staircases with a
    generator placed on the segment between two others, and the unit
    ideal."""
    yield MonomialIdeal.unit(2)
    for _ in range(800):
        yield random_ideal(rng, 2, max_gens=rng.randint(1, 8), max_coord=9)
        yield random_m_primary(rng, 2, max_coord=9, extras=5)
        p = (rng.randint(0, 4), rng.randint(4, 9))
        q = (rng.randint(p[0] + 1, 9), rng.randint(0, p[1] - 1))
        k = rng.randint(2, 3)
        step = (k * rng.randint(1, 3), -k * rng.randint(1, 3))
        mid = (p[0] + step[0] // k, p[1] + step[1] // k)
        end = (p[0] + step[0], p[1] + step[1])
        if end[1] >= 0:
            yield MonomialIdeal(2, (p, mid, end, q))


def _plane_shape(ideal, rays):
    """The cases the lower hull must tell apart, read off the rays."""
    gens = ideal.gens
    lines = [w for w in rays if w[:2] != (0, 0)]
    on = [sum(1 for w in lines if _dot(w[:2], g) == -w[2]) for g in gens]
    shapes = set()
    if ideal == MonomialIdeal.unit(ideal.dim):
        shapes.add("unit")
    elif len(gens) == 1:
        shapes.add("principal")
    if 1 in on:
        shapes.add("on an edge")
    if 0 in on:
        shapes.add("above the hull")
    if gens[0][0] > 0 and gens[-1][1] > 0:
        shapes.add("off both axes")
    return shapes


def test_plane_rays_match_double_description():
    rng = seeded(2024)
    compared = 0
    shapes = set()
    for ideal in _plane_cases(rng):
        rays = _homogenized_rays(ideal)
        assert _plane_rays(ideal.gens) == rays, ideal.to_str()
        shapes |= _plane_shape(ideal, rays)
        compared += 1
    assert compared >= 2000
    assert shapes == {
        "unit",
        "principal",
        "on an edge",
        "above the hull",
        "off both axes",
    }


def _pure_power_rows(powers):
    """The rows `newton_polyhedron` makes for the pure powers x_i^a_i:
    the lifted generators (a_i e_i, 1), then the unit rows."""
    d = len(powers)
    units = _axes((1,) * d, d + 1)
    return [e[:-1] + (1,) for e in _axes(powers, d + 1)] + units


def _one_row_rows(rng, n):
    """The unit rows e_1, ..., e_(n-1) and one row with last entry in
    1..30 and other entries in -30..30, a fifth of them 0."""
    head = [rng.randint(-30, 30) if rng.random() < 0.8 else 0
            for _ in range(n - 1)]
    return _axes((1,) * (n - 1), n) + [tuple(head) + (rng.randint(1, 30),)]


def _near_misses(rng, rows, dim):
    """Row sets one step off a closed form's shape: a unit row
    repeated or dropped, a second row with a positive last entry, a
    row that is no unit row with its last entry set to 0 or -1, and in
    a pure power such a row with a second nonzero entry."""
    units = _axes((1,) * (dim - 1), dim)
    others = [row for row in rows if row not in units]
    other = others[0]
    unit = rng.choice(units)
    yield rows + [unit]
    yield [row for row in rows if row != unit]
    yield rows + [tuple(rng.randint(-3, 3) for _ in range(dim - 1)) + (2,)]
    if len(others) > 1:
        bent = list(other)
        bent[other.index(0)] = rng.randint(1, 3)
        yield [tuple(bent) if row == other else row for row in rows]
    for last in (0, -1):
        yield [other[:-1] + (last,) if row == other else row for row in rows]


def test_closed_form_rays_match_double_description(monkeypatch):
    # every pure power with a_i in 1..6 for d = 2..4 and in 1..4 for
    # d = 5, rows shuffled, and seeded one-row cones in n = 2..6 take a
    # closed form and give the loop's rays; the near misses of both
    # shapes take the loop, and so agree with it
    rng = seeded(50)
    shaped = []
    for d, top in ((2, 6), (3, 6), (4, 6), (5, 4)):
        for powers in itertools.product(range(1, top + 1), repeat=d):
            rows = _pure_power_rows(powers)
            rng.shuffle(rows)
            shaped.append((rows, d + 1))
    assert len(shaped) == 2572
    for _ in range(1500):
        n = rng.randint(2, 6)
        rows = _one_row_rows(rng, n)
        rng.shuffle(rows)
        shaped.append((rows, n))
    missed = [
        (rows, dim)
        for base, dim in rng.sample(shaped[:2572], 150) + shaped[2572::10]
        for rows in _near_misses(rng, base, dim)
    ]
    loops = []

    def loop(constraints, dim):
        loops.append(dim)
        return _double_description(constraints, dim)

    monkeypatch.setattr(polyhedra, "_double_description", loop)
    for rows, dim in shaped:
        rows = tuple(rows)
        assert _cone_rays(rows, dim) == _double_description(rows, dim), rows
    assert loops == []
    outcomes = set()
    for rows, dim in missed:
        rows = tuple(rows)
        expected = _outcome(_double_description, rows, dim)
        assert _outcome(_cone_rays, rows, dim) == expected, rows
        outcomes.add(expected[1] if isinstance(expected[0], type) else "rays")
    assert len(loops) == len(missed)
    assert outcomes == {
        "rays", "cone is not pointed: constraint normals do not span"
    }


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
                if all(_dot(o.normal, v) >= o.offset for o in others) and (
                    _dot(dropped.normal, v) < dropped.offset
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


def _lifted_rows(rng, dim):
    """The rows `lift_halfspaces` makes for a random m-primary ideal in
    dim variables: a lifted row per bounded facet, then the unit rows."""
    facets = newton_polyhedron(random_m_primary(rng, dim, max_coord=4))
    return [
        tuple(a - f.offset for a in f.normal) + (f.offset,)
        for f in facets.bounded
    ] + [tuple(int(k == j) for k in range(dim + 1)) for j in range(dim)]


def _row_sets(rng, count):
    """Seeded constraint sets for extreme_rays: homogenized Newton
    constraints, lifted cone rows, and random rows in [-4, 4] with
    repeated, scaled, negated, summed and zero rows mixed in, so that
    non-pointed, not full-dimensional, redundant and degenerate cones
    all occur. After the count draws come count // 50 lifted row sets
    in d = 5, the largest size the gorenstein benchmark pool lifts."""
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
            yield _lifted_rows(rng, dim), dim + 1
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
    for _ in range(count // 50):
        yield _lifted_rows(rng, 5), 6


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


def test_extreme_rays_do_not_depend_on_row_order():
    rng = seeded(31)
    for rows, dim in _row_sets(rng, 1000):
        expected = _outcome(extreme_rays, rows, dim)
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert _outcome(extreme_rays, shuffled, dim) == expected, (rows, dim)
        assert _outcome(extreme_rays, rows[::-1], dim) == expected, (rows, dim)


def test_the_orthant_start_matches_the_reference_on_unit_rows():
    # The double description sets up the cone of the unit rows e_j in
    # one pass; these row sets put repeats, negations and zero rows
    # next to them, and place them first, last and shuffled.
    rng = seeded(37)
    cases = [
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3),  # only unit rows
        ([(0, 1), (1, 0)], 2),
        ([(1, 0, 0), (0, 0, 1)], 3),  # unit rows, not pointed
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 0)], 3),  # a repeat
        ([(0, 1, 0), (1, 1, -1), (0, 1, 0), (1, 0, 0), (0, 0, 1)], 3),
        ([(1, 0), (-1, 0), (0, 1)], 2),  # a unit row and its negation
        ([(0, 0, 1), (1, 0, 0), (0, 1, 0), (0, -1, 0)], 3),
        ([(-1, 0, 0), (1, 0, 0), (0, 1, 1), (0, 1, -1)], 3),
        ([(1, 0, 0), (0, 0, 0), (0, 1, 0), (0, 0, 1)], 3),  # a zero row
        ([(0, 0), (1, 0), (0, 0), (0, 1), (1, 0)], 2),
        ([(2, 0, 0), (0, 1, 0), (0, 0, 3), (1, 1, -1)], 3),  # no unit row
    ]
    for _ in range(60):
        dim = rng.randint(2, 4)
        rows = _lifted_rows(rng, dim)
        units = [row for row in rows if sorted(row) == [0] * dim + [1]]
        others = [row for row in rows if row not in units]
        units += rng.sample(units, rng.randint(0, 2))
        if rng.random() < 0.3:
            others.append((0,) * (dim + 1))
        if rng.random() < 0.3:
            others.append(tuple(-c for c in rng.choice(units)))
        shuffled = units + others
        rng.shuffle(shuffled)
        cases += [(units + others, dim + 1), (others + units, dim + 1),
                  (shuffled, dim + 1)]
    outcomes = set()
    for rows, dim in cases:
        expected = _outcome(_reference_extreme_rays, rows, dim)
        assert _outcome(extreme_rays, rows, dim) == expected, (rows, dim)
        outcomes.add(expected[1] if isinstance(expected[0], type) else "rays")
    assert outcomes == {
        "rays",
        "cone is not pointed: constraint normals do not span",
        "cone is not full dimensional: extreme rays span a proper subspace",
    }


@pytest.mark.parametrize(
    "rows",
    [
        [(1, -1.5), (0, 1)],
        [(True, 0), (0, 1)],
        [(1, 2.0**53 + 1), (0, 1)],
        [(0.5, 0), (0, 1)],
    ],
)
def test_extreme_rays_refuse_entries_that_are_not_ints(rows):
    # each was answered, or refused for another reason, after int(...)
    bad = next(row for row in rows if set(map(type, row)) != {int})
    with pytest.raises(InvalidIdealError, match="non-integer") as info:
        extreme_rays(rows, 2)
    assert str(tuple(bad)) in str(info.value)


def test_extreme_rays_keep_the_length_check_before_the_entry_check():
    # Within a row the length is checked first, and the refusal names
    # it; across rows the first flawed row decides.
    with pytest.raises(
        DimensionMismatchError, match="vector of length 3 against dimension 2"
    ):
        extreme_rays([(1.5, 0, 0), (0, 1)], 2)
    flawed = r"non-integer exponent in \(1\.5, 0\)"
    with pytest.raises(InvalidIdealError, match=flawed):
        extreme_rays([(1.5, 0), (0, 1, 0)], 2)


@pytest.mark.parametrize(
    "rows, dim",
    [([()], 0), ([], -1), ([(1,)], True), ([(1, 0), (0, 1)], 2.0)],
)
def test_extreme_rays_refuse_a_dim_that_is_no_positive_int(rows, dim):
    with pytest.raises(InvalidIdealError, match="positive int"):
        extreme_rays(rows, dim)


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
        assert list(column_minima(rows, (3, 3))) == expected


def _reference_column_minima(rows, bounds):
    """The column scan with one full dot product per row per column,
    as it ran before the needs were stepped."""
    columns = math.prod(b + 1 for b in bounds)
    if columns > COLUMN_BUDGET:
        raise BudgetExceededError(
            f"column scan over the box {tuple(bounds)} needs {columns} "
            f"columns, budget is {COLUMN_BUDGET}"
        )
    split = [(normal[:-1], normal[-1], rhs) for normal, rhs in rows]
    for prefix in itertools.product(*(range(b + 1) for b in bounds)):
        t = 0
        for head, last, rhs in split:
            need = rhs - sum(a * b for a, b in zip(head, prefix))
            if need > 0:
                if last == 0:
                    break
                t = max(t, -(-need // last))
        else:
            yield prefix + (t,)


def _scan_cases(seed, lengths, entries, lasts, rhs, counts):
    """Seeded (rows, bounds) pairs: 30 boxes per length below
    `lengths`, each with a number of rows in the closed range `counts`,
    drawn from `entries`, `lasts` at t and `rhs(rng)`."""
    rng = seeded(seed)
    for length in range(lengths):
        for _ in range(30):
            bounds = tuple(rng.randint(0, 3) for _ in range(length))
            rows = [
                (
                    tuple(rng.choice(entries) for _ in range(length))
                    + (rng.choice(lasts),),
                    rhs(rng),
                )
                for _ in range(rng.randint(*counts))
            ]
            yield rows, bounds


def _small_scan_cases():
    # zeros are common, so rows with last entry 0, rows constant along
    # the last box coordinate, and rows with both occur throughout
    return _scan_cases(
        81, 6, (-3, -1, 0, 0, 0, 1, 2, 4), (0, 0, 1, 2, 3),
        lambda rng: rng.randint(-2, 7), (0, 5),
    )


def _wide_scan_cases():
    # entries and right-hand sides near 2^70, so that slacks, and the
    # packed fields, are wider than 64 bits
    big = 1 << 70
    return _scan_cases(
        83, 5, (-big - 3, -big, -1, 0, 0, 1, big, big + 5),
        (0, 1, 3, big, big + 1),
        lambda rng: rng.choice((-big, -2, 0, 5, big, 3 * big)), (1, 4),
    )


def test_column_minima_match_the_reference_scan():
    yielded = 0
    for rows, bounds in _small_scan_cases():
        expected = list(_reference_column_minima(rows, bounds))
        assert list(column_minima(rows, bounds)) == expected, (rows, bounds)
        yielded += len(expected)
    assert yielded > 1000

    edge_cases = [
        ([((1, 0, 2), 5), ((0, -1, 0), -2)], (0, 0)),  # all-zero bounds
        ([], (2, 1, 3)),  # no rows: t = 0 everywhere
        ([], ()),
        ([((3,), 7), ((0,), -1)], ()),  # d = 1: the single column (3,)
        ([((0,), 1)], ()),  # d = 1, no t closes it
        ([((1, 0, 0), 1), ((0, 1, 0), 1), ((-2, -1, 3), 1)], (3, 4)),
    ]
    for rows, bounds in edge_cases:
        expected = list(_reference_column_minima(rows, bounds))
        assert list(column_minima(rows, bounds)) == expected, (rows, bounds)
    assert list(column_minima([((1, 0, 2), 5)], (0, 0))) == [(0, 0, 3)]
    assert list(column_minima([((3,), 7)], ())) == [(3,)]


def test_column_scan_values_are_the_row_values_of_its_points():
    # The rows and boxes of the reference comparison above: bounds of
    # length 0-5, rows with last entry 0, rows zero at x and t, and
    # such rows and moving rows interleaved in every order.
    cases = list(_small_scan_cases()) + [
        ([((1, 0, 2), 5), ((0, -1, 0), -2)], (0, 0)),
        ([], (2, 1, 3)),
        ([((3,), 7), ((0,), -1)], ()),
        ([((1, 0, 0), 1), ((0, 1, 0), 1), ((-2, -1, 3), 1)], (3, 4)),
    ]
    checked = 0
    reached = set()
    for rows, bounds in cases:
        rejected = _prefixes_rejected_by_a_constant_row(rows, bounds)
        for prefix, xs, ts, slacks in _column_scan(rows, bounds)[2]:
            assert prefix not in rejected, (rows, bounds, prefix)
            assert len(xs) == len(ts) > 0
            assert len(slacks) == len(xs)
            if not rows:
                reached.add("a batch with no rows")
            if not bounds:
                reached.add("empty bounds")
            elif xs[-1] < bounds[-1]:
                reached.add("an x range clipped from above")
            if xs.start > 0:
                reached.add("an x range clipped from below")
        if bounds and any(n[-1] > 0 and n[-2] == 0 for n, _ in rows):
            reached.add("a row that lifts t alone, the same at every x")
        if rejected:
            reached.add("a batch rejected by a row zero at x and t")
        points = []
        for v, values in column_points(rows, bounds):
            assert values == tuple(_dot(n, v) for n, _ in rows), (rows, v)
            points.append(v)
            checked += 1
        assert points == list(_reference_column_minima(rows, bounds))
    assert checked > 1000
    assert reached == {
        "a batch with no rows",
        "empty bounds",
        "an x range clipped from above",
        "an x range clipped from below",
        "a batch rejected by a row zero at x and t",
        "a row that lifts t alone, the same at every x",
    }


def test_wide_slack_fields_match_the_reference_scan():
    # Slacks, and so the packed fields, wider than 64 bits. The scan
    # must still yield the reference points, each with its exact row
    # values.
    widest = checked = 0
    for rows, bounds in _wide_scan_cases():
        widest = max(widest, _slack_fields(rows, bounds)[0])
        points = []
        for v, values in column_points(rows, bounds):
            assert values == tuple(_dot(n, v) for n, _ in rows), (rows, v)
            points.append(v)
        assert points == list(_reference_column_minima(rows, bounds))
        checked += len(points)
    assert widest > 64
    assert checked > 1000


def test_the_scan_yields_guarded_slacks_and_returns_their_layout(monkeypatch):
    # The random and the >64-bit row sets of the two tests above. Every
    # yielded slack has its guard bits set, and one subtraction and one
    # mask against another slack, unguarded, compare the two field by
    # field.
    cases = itertools.chain(_small_scan_cases(), _wide_scan_cases())
    widest = pairs = 0
    outcomes = set()
    for rows, bounds in cases:
        width, guard, batches = _column_scan(rows, bounds)
        assert (width, guard) == _slack_fields(rows, bounds)
        mask = (1 << width) - 1
        points = [
            (prefix + (x, t) if bounds else (t,), slack)
            for prefix, xs, ts, slacks in batches
            for x, t, slack in zip(xs, ts, slacks)
        ]
        decoded = []
        for v, slack in points[:: max(1, len(points) // 16)]:
            assert slack & guard == guard, (rows, bounds, v)
            fields = [
                (slack ^ guard) >> (width * r) & mask for r in range(len(rows))
            ]
            assert fields == [_dot(n, v) - rhs for n, rhs in rows]
            decoded.append((slack, fields))
        for s, a in decoded:
            for f, b in decoded:
                dominates = (s - (f ^ guard)) & guard == guard
                assert dominates == all(map(operator.ge, a, b)), (rows, a, b)
                outcomes.add(dominates)
                pairs += 1
        widest = max(widest, width)
    assert widest > 64
    assert pairs > 10_000
    assert outcomes == {True, False}

    # One derivation of the layout per scan: the cone takes it from the
    # scan and no longer imports it, and a d = 3 closure packs its
    # normal columns at the width the scan returns. The anchor's cone
    # has one facet, so its canonical step reads the residue box and
    # scans nothing; the two-facet cone of (x^3, xy, y^3) scans once.
    assert not hasattr(cone_module, "_slack_fields")
    derived = []
    scans = []

    def counted(rows, bounds):
        derived.append(bounds)
        return _slack_fields(rows, bounds)

    def counted_scan(rows, bounds):
        scans.append(bounds)
        return _column_scan(rows, bounds)

    monkeypatch.setattr(polyhedra, "_slack_fields", counted)
    monkeypatch.setattr(cone_module, "_column_scan", counted_scan)
    anchor = MonomialIdeal(3, ((3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)))
    canonical_generators(lift_halfspaces(newton_polyhedron(anchor)))
    assert (len(scans), len(derived)) == (0, 0)
    two_facets = MonomialIdeal(2, ((3, 0), (1, 1), (0, 3)))
    canonical_generators(lift_halfspaces(newton_polyhedron(two_facets)))
    assert (len(scans), len(derived)) == (1, 1)
    for n in (1, 2, 3):
        derived.clear()
        closure_power(anchor, n)
        assert len(derived) == 1


def _prefixes_rejected_by_a_constant_row(rows, bounds):
    """The prefixes at which some row, zero at x and at t, has a
    positive need: no column of such a prefix meets that row, so the
    scan yields no batch for it. An empty `bounds` has the one prefix
    (), and there the x entry is the zero the scan puts in front."""
    outer = bounds[:-1]
    constant = [
        (normal, rhs)
        for normal, rhs in rows
        if not normal[-1] and not (bounds and normal[-2])
    ]
    return {
        prefix
        for prefix in itertools.product(*(range(b + 1) for b in outer))
        if any(rhs > _dot(normal, prefix) for normal, rhs in constant)
    }


def test_column_scans_leave_no_reference_cycle():
    # A scan frees what it holds when its batches are dropped, whether
    # read to the end or not, without waiting for the cyclic collector.
    rows = [((1, 0, 2), 5), ((0, 1, 3), 4)]
    gc.collect()
    gc.disable()
    try:
        for _ in range(50):
            assert list(_column_scan(rows, (3, 4))[2])
            assert next(_column_scan(rows, (3, 4))[2])
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_column_scan_budget():
    with pytest.raises(BudgetExceededError, match=f"{COLUMN_BUDGET + 1} columns"):
        next(column_minima([], (COLUMN_BUDGET,)))


# ------------------------------------------------------------------ #
# integral closure


def test_closure_power_refuses_bool_and_non_int_powers(monkeypatch):
    ideal = MonomialIdeal(2, ((2, 0), (0, 2)))

    def no_work(*args):
        raise AssertionError("facets computed before the power was checked")

    monkeypatch.setattr(polyhedra, "newton_polyhedron", no_work)
    for n in (True, False, 2.0, "2", None):
        with pytest.raises(TypeError):
            closure_power(ideal, n)
    with pytest.raises(TypeError):
        closure_section(ideal, True)


def test_closure_power_refuses_facets_of_another_dimension(monkeypatch):
    # "generator (0, 0, 2) has 3 entries, expected 2" blamed the ideal
    ideal = MonomialIdeal(2, ((2, 0), (0, 2)))
    facets = newton_polyhedron(
        MonomialIdeal(3, ((2, 0, 0), (0, 2, 0), (0, 0, 2)))
    )

    def no_work(*args):
        raise AssertionError("scan ran before the facets were checked")

    monkeypatch.setattr(polyhedra, "_dilate_minimal_points", no_work)
    with pytest.raises(
        DimensionMismatchError,
        match="facets of dimension 3 against an ideal of dimension 2",
    ):
        closure_power(ideal, 2, facets)


def test_hand_made_facets_are_checked_at_construction():
    # closure_power(I, 1, FacetSystem(2, (HalfSpace((1, 1), 2.5),), ()))
    # raised AttributeError deep in the scan, and an offset of True was
    # read as 1: each is now refused where the facet is made, naming it
    for make, message in (
        (lambda: HalfSpace((1.0, 1), 2),
         "non-integer entry in facet HalfSpace(normal=(1.0, 1), offset=2)"),
        (lambda: HalfSpace((1, 1), 2.5),
         "non-integer entry in facet HalfSpace(normal=(1, 1), offset=2.5)"),
        (lambda: HalfSpace((1, 1), True),
         "non-integer entry in facet HalfSpace(normal=(1, 1), offset=True)"),
        (lambda: FacetSystem(2, (HalfSpace((1, 1, 1), 2),), ()),
         "facet HalfSpace(normal=(1, 1, 1), offset=2) has 3 normal "
         "entries, expected 2"),
        (lambda: FacetSystem(3, (HalfSpace((1, 1, 1), 2),
                                 HalfSpace((1, 2), 2)), ()),
         "facet HalfSpace(normal=(1, 2), offset=2) has 2 normal entries, "
         "expected 3"),
        # x - y >= 1 gave the unit ideal as the closure of (x^2, y^2),
        # while contains_power((0, 0), 1) said False: the scan's box and
        # slack widths need normals >= 0 and offsets > 0
        (lambda: FacetSystem(2, (HalfSpace((1, -1), 1),), ()),
         "bounded facet HalfSpace(normal=(1, -1), offset=1) needs a "
         "normal >= 0 and an offset > 0"),
        (lambda: FacetSystem(2, (HalfSpace((1, 1), 0),), ()),
         "bounded facet HalfSpace(normal=(1, 1), offset=0) needs a "
         "normal >= 0 and an offset > 0"),
        (lambda: FacetSystem(3, (HalfSpace((1, 1, 1), 2),
                                 HalfSpace((0, 2, 1), -1)), ()),
         "bounded facet HalfSpace(normal=(0, 2, 1), offset=-1) needs a "
         "normal >= 0 and an offset > 0"),
    ):
        with pytest.raises(InvalidIdealError) as caught:
            make()
        assert str(caught.value) == message
    # a hand-made system of plain ints is taken as it stands
    ideal = MonomialIdeal(2, ((2, 0), (0, 2)))
    made = FacetSystem(2, (HalfSpace([1, 1], 2),), (0, 1))
    assert made == newton_polyhedron(ideal)
    assert closure_power(ideal, 3, made) == closure_power(ideal, 3)


def test_a_facet_system_refuses_a_bounded_entry_that_is_no_half_space():
    # A bare normal once raised AttributeError on its missing .normal;
    # a refused entry is bad input, exit 1, named in the message
    for bounded, shown in (
        ([(1, 1)], "(1, 1)"),
        ((HalfSpace((1, 1), 2), "x + y >= 2"), "'x + y >= 2'"),
    ):
        with pytest.raises(InvalidIdealError) as caught:
            FacetSystem(2, bounded, (0, 1))
        assert str(caught.value) == f"bounded facet {shown} is no HalfSpace"
        assert classify_failure(caught.value) == EXIT_USAGE


def test_a_facet_system_refuses_a_coordinate_entry_outside_its_axes():
    # ['a', 7] was once stored as it stood; every entry must be an
    # exact int naming one of the dim axes
    for coordinate, shown in (
        (["a", 7], "'a'"), ((0, 7), "7"), ((-1,), "-1"), ((True,), "True"),
        ((1.0,), "1.0"),
    ):
        with pytest.raises(InvalidIdealError) as caught:
            FacetSystem(2, [], coordinate)
        assert str(caught.value) == (
            f"coordinate facet {shown} is no int in range(2)"
        )
        assert classify_failure(caught.value) == EXIT_USAGE
    assert FacetSystem(2, [], [1, 0]).coordinate == (1, 0)


def test_a_facet_system_built_from_lists_stores_tuples():
    # FacetSystem stores its facets and axes as tuples. Given lists, it
    # once compared unequal to the same system of tuples, and inside a
    # job closure_power raised TypeError (unhashable type: 'list').
    ideal = MonomialIdeal(2, ((2, 0), (1, 1), (0, 2)))
    built = FacetSystem(2, [HalfSpace((1, 1), 2)], [0, 1])
    tuples = FacetSystem(2, (HalfSpace((1, 1), 2),), (0, 1))
    assert built == tuples == newton_polyhedron(ideal)
    assert hash(built) == hash(tuples)
    expected = closure_power(ideal, 3)
    assert closure_power(ideal, 3, built) == expected
    with _job():
        assert closure_power(ideal, 3, built) == expected


class Power(int):
    """An int subclass that is not bool: a power like any other."""


def test_closure_points_are_valid_without_the_check():
    # closure_power hands its scan's points to minimalize unchecked: on
    # seeded facets in d = 1..4, systems with no bounded facet, and
    # hand-made facets with zero entries, they pass the validated entry
    # and give the same ideal, in plain ints even for an int-subclass n
    rng = seeded(97)
    cases = []
    for d in (1, 2, 3, 4):
        for _ in range(6):
            ideal = random_ideal(rng, d, max_gens=4, max_coord=3)
            cases.append((ideal, newton_polyhedron(ideal)))
    for ideal in (
        MonomialIdeal(1, ((3,),)),
        MonomialIdeal(2, ((2, 1),)),
        MonomialIdeal(3, ((1, 0, 2), (0, 1, 1))),
    ):
        cases.append((ideal, newton_polyhedron(ideal)))
        cases.append((ideal, FacetSystem(ideal.dim, (), ())))
    ideal = MonomialIdeal(3, ((2, 0, 0), (0, 3, 0), (0, 0, 1)))
    cases.append((ideal, FacetSystem(
        3, (HalfSpace((0, 1, 1), 1), HalfSpace((1, 0, 2), 3)), ())))
    cases.append((ideal, FacetSystem(3, (HalfSpace((2, 0, 0), 1),), ())))
    assert {facets.dim for _, facets in cases} == {1, 2, 3, 4}
    assert any(not facets.bounded for _, facets in cases)
    for ideal, facets in cases:
        for n in (1, 2, Power(3)):
            points = _dilate_minimal_points(facets, n, ideal.max_exponents())
            for v in points:
                assert type(v) is tuple and len(v) == ideal.dim
                assert all(type(e) is int and e >= 0 for e in v), v
            assert points == minimalize(points, ideal.dim)
            closed = closure_power(ideal, n, facets)
            assert closed == MonomialIdeal(ideal.dim, tuple(points))
            assert all(type(e) is int for g in closed.gens for e in g)


def test_closure_points_are_their_own_minimalization():
    # closure_power hands its scan's points to minimalize as already
    # minimal, unread: the scan keeps exactly the lattice points of the
    # dilate with no lower neighbour in it, sorted. Checked against the
    # validated entry on 1,800 seeded (ideal, n) pairs in d = 1..4, half
    # of them m-primary, and on systems with no bounded facet
    rng = seeded(3404)
    pairs = 0
    for d in (1, 2, 3, 4):
        for k in range(150):
            ideal = (random_ideal if k % 2 else random_m_primary)(rng, d)
            facets = newton_polyhedron(ideal)
            for n in (1, 2, 3):
                points = _dilate_minimal_points(
                    facets, n, ideal.max_exponents()
                )
                assert points == minimalize(points, d), (ideal.gens, n)
                pairs += 1
        empty = FacetSystem(d, (), ())
        assert _dilate_minimal_points(empty, 2, (3,) * d) == ((0,) * d,)
        assert closure_power(ideal, 2, empty).gens == ((0,) * d,)
    assert pairs == 1800


def test_closure_frozen_values():
    j = MonomialIdeal(2, ((2, 0), (0, 2)))
    assert closure_power(j, 1).gens == ((0, 2), (1, 1), (2, 0))
    big = MonomialIdeal(3, ((2, 0, 0), (0, 2, 0), (0, 0, 4)))
    assert closure_power(big, 1).gens == (
        (0, 0, 4),
        (0, 1, 2),
        (0, 2, 0),
        (1, 0, 2),
        (1, 1, 0),
        (2, 0, 0),
    )


def test_closure_power_conventions():
    j = MonomialIdeal(2, ((2, 0), (0, 2)))
    assert closure_power(j, 0) == MonomialIdeal.unit(j.dim)
    assert closure_power(j, -3) == MonomialIdeal.unit(j.dim)


def test_closure_contains_power_and_is_closed():
    rng = seeded(24)
    for _ in range(10):
        ideal = random_ideal(rng, 2, max_coord=4)
        facets = newton_polyhedron(ideal)
        for n in (1, 2, 3):
            closed = closure_power(ideal, n, facets)
            assert (ideal ** n).is_subset(closed)
            assert closure_power(closed, 1) == closed


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


def _reference_dilate_minimal_points(facets, n, maxexp):
    """Minimal points of the n-fold dilate with one membership test of
    each lower neighbor, as they were found before the scan's row
    values decided minimality."""
    d = facets.dim
    if not facets.bounded:
        return ((0,) * d,)
    bounds = [n * m for m in maxexp]
    rows = [(f.normal, n * f.offset) for f in facets.bounded]
    gens = []
    for v in column_minima(rows, bounds[: d - 1]):
        minimal = True
        for j in range(d):
            if v[j] == 0:
                continue
            down = v[:j] + (v[j] - 1,) + v[j + 1 :]
            if facets.contains_power(down, n):
                minimal = False
                break
        if minimal:
            gens.append(v)
    return tuple(sorted(gens))


def test_dilate_minimal_points_match_the_membership_reference():
    # random_ideal draws ideals that are not m-primary too, whose facet
    # normals have zero entries (rows fixed along the scan).
    # A facet on an axis of the scan's x makes a batch start above
    # x = 0, whose first column has no column before it; the seeds
    # reach that in every d with such a coordinate.
    rng = seeded(91)
    compared = 0
    offset_batches = set()
    for d in (1, 2, 3, 4):
        for _ in range(8):
            for ideal in (
                random_ideal(rng, d, max_gens=4, max_coord=3),
                random_m_primary(rng, d, max_coord=3, extras=2),
            ):
                facets = newton_polyhedron(ideal)
                maxexp = ideal.max_exponents()
                for n in range(1, 5):
                    expected = _reference_dilate_minimal_points(
                        facets, n, maxexp
                    )
                    assert (
                        _dilate_minimal_points(facets, n, maxexp) == expected
                    ), (ideal.to_str(), n)
                    compared += len(expected)
                    rows = [(f.normal, n * f.offset) for f in facets.bounded]
                    bounds = [n * m for m in maxexp][: d - 1]
                    if d > 1 and rows and any(
                        xs.start > 0
                        for _, xs, _, _ in _column_scan(rows, bounds)[2]
                    ):
                        offset_batches.add(d)
    assert compared > 1000
    assert offset_batches == {2, 3, 4}


def test_wide_slack_fields_match_the_membership_reference():
    # Hand-made facet systems with nonnegative entries and offsets near
    # 2^70 over small boxes, some with a zero box coordinate: fields
    # wider than 64 bits, and entries near 2^70 compared with them.
    rng = seeded(93)
    big = 1 << 70
    entries = (0, 1, 2, big, big + 3)
    widest = compared = 0
    for d in (1, 2, 3, 4):
        for _ in range(10):
            bounded = tuple(
                HalfSpace(
                    tuple(rng.choice(entries) for _ in range(d - 1))
                    + (rng.choice((1, 2, big)),),
                    rng.choice((1, 3, big, 2 * big + 1)),
                )
                for _ in range(rng.randint(1, 3))
            )
            facets = FacetSystem(dim=d, bounded=bounded, coordinate=())
            maxexp = tuple(rng.randint(0, 2) for _ in range(d))
            for n in (1, 2):
                expected = _reference_dilate_minimal_points(facets, n, maxexp)
                assert _dilate_minimal_points(facets, n, maxexp) == expected, (
                    bounded,
                    maxexp,
                    n,
                )
                rows = [(f.normal, n * f.offset) for f in bounded]
                bounds = [n * m for m in maxexp[: d - 1]]
                widest = max(widest, _slack_fields(rows, bounds)[0])
                compared += len(expected)
    assert widest > 64
    assert compared > 100


def test_closures_over_a_box_with_a_zero_coordinate():
    # A variable no generator uses has maximal exponent 0, so the scan's
    # box is 0 there: an outer coordinate, or the scan's x.
    ideals = [
        MonomialIdeal(3, ((0, 2, 0), (0, 1, 1), (0, 0, 3))),
        MonomialIdeal(3, ((2, 0, 0), (1, 0, 1), (0, 0, 3))),
        MonomialIdeal(4, ((0, 3, 1, 0), (0, 0, 2, 1), (0, 1, 0, 3))),
        MonomialIdeal(
            4, ((3, 0, 0, 1), (0, 2, 0, 0), (1, 1, 0, 2), (0, 0, 0, 4))
        ),
    ]
    zero_at = set()
    for ideal in ideals:
        d = ideal.dim
        facets = newton_polyhedron(ideal)
        assert not facets.is_m_primary_source()
        maxexp = ideal.max_exponents()
        zero_at.update(j for j in range(d - 1) if not maxexp[j])
        for n in (1, 2, 3):
            rows = [(f.normal, n * f.offset) for f in facets.bounded]
            bounds = [n * m for m in maxexp[: d - 1]]
            assert list(column_minima(rows, bounds)) == list(
                _reference_column_minima(rows, bounds)
            )
            assert _dilate_minimal_points(
                facets, n, maxexp
            ) == _reference_dilate_minimal_points(facets, n, maxexp), (
                ideal.to_str(),
                n,
            )
            assert (ideal ** n).is_subset(closure_power(ideal, n, facets))
    assert zero_at == {0, 1, 2}


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


def test_contains_power_refuses_bool_and_non_int_powers():
    # A vector of the wrong length shows that the power is checked
    # before anything else: it would raise DimensionMismatchError.
    facets = newton_polyhedron(MonomialIdeal(2, ((2, 0), (0, 2))))
    for n in (True, False, 1.5, 2.0, "2", None):
        with pytest.raises(TypeError, match="exponent must be an int"):
            facets.contains_power((1, 1), n)
        with pytest.raises(TypeError, match="exponent must be an int"):
            facets.contains_power((1, 1, 1), n)
    assert facets.contains_power((1, 1), 1)
    assert not facets.contains_power((1, 1), 2)
    assert facets.contains_power((1, 1), 0)


def test_contains_power_refuses_entries_that_are_not_ints():
    # On (x, y), the float point (2^53, 1) sums to 2^53 in floating
    # point, and would miss the dilate n = 2^53 + 1 that it lies in.
    facets = newton_polyhedron(MonomialIdeal(2, ((2, 0), (0, 2))))
    for v in ((1.5, 0.5), (True, 1), (1, 1.0)):
        with pytest.raises(InvalidIdealError, match="non-integer exponent in"):
            facets.contains_power(v, 1)
    line = newton_polyhedron(MonomialIdeal.pure_powers((1, 1)))
    with pytest.raises(InvalidIdealError, match="non-integer exponent in"):
        line.contains_power((2.0**53, 1.0), 2**53 + 1)
    assert line.contains_power((2**53, 1), 2**53 + 1)
    with pytest.raises(DimensionMismatchError, match="length 3 against"):
        facets.contains_power((1, 1, 1), 1)
    assert not facets.contains_power((-1, 3), 1)
    assert not facets.contains_power((-1, 3), 0)

    # the rule of minimalize: an int subclass other than bool passes
    class Exponent(int):
        pass

    assert facets.contains_power((Exponent(2), 0), 1)


def test_monomial_membership_under_closure():
    # x*y*z is integral over (x^3, y^3, z^3) but x*y is not
    j = MonomialIdeal(3, ((3, 0, 0), (0, 3, 0), (0, 0, 3)))
    facets = newton_polyhedron(j)
    assert facets.contains_power((1, 1, 1), 1)
    assert not facets.contains_power((1, 1, 0), 1)
