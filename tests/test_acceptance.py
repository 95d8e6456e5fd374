"""End-to-end acceptance checks, one per headline capability.

Every test prints a single summary line; under ``pytest -v`` the
PASSED/FAILED verdict next to the test name is the per-criterion
scoreboard.  Two of the checks test statements that look plausible
but are false, and assert the counterexample that refutes each:

* ``test_criterion_2_interior_point_claims``: (3, 1, 2) is not in the
  lifted cone of (x^3, x*y, y^3), and that ideal's normalization is
  not Gorenstein.  The passing companion test covers the parts of
  that worked example that are true.
* ``test_criterion_7_equality_converse``: a(normalization) = q - d
  does not force the normalization to be Gorenstein.  (x^2, y^2),
  (x^2, y^3) and (x^4, x*y^3, y^4) all have a = q - d with a
  canonical module that needs more than one generator.

Both refutations are confirmed independently of ``cone.py``: the
canonical generators by a brute-force oracle scan, and the verdict by
the Danilov-Stanley criterion (a normal affine semigroup ring is
Gorenstein iff some lattice point has value 1 on every primitive
support form; Bruns-Herzog, Cohen-Macaulay Rings, 6.3).
"""

import itertools
import random
from math import gcd, lcm

import pytest

from reesgor import (
    HalfSpace,
    MonomialIdeal,
    canonical_generators,
    closure_nilpotency_index,
    closure_power,
    cohen_macaulay_test,
    compute_q,
    conductor_exponent,
    core_compute,
    find_pure_power_reduction,
    is_gorenstein_normalization,
    lift_halfspaces,
    newton_polyhedron,
    nilpotency_index,
    pure_power_gorenstein_test,
    quasi_gorenstein_test,
    reduction_number,
)
from reesgor.errors import DimensionMismatchError, InapplicableError
from reesgor.oracle import oracle_colon, oracle_intersect
from reesgor.report import gorenstein_section

from conftest import (
    cone_member,
    embed_phi,
    oracle_clear_cache,
    oracle_iclosure_member,
    oracle_relint_points,
    random_ideal,
    random_m_primary,
    single_facet_ideal,
)

M = MonomialIdeal(2, ((1, 0), (0, 1)))
M2 = M ** 2
J22 = MonomialIdeal(2, ((2, 0), (0, 2)))
TWO_FACETS = MonomialIdeal(2, ((3, 0), (1, 1), (0, 3)))
CRIT = MonomialIdeal(3, ((2, 0, 0), (0, 2, 0), (0, 0, 4)))
RICH = MonomialIdeal(2, ((4, 0), (1, 3), (0, 4)))


def pure_powers(exps):
    d = len(exps)
    gens = tuple(
        tuple(exps[i] if j == i else 0 for j in range(d)) for i in range(d)
    )
    return MonomialIdeal(d, gens)


def _pair(row, v):
    return sum(r * c for r, c in zip(row, v))


def _oracle_canonical_generators(rows, bounds):
    """Minimal interior points of the cone cut out by ``rows`` in the
    box [0, bounds], by brute force: the oracle's interior points,
    minus every one that is another interior point plus a cone point.
    The cone lies in the orthant, so that smaller interior point lies
    in the box too; the scan is exact whenever the box holds every
    minimal generator."""
    interior = oracle_relint_points(rows, bounds)
    return [
        v
        for v in interior
        if not any(
            u != v and all(_pair(row, v) >= _pair(row, u) for row in rows)
            for u in interior
        )
    ]


def _danilov_stanley_gorenstein(cone):
    """Gorenstein verdict by the Danilov-Stanley criterion: some
    lattice point c has value 1 on every primitive support form.  The
    coordinate rows force c = (1, ..., 1, t), and a bounded row
    (a - h, h) then reads s + h * t = 1, where s is the sum of its
    first d entries; so every h must divide 1 - s with one common
    quotient t."""
    d = cone.dim
    heights = set()
    for row in cone.matrix:
        assert gcd(*row) == 1, row
        if row[d] == 0:
            continue
        s = sum(row[:d])
        if (1 - s) % row[d]:
            return False
        heights.add((1 - s) // row[d])
    return len(heights) == 1


def test_criterion_1_simplicial_worked_example():
    """Full walkthrough of (x^2, y^2, z^4): one bounded facet, its
    lift, the interior degree, the canonical module, and the closed
    form for pure powers all agree on the frozen numbers."""
    facets = newton_polyhedron(CRIT)
    assert facets.bounded == (HalfSpace(normal=(2, 2, 1), offset=4),)
    assert facets.coordinate == (0, 1, 2)

    cone = lift_halfspaces(facets)
    assert cone.matrix == (
        (-2, -2, -3, 4),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
    )
    assert sorted(cone.rays) == [
        (0, 0, 0, 1),
        (0, 0, 4, 3),
        (0, 2, 0, 1),
        (2, 0, 0, 1),
    ]

    assert compute_q(cone) == 2
    assert not cone_member(cone, (1, 1, 1, 1))
    base = (1, 1, 1, 2)
    assert cone.relint_member(base)
    assert [sum(r * v for r, v in zip(row, base)) for row in cone.matrix] == [
        1,
        1,
        1,
        1,
    ]

    gorenstein, data = is_gorenstein_normalization(CRIT, facets)
    assert gorenstein
    assert data.generators == (base,)
    assert data.a_invariant == -1
    assert gorenstein_section(CRIT, False)["filtration_reduction_number"] == 1

    fast = pure_power_gorenstein_test(CRIT)
    assert fast.gorenstein
    assert (fast.lcm, fast.quotient, fast.remainder) == (4, 1, 1)
    print("criterion 1: simplicial worked example pass")


def test_criterion_2_two_facet_matrix_and_pairing():
    """The true parts of the (x^3, x*y, y^3) walkthrough: two bounded
    facets, the lifted matrix, q = 2, and the pairing of (3, 1, 2)
    against the row (-1, -2, 3), which gives 1, strictly below the
    value 3 that the base point (1, 1, 2) achieves on that row."""
    facets = newton_polyhedron(TWO_FACETS)
    assert {(h.normal, h.offset) for h in facets.bounded} == {
        ((1, 2), 3),
        ((2, 1), 3),
    }

    cone = lift_halfspaces(facets)
    assert set(cone.matrix) == {
        (-2, -1, 3),
        (-1, -2, 3),
        (1, 0, 0),
        (0, 1, 0),
    }
    assert compute_q(cone) == 2

    row = (-1, -2, 3)
    point = (3, 1, 2)
    base = (1, 1, 2)
    pairing = sum(r * v for r, v in zip(row, point))
    assert pairing == 1
    assert pairing < sum(r * v for r, v in zip(row, base)) == 3
    print("criterion 2: two-facet matrix and pairing pass")


def test_criterion_2_interior_point_claims():
    """Refutes two claims about (x^3, x*y, y^3): that (3, 1, 2) is
    interior to the lifted cone, and that the normalization is
    Gorenstein.  The cone has two bounded rows; the one the companion
    test does not pair, (-2, -1, 3), gives -6 - 1 + 6 = -1 on
    (3, 1, 2), so the point is outside the cone altogether.  By
    Danilov-Stanley the algebra is Gorenstein only if (1, 1, t) has
    value 1 on that row, i.e. 3t - 3 = 1, which no integer t solves.
    The canonical module has the three minimal generators (1, 1, 2),
    (1, 2, 2), (2, 1, 2); a brute-force scan of [0, 6]^3, which
    contains the sum (4, 4, 6) of the extreme rays and so every
    minimal generator, finds the same three."""
    facets = newton_polyhedron(TWO_FACETS)
    cone = lift_halfspaces(facets)
    gorenstein, data = is_gorenstein_normalization(TWO_FACETS, facets)

    point = (3, 1, 2)
    assert _pair((-2, -1, 3), point) == -1
    assert not cone_member(cone, point)
    assert not cone.relint_member(point)

    assert not _danilov_stanley_gorenstein(cone)
    assert not gorenstein
    expected = _oracle_canonical_generators(cone.matrix, (6, 6, 6))
    assert expected == [(1, 1, 2), (1, 2, 2), (2, 1, 2)]
    assert sorted(data.generators) == expected
    print(
        "criterion 2: interior point claims refuted pass "
        f"((3, 1, 2) pairs to -1; {len(expected)} canonical generators)"
    )


def test_criterion_3_pure_power_parity_sweep():
    """The closed-form test for pure powers (write L = lcm(a_i) and
    sum_i L / a_i = j * L + p with 1 <= p <= L; Gorenstein iff p = 1)
    agrees with the full polyhedral computation on every exponent
    tuple with d in {2, 3} and entries in 1..6.  That is
    6^2 + 6^3 = 252 cases, 49 of them Gorenstein."""
    checked = 0
    gorenstein_count = 0
    for d in (2, 3):
        for exps in itertools.product(range(1, 7), repeat=d):
            ideal = pure_powers(exps)
            fast = pure_power_gorenstein_test(ideal)
            full, _ = is_gorenstein_normalization(ideal)
            assert fast.gorenstein == full, exps
            checked += 1
            gorenstein_count += fast.gorenstein
    assert checked == 252
    assert gorenstein_count == 49
    print(
        "criterion 3: pure power parity sweep pass "
        f"({checked} cases, {gorenstein_count} Gorenstein)"
    )


def test_criterion_4_randomized_oracle_agreement():
    """200 seeded random ideals; every library answer is replayed
    against the brute-force oracle on a declared box.

    Colon and intersection are compared generator list against
    generator list.  For integral closure, membership on the box
    [0, maxexp + 1]^d is settled by its monotone frontier: the
    closure's minimal generators (members, below which everything is
    out) and the maximal non-members (above which everything is in).
    Both the library predicate and the valuative oracle are monotone
    under coordinatewise order, so agreement on the frontier is
    agreement on the whole box.  The oracle scans powers I^k for
    k = 1..k_max; k_max = lcm of the bounded facet offsets suffices
    for a definitive answer, and members are certified with that full
    bound (the scan exits on the first witness, so this stays cheap).
    Refuting a non-member has no early exit, and the lcm reaches the
    thousands on this corpus, so non-members are probed to depth
    min(k_max, 12): any library false negative with a witness power
    up to 12 would still be caught, while completeness of the bound is
    carried entirely by the member direction.  For the m-primary
    ideals the interior points of the lifted cone are also compared
    point for point on a truncated search box."""
    rng = random.Random(40)
    colon_checks = 0
    intersect_checks = 0
    closure_points = 0
    relint_runs = 0
    for idx in range(200):
        d = 2 if idx % 2 else 3
        if idx % 4 < 2:
            ideal = random_m_primary(rng, d, max_coord=6, extras=3)
        else:
            ideal = random_ideal(rng, d, max_gens=6, max_coord=6)
        other = random_ideal(rng, d, max_gens=4, max_coord=6)
        maximal = MonomialIdeal(
            d, tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
        )

        assert oracle_colon(ideal, other) == ideal.colon(other).gens
        assert oracle_colon(ideal, maximal) == ideal.colon(maximal).gens
        colon_checks += 2
        assert oracle_intersect(ideal, other) == (ideal & other).gens
        intersect_checks += 1

        facets = newton_polyhedron(ideal)
        closed = closure_power(ideal, 1, facets)
        k_full = max(1, lcm(*(h.offset for h in facets.bounded)))
        k_probe = min(k_full, 12)
        for g in closed.gens:
            assert oracle_iclosure_member(g, ideal, k_full), (ideal, g)
            closure_points += 1
        box = tuple(b + 1 for b in ideal.max_exponents())
        outside = [
            v
            for v in itertools.product(*(range(b + 1) for b in box))
            if not facets.contains_power(v, 1)
        ]
        outside_set = set(outside)
        for v in outside:
            up = [
                tuple(v[j] + int(j == i) for j in range(d)) for i in range(d)
            ]
            if any(
                all(wi <= bi for wi, bi in zip(w, box))
                and w in outside_set
                for w in up
            ):
                continue
            assert not oracle_iclosure_member(v, ideal, k_probe), (ideal, v)
            closure_points += 1

        if facets.is_m_primary_source():
            cone = lift_halfspaces(facets)
            data = canonical_generators(cone)
            small = tuple(min(b, 8) for b in data.search_box)
            expected = [
                v
                for v in itertools.product(*(range(b + 1) for b in small))
                if cone.relint_member(v)
            ]
            assert oracle_relint_points(cone.matrix, small) == expected
            relint_runs += 1
        oracle_clear_cache()

    assert colon_checks == 400
    assert intersect_checks == 200
    assert closure_points > 1000
    assert relint_runs > 80
    print(
        "criterion 4: randomized oracle agreement pass "
        f"(colon {colon_checks}, intersect {intersect_checks}, "
        f"closure points {closure_points}, interior scans {relint_runs})"
    )


def test_criterion_5_core_closed_form():
    """Cores follow the degree formula: the intersection of the
    adjusted powers equals reduction^(d * u + a).  For the maximal
    ideal in two variables, core depth u gives m^(2u - 1) (a = -1);
    for (x^2, y^2, z^4) at depth 2 the core is the fourth power
    (a = -2); for m^2 with reduction (x^2, y^2) the core is m^3."""
    for u in (1, 2, 3, 4):
        core = core_compute(M, M, u)
        assert core == M ** (2 * u - 1)
        assert core == M ** (M.dim * u - 1)
    assert core_compute(CRIT, CRIT, 2) == CRIT ** 4
    assert core_compute(CRIT, CRIT, 2) == CRIT ** (CRIT.dim * 2 - 2)
    assert core_compute(M2, J22, 1) == M ** 3
    print("criterion 5: core closed form pass")


def test_criterion_6_complete_intersection_family():
    """Every ideal of pure powers is its own reduction with reduction
    number zero, and its extended Rees algebra passes the colon-ideal
    test with a = 1 - d and no higher-degree obstructions.  The
    quasi-Gorenstein property is not automatic for other pairs: m^2
    with reduction (x^2, y^2) fails, because the colon of the
    reduction by the ideal is m rather than m^2."""
    rng = random.Random(81)
    for _ in range(20):
        d = rng.choice((2, 3))
        exps = tuple(rng.randint(1, 6) for _ in range(d))
        ideal = pure_powers(exps)
        verdict = quasi_gorenstein_test(ideal, ideal)
        assert verdict.quasi_gorenstein, exps
        assert verdict.a == 1 - d
        assert verdict.u == 0
        assert verdict.reduction_number == 0

    rejected = quasi_gorenstein_test(M2, J22)
    assert not rejected.quasi_gorenstein
    assert J22.colon(M2) == M
    assert M != M2
    print("criterion 6: complete intersection family pass")


def test_criterion_7_invariant_identities():
    """Cross-identities between the invariants, over every corpus
    ideal that admits a reduction generated by pure powers:

    * a(normalization) >= q - d always, with equality whenever the
      normalization is Gorenstein;
    * a(normalization) = s_bar - d + 1, where s_bar is the last degree
      at which the closure filtration differs from the reduction's;
    * quasi-Gorenstein implies the algebra is Cohen-Macaulay, that
      s - d + 1 <= a <= r - d + 1, and that the a-invariant of the
      normalization exceeds a by exactly the conductor exponent.
    """
    hand = [
        ((1, 0), (0, 1)),
        ((2, 0), (1, 1), (0, 2)),
        ((3, 0), (2, 1), (1, 2), (0, 3)),
        ((2, 0), (0, 2)),
        ((2, 0), (0, 3)),
        ((3, 0), (0, 3)),
        ((2, 0, 0), (0, 2, 0), (0, 0, 4)),
        ((4, 0), (1, 3), (0, 4)),
        ((2, 0, 0), (0, 2, 0), (0, 0, 2)),
        ((2, 0, 0), (0, 3, 0), (0, 0, 3)),
        ((6, 0), (0, 6)),
        ((4, 0), (0, 5)),
    ]
    corpus = [MonomialIdeal(len(g[0]), g) for g in hand]
    rng = random.Random(70)
    for _ in range(12):
        ideal, _ = single_facet_ideal(rng, rng.choice((2, 3)), max_coord=4)
        corpus.append(ideal)
    for _ in range(8):
        corpus.append(
            random_m_primary(rng, rng.choice((2, 3)), max_coord=4, extras=2)
        )

    checked = 0
    qgor_count = 0
    for ideal in corpus:
        facets = newton_polyhedron(ideal)
        try:
            reduction = find_pure_power_reduction(ideal, facets)
        except InapplicableError:
            continue
        checked += 1
        d = ideal.dim
        gorenstein, data = is_gorenstein_normalization(ideal, facets)
        q = compute_q(lift_halfspaces(facets))
        a_bar = data.a_invariant
        r = reduction_number(ideal, reduction)
        s = nilpotency_index(ideal, reduction, r)
        s_bar = closure_nilpotency_index(ideal, reduction, facets)

        assert a_bar >= q - d
        if gorenstein:
            assert a_bar == q - d
        assert a_bar == s_bar - d + 1

        verdict = quasi_gorenstein_test(ideal, reduction)
        if verdict.quasi_gorenstein:
            qgor_count += 1
            assert s - d + 1 <= verdict.a <= r - d + 1
            assert cohen_macaulay_test(ideal, reduction).cohen_macaulay
            assert a_bar == verdict.a + conductor_exponent(
                ideal, facets=facets
            )

    assert checked == 32
    assert qgor_count == 29
    print(
        "criterion 7: invariant identities pass "
        f"({checked} applicable ideals, {qgor_count} quasi-Gorenstein)"
    )


def test_criterion_7_equality_converse():
    """Refutes the converse of the equality in the identity test above:
    a(normalization) = q - d does not force the normalization to be
    Gorenstein.  Each witness below has q = 2 = d and a = 0 = q - d,
    yet its canonical module needs several generators, both by the
    library and by a brute-force scan of [0, 8]^3 (which contains the
    sum of the extreme rays, at most (4, 4, 7) here); the
    Danilov-Stanley criterion and, for the pure powers, the closed
    form (p = 2 for (x^2, y^2), p = 5 for (x^2, y^3)) agree that none
    is Gorenstein.  Only the forward direction (Gorenstein implies
    equality) holds."""
    witnesses = [
        (J22, 3, 2),
        (MonomialIdeal(2, ((2, 0), (0, 3))), 3, 5),
        (RICH, 5, None),
    ]
    for ideal, count, p in witnesses:
        facets = newton_polyhedron(ideal)
        cone = lift_halfspaces(facets)
        gorenstein, data = is_gorenstein_normalization(ideal, facets)
        q = compute_q(cone)
        assert data.a_invariant == q - ideal.dim, ideal.to_str()
        assert not gorenstein, ideal.to_str()
        assert not _danilov_stanley_gorenstein(cone), ideal.to_str()
        expected = _oracle_canonical_generators(cone.matrix, (8, 8, 8))
        assert sorted(data.generators) == expected, ideal.to_str()
        assert len(data.generators) == count > 1, ideal.to_str()
        if p is not None:
            fast = pure_power_gorenstein_test(ideal)
            assert fast.remainder == p, ideal.to_str()
            assert not fast.gorenstein, ideal.to_str()
    print(
        "criterion 7: equality converse refuted pass "
        f"({len(witnesses)} witnesses with a = q - d, "
        f"canonical generators {[c for _, c, _ in witnesses]})"
    )


def test_criterion_8_orthant_embedding():
    """The coordinate change (z, b) -> (z, sum(z) - b) is an
    involution, and it maps every element of the extended Rees
    semigroup into the orthant: for z in I^b with b >= 0 each
    generator of I contributes at least 1 to sum(z), so
    sum(z) - b >= 0, and for b < 0 the last coordinate only grows."""
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randint(2, 6)
        v = tuple(rng.randint(-6, 6) for _ in range(n))
        assert embed_phi(embed_phi(v)) == v
    assert embed_phi((1, 1, 1)) == (1, 1, 1)
    with pytest.raises(DimensionMismatchError):
        embed_phi((3,))

    images = 0
    for ideal in (M, M2, J22, TWO_FACETS, CRIT, RICH):
        for b in range(5):
            power = ideal ** b
            points = list(power.gens)
            for g in power.gens[:4]:
                for _ in range(3):
                    points.append(
                        tuple(gi + rng.randint(0, 3) for gi in g)
                    )
            for z in points:
                image = embed_phi(z + (b,))
                assert image[:-1] == z
                assert image[-1] == sum(z) - b
                assert min(image) >= 0
                images += 1
        for b in (-1, -2):
            for z in list(ideal.gens[:3]) + [(0,) * ideal.dim]:
                assert min(embed_phi(z + (b,))) >= 0
                images += 1
    assert images > 400
    print(f"criterion 8: orthant embedding pass ({images} images checked)")
