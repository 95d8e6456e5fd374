"""Reductions, colon criteria, cores, conductors, consistency."""

import json

import pytest

from reesgor import (
    MonomialIdeal,
    a_invariant_consistency,
    analysis,
    closure_nilpotency_index,
    closure_power,
    cohen_macaulay_test,
    conductor_exponent,
    core_compute,
    find_pure_power_reduction,
    is_monomial_reduction,
    newton_polyhedron,
    nilpotency_index,
    quasi_gorenstein_test,
    reduction_number,
)
from reesgor.cli import EXIT_UNTRUSTED, main
from reesgor.errors import (
    BudgetExceededError,
    InapplicableError,
    InvariantViolationError,
    NotAReductionError,
    NotMPrimaryError,
)
from reesgor.report import invariants_section

from conftest import random_ideal, random_m_primary, seeded

M = MonomialIdeal.maximal(2)
M2 = M ** 2
J22 = MonomialIdeal(2, ((2, 0), (0, 2)))
CRIT = MonomialIdeal(3, ((2, 0, 0), (0, 2, 0), (0, 0, 4)))
# one bounded facet x + y >= 4, reduction (x^4, y^4), r = 3 > s = 1
RICH = MonomialIdeal(2, ((4, 0), (1, 3), (0, 4)))
J44 = MonomialIdeal(2, ((4, 0), (0, 4)))


# ------------------------------------------------------------------ #
# reductions


def test_reduction_detection():
    assert is_monomial_reduction(J22, M2)
    assert is_monomial_reduction(M2, M2)
    assert is_monomial_reduction(MonomialIdeal(2, ((3, 0), (0, 3))), M ** 3)
    assert not is_monomial_reduction(MonomialIdeal(2, ((4, 0), (0, 2))), M2)
    assert is_monomial_reduction(J44, RICH)


def test_reduction_requires_containment():
    with pytest.raises(NotAReductionError):
        is_monomial_reduction(M, M2)
    with pytest.raises(NotAReductionError):
        reduction_number(M2, M)
    with pytest.raises(NotAReductionError):
        cohen_macaulay_test(M2, M)


# (x^8, y^7, z^5) is a reduction of this ideal (the two Newton
# polyhedra are equal), with reduction number 34, past the horizon.
PAST_HORIZON = MonomialIdeal(
    3, ((8, 0, 0), (3, 3, 1), (2, 3, 4), (0, 7, 0), (0, 0, 5))
)
J875 = MonomialIdeal.pure_powers((8, 7, 5))


def test_a_reduction_number_past_the_horizon_is_a_budget(tmp_path, capsys):
    assert analysis.POWER_HORIZON < 34
    with pytest.raises(BudgetExceededError, match="horizon 20"):
        is_monomial_reduction(J875, PAST_HORIZON)
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"dim": 3, "gens": PAST_HORIZON.gens}))
    for command in ("qgor", "report"):
        assert main(["--json", command, str(path)]) == EXIT_UNTRUSTED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "absorbs no power up to the horizon 20" in captured.err
        assert "disagree" not in captured.err


def test_absorption_with_unequal_polyhedra_is_a_contradiction(monkeypatch):
    # J22 absorbs M2 at once; distinct stand-ins for the two polyhedra
    # make the geometric route say no.
    monkeypatch.setattr(analysis, "newton_polyhedron", lambda ideal: ideal.gens)
    with pytest.raises(
        InvariantViolationError, match="polyhedra say False, powers up to 20"
    ):
        is_monomial_reduction(J22, M2)


def test_find_pure_power_reduction():
    assert find_pure_power_reduction(M2) == J22
    assert find_pure_power_reduction(CRIT) == CRIT
    assert find_pure_power_reduction(RICH) == J44
    assert find_pure_power_reduction(
        MonomialIdeal(2, ((3, 0), (1, 1), (0, 3)))
    ) is None
    assert find_pure_power_reduction(MonomialIdeal(2, ((2, 0), (1, 1)))) is None


def test_reduction_and_nilpotency_numbers():
    assert reduction_number(M2, J22) == 1
    assert reduction_number(M2, M2) == 0
    assert reduction_number(M ** 3, MonomialIdeal(2, ((3, 0), (0, 3)))) == 1
    assert reduction_number(RICH, J44) == 3
    assert nilpotency_index(M2, J22) == 1
    assert nilpotency_index(RICH, J44) == 1
    assert nilpotency_index(CRIT, CRIT) == 0


def test_closure_nilpotency_index():
    assert closure_nilpotency_index(M2, J22) == 1
    assert closure_nilpotency_index(CRIT, CRIT) == 1
    assert closure_nilpotency_index(RICH, J44) == 1
    assert closure_nilpotency_index(M, M) == 0


def test_invariants_section_values():
    section = invariants_section(M2, None)
    assert section["reduction"]["gens"] == [list(g) for g in J22.gens]
    assert section["reduction_number"] == 1
    assert section["nilpotency_index"] == 1
    assert section["closure_nilpotency_index"] == 1
    assert section["reduction_generator_count"] == 2
    with pytest.raises(InapplicableError):
        invariants_section(MonomialIdeal(2, ((3, 0), (1, 1), (0, 3))), None)


# ------------------------------------------------------------------ #
# quasi-Gorenstein


def test_qgor_maximal_ideal():
    v = quasi_gorenstein_test(M)
    assert v.quasi_gorenstein
    assert (v.a, v.u) == (-1, 0)
    assert (v.reduction_number, v.nilpotency_index) == (0, 0)
    assert v.probe_ok


def test_qgor_square_of_maximal_fails():
    v = quasi_gorenstein_test(M2)
    assert not v.quasi_gorenstein
    assert v.a is None and v.u is None
    assert (v.reduction_number, v.nilpotency_index) == (1, 1)


def test_qgor_two_pure_powers():
    v = quasi_gorenstein_test(MonomialIdeal(2, ((2, 0), (0, 3))))
    assert v.quasi_gorenstein
    assert (v.a, v.u) == (-1, 0)


def test_qgor_three_variables():
    v = quasi_gorenstein_test(CRIT)
    assert v.quasi_gorenstein
    assert (v.a, v.u) == (-2, 0)
    assert (v.reduction_number, v.nilpotency_index) == (0, 0)


def test_qgor_rich_example_fails():
    v = quasi_gorenstein_test(RICH)
    assert not v.quasi_gorenstein
    assert (v.reduction_number, v.nilpotency_index) == (3, 1)


def _record_calls(monkeypatch, name):
    """Record (self, other) for every call of MonomialIdeal.<name>."""
    calls = []
    original = getattr(MonomialIdeal, name)

    def recorded(self, other):
        calls.append((self, other))
        return original(self, other)

    monkeypatch.setattr(MonomialIdeal, name, recorded)
    return calls


def test_qgor_forms_each_colon_once_per_call(monkeypatch):
    # RICH has r = 3 > s = 1, so three candidate degrees scan the
    # colons from i = 1; CRIT and M pass, so the probe runs at the edge.
    calls = _record_calls(monkeypatch, "colon")
    for ideal, positive in ((RICH, False), (CRIT, True), (M, True)):
        calls.clear()
        assert quasi_gorenstein_test(ideal).quasi_gorenstein == positive
        assert calls and len(set(calls)) == len(calls), ideal


def test_nilpotency_index_forms_no_power_above_the_answer(monkeypatch):
    # Finding s takes I^1, ..., I^(s+1): s products with I, none past.
    cases = [(M2, J22), (CRIT, CRIT), (RICH, J44), (M, M)]
    cases += _reduction_cases(
        34,
        12,
        lambda rng, k: random_m_primary(rng, rng.choice((2, 3)), max_coord=4),
    )
    calls = _record_calls(monkeypatch, "__mul__")
    for ideal, reduction in cases:
        r = reduction_number(ideal, reduction)
        calls.clear()
        s = nilpotency_index(ideal, reduction, r)
        assert len(calls) == s, (ideal.to_str(), s, len(calls))
        assert all(other == ideal for _, other in calls), ideal.to_str()


def test_qgor_inapplicable_without_pure_power_reduction():
    with pytest.raises(InapplicableError):
        quasi_gorenstein_test(MonomialIdeal(2, ((3, 0), (1, 1), (0, 3))))


# ------------------------------------------------------------------ #
# Cohen-Macaulay and standardness


def test_cm_verdicts():
    v = cohen_macaulay_test(M2)
    assert v.cohen_macaulay and v.first_failure is None
    v = cohen_macaulay_test(CRIT)
    assert v.cohen_macaulay
    v = cohen_macaulay_test(RICH)
    assert not v.cohen_macaulay
    assert v.first_failure == 2
    # A reduction not generated by pure powers is refused, as in the
    # quasi-Gorenstein test: I is its own reduction with r = 0, which
    # would pass every ideal.
    with pytest.raises(InapplicableError):
        cohen_macaulay_test(M2, M2)


def test_cm_scan_starts_at_two(monkeypatch):
    # i = 1 always holds (J ∩ I = J), so no intersection is formed
    # when r <= 1, and RICH, failing at i = 2, forms exactly one.
    calls = _record_calls(monkeypatch, "__and__")
    for ideal, reduction in ((M2, J22), (CRIT, CRIT), (M, M)):
        assert reduction_number(ideal, reduction) <= 1
        assert cohen_macaulay_test(ideal, reduction).cohen_macaulay
        assert calls == []
    assert cohen_macaulay_test(RICH, J44).first_failure == 2
    assert calls == [(J44, RICH ** 2)]


def test_two_standard():
    # The scan fails at i = 2 exactly when J ∩ I^2 = J * I fails.
    for ideal, reduction, failure in ((M2, J22, None), (RICH, J44, 2)):
        assert cohen_macaulay_test(ideal, reduction).first_failure == failure
        two_standard = (reduction & ideal ** 2) == reduction * ideal
        assert two_standard == (failure is None)


# ------------------------------------------------------------------ #
# cores


def test_core_of_maximal_ideal_powers():
    for u in (1, 2, 4):
        core = core_compute(M, M, u)
        assert core == M ** (2 * u - 1)
        assert core == M ** (M.dim * u - 1)


def test_core_of_square():
    assert core_compute(M2, J22, 1) == M ** 3
    assert core_compute(CRIT, CRIT, 1) == CRIT ** 1  # a = -2, d = 3
    assert core_compute(CRIT, CRIT, 1) == CRIT ** (CRIT.dim * 1 - 2)


def test_core_rich_example():
    assert core_compute(RICH, J44, 1) == M ** 7


def test_core_guards():
    with pytest.raises(InapplicableError):
        core_compute(M, M, 0)
    with pytest.raises(InapplicableError):
        core_compute(M2, M2, 1)


def _reference_core(ideal, reduction, u):
    """The colon ladder core_compute walked before its stopping rung was
    proved: C_n = (reduction^[u])^(n+1) : (ideal^u)^n from the
    reduction number r of the base ideal, until a value repeats, giving
    up at n = r + d + 4."""
    r = reduction_number(ideal, reduction)
    scaled = reduction.bracket_power(u)
    base = ideal ** u
    guard = r + ideal.dim + 4
    previous = None
    for n in range(r, guard + 1):
        current = (scaled ** (n + 1)).colon(base ** n)
        if current == previous:
            return current
        previous = current
    raise AssertionError(f"core ladder did not repeat by n = {guard}")


def _reduction_cases(seed, count, draw):
    """`count` pairs (ideal, pure-power reduction), the k-th ideal
    drawn as draw(rng, k) and skipped when it has no pure-power
    reduction. Gives up after 10 * count draws, naming the seed and
    how many cases it drew, so a defect that stops producing cases
    fails the test instead of hanging it (nearly every draw has a
    reduction)."""
    rng = seeded(seed)
    cases = []
    for _ in range(10 * count):
        ideal = draw(rng, len(cases))
        reduction = find_pure_power_reduction(ideal)
        if reduction is not None:
            cases.append((ideal, reduction))
            if len(cases) == count:
                return cases
    pytest.fail(
        f"seed {seed}: {len(cases)} of {count} cases after {10 * count} draws"
    )


def test_core_matches_the_reference_ladder():
    def draw(rng, k):
        d = 2 if k < 36 else 3
        return random_m_primary(rng, d, max_coord=6 - d)

    cases = _reduction_cases(66, 60, draw)
    shifted = 0
    for ideal, reduction in cases:
        r = reduction_number(ideal, reduction)
        for u in range(1, 5 - ideal.dim):
            core = core_compute(ideal, reduction, u)
            assert core == _reference_core(ideal, reduction, u), (
                ideal.to_str(), u
            )
            r_u = reduction_number(ideal ** u, reduction.bracket_power(u))
            shifted += r_u != r
    assert shifted > 0


def test_pure_power_colon_shift_lemma():
    # K^(m+1) : K == K^m, the first step of core_compute's proof
    rng = seeded(67)
    for _ in range(30):
        d = rng.randint(1, 4)
        k = MonomialIdeal.pure_powers(
            tuple(rng.randint(1, 4) for _ in range(d))
        )
        for m in range(4):
            assert (k ** (m + 1)).colon(k) == k ** m, (k.to_str(), m)


def test_core_rungs_that_differ_raise(monkeypatch, tmp_path, capsys):
    # One below the true reduction number, the anchor's two rungs differ.
    anchor = MonomialIdeal(3, ((3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)))
    true_number = analysis.reduction_number
    monkeypatch.setattr(
        analysis,
        "reduction_number",
        lambda ideal, reduction: true_number(ideal, reduction) - 1,
    )
    reduction = find_pure_power_reduction(anchor)
    with pytest.raises(InvariantViolationError, match="at n = 1 vs"):
        core_compute(anchor, reduction, 1)
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"dim": 3, "gens": [list(g) for g in anchor.gens]}))
    assert main(["--json", "core", str(path)]) == EXIT_UNTRUSTED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "core colon changes past the reduction number 1" in captured.err


def test_core_budget_refuses_before_any_colon(monkeypatch):
    # On the anchor, u = 2 gives r_u = 2 and a divisor (I^2)^3 with 64
    # generators.
    anchor = MonomialIdeal(3, ((3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)))
    reduction = find_pure_power_reduction(anchor)
    expected = core_compute(anchor, reduction, 2)
    monkeypatch.setattr(analysis, "CORE_GENERATOR_BUDGET", 64)
    assert core_compute(anchor, reduction, 2) == expected
    monkeypatch.setattr(analysis, "CORE_GENERATOR_BUDGET", 63)

    def no_colon(self, other):
        raise AssertionError("colon formed before the budget check")

    monkeypatch.setattr(MonomialIdeal, "colon", no_colon)
    with pytest.raises(
        BudgetExceededError,
        match=r"u = 2: .* has 64 generators, above the budget of 63",
    ):
        core_compute(anchor, reduction, 2)


def test_core_budget_refuses_a_large_power_before_its_reduction_number(
    monkeypatch,
):
    # On the anchor, I^20 is the first power above the budget, with 631
    # generators. Refusing u = 30 must not wait for reduction_number,
    # which forms powers of I^30, or any colon.
    anchor = MonomialIdeal(3, ((3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)))
    reduction = find_pure_power_reduction(anchor)

    def no_work(*args):
        raise AssertionError("work done before the budget check")

    monkeypatch.setattr(analysis, "reduction_number", no_work)
    monkeypatch.setattr(MonomialIdeal, "colon", no_work)
    with pytest.raises(
        BudgetExceededError,
        match=r"u = 30: I\^20 has 631 generators, above the budget of 600",
    ):
        core_compute(anchor, reduction, 30)


def test_core_budget_refuses_a_large_square_before_its_reduction_number(
    monkeypatch,
):
    # At u = 19, I^19 has 571 generators and fits the budget, but K is
    # not B, so r_u >= 1 and the divisor is formed through (I^19)^2,
    # which has 2224. That refuses before reduction_number, which would
    # form powers of I^19, or any colon.
    anchor = MonomialIdeal(3, ((3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)))
    reduction = find_pure_power_reduction(anchor)

    def no_work(*args):
        raise AssertionError("work done before the budget check")

    monkeypatch.setattr(analysis, "reduction_number", no_work)
    monkeypatch.setattr(MonomialIdeal, "colon", no_work)
    with pytest.raises(
        BudgetExceededError,
        match=r"u = 19: \(I\^19\)\^2, .* has 2224 generators, above the "
        r"budget of 600",
    ):
        core_compute(anchor, reduction, 19)


def test_core_budget_refuses_a_large_u_at_the_first_power_over_it(
    monkeypatch,
):
    # I^u is formed one product with I at a time, each power checked as
    # it is formed, so u = 200 stops at I^20 after 19 products instead
    # of forming all of I^200 first.
    anchor = MonomialIdeal(3, ((3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)))
    reduction = find_pure_power_reduction(anchor)
    products = []
    multiply = MonomialIdeal.__mul__

    def counting(self, other):
        products.append(other)
        return multiply(self, other)

    monkeypatch.setattr(MonomialIdeal, "__mul__", counting)
    with pytest.raises(
        BudgetExceededError,
        match=r"u = 200: I\^20 has 631 generators, above the budget of 600",
    ):
        core_compute(anchor, reduction, 200)
    assert len(products) <= 19


def test_core_refuses_a_large_u_in_one_variable(monkeypatch):
    # In one variable every I^k has one generator, so the generator
    # check never refuses. The walk stops before it forms I^601.
    ideal = MonomialIdeal(1, ((2,),))
    products = []
    multiply = MonomialIdeal.__mul__

    def counting(self, other):
        products.append(other)
        return multiply(self, other)

    monkeypatch.setattr(MonomialIdeal, "__mul__", counting)
    with pytest.raises(
        BudgetExceededError,
        match=r"^core of the power u = 100000: I\^601 is past the 600 "
        r"powers the budget allows$",
    ):
        core_compute(ideal, ideal, 10**5)
    assert len(products) <= 600
    assert core_compute(ideal, ideal, 600) == MonomialIdeal(1, ((1200,),))


def test_powers_with_a_pure_power_reduction_grow_in_generators():
    # The core_compute docstring's proof that the rung limit never
    # refuses before the generator check in d >= 2: if I has a
    # pure-power reduction, I^k has at least k + 1 generators.
    rng = seeded(2400)
    checked = 0
    for _ in range(60):
        ideal = random_m_primary(rng, rng.choice((2, 3)), max_coord=4)
        if find_pure_power_reduction(ideal) is None:
            continue
        for k in range(1, 7):
            assert len((ideal ** k).gens) >= k + 1, (ideal.to_str(), k)
        checked += 1
    assert checked > 30


@pytest.mark.parametrize(
    "budget, message",
    [
        (2, "core of the power u = 1: I^1 has 3 generators, above the "
            "budget of 2"),
        (4, "core of the power u = 1: (I^1)^2, a step to the colon divisor, "
            "has 6 generators, above the budget of 4"),
        (6, "core of the power u = 1: the colon divisor (I^1)^4 has 14 "
            "generators, above the budget of 6"),
    ],
)
def test_core_budget_refusals_name_their_rung(monkeypatch, budget, message):
    # RICH has 3 generators, RICH^2 has 6 and r = 3, so the divisor
    # RICH^4 has 14: each budget stops at a different rung.
    monkeypatch.setattr(analysis, "CORE_GENERATOR_BUDGET", budget)
    with pytest.raises(BudgetExceededError) as refused:
        core_compute(RICH, J44, 1)
    assert str(refused.value) == message


def test_core_budget_admits_the_measured_inputs():
    # The row behind CORE_GENERATOR_BUDGET: the r = 8 report input at
    # u = 1 and the anchor at u = 6 fit, the anchor at u = 7 does not.
    anchor = MonomialIdeal(3, ((3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)))
    heavy = MonomialIdeal(
        3, ((5, 0, 0), (2, 2, 1), (1, 2, 2), (0, 5, 0), (0, 0, 5))
    )
    counts = []
    for ideal, u in ((heavy, 1), (anchor, 6), (anchor, 7)):
        base = ideal ** u
        scaled = find_pure_power_reduction(ideal).bracket_power(u)
        r_u = reduction_number(base, scaled)
        counts.append(len((base ** (r_u + 1)).gens))
    assert counts == [575, 514, 694]
    assert 575 <= analysis.CORE_GENERATOR_BUDGET < 694


# ------------------------------------------------------------------ #
# conductor and consistency


def test_conductor_values():
    assert conductor_exponent(M) == 0
    assert conductor_exponent(J22) == 1
    assert conductor_exponent(MonomialIdeal(2, ((2, 0), (0, 3)))) == 1
    assert conductor_exponent(RICH) == 1
    assert conductor_exponent(CRIT) == 1


def _horizon_eight_conductor(ideal):
    """The scan the proved horizon replaced: least c <= 8 with the
    closure of ideal^(n+c) inside ideal^n for every n <= 8."""
    facets = newton_polyhedron(ideal)
    for c in range(9):
        if all(
            closure_power(ideal, n + c, facets).is_subset(ideal ** n)
            for n in range(1, 9)
        ):
            return c
    raise AssertionError(f"no c <= 8 for {ideal.to_str()}")


def test_conductor_matches_horizon_eight_scan():
    rng = seeded(31)
    seen = set()
    for k in range(40):
        ideal = random_m_primary(rng, 2 + k % 2, max_coord=4)
        c = conductor_exponent(ideal)
        assert c == _horizon_eight_conductor(ideal), ideal.to_str()
        seen.add((ideal.dim, c))
    # the bound c <= d - 1 is reached in both dimensions
    assert {(2, 1), (3, 2)} <= seen
    # integrally closed but not normal: c = 0 passes n = 1 and fails n = 2
    closed = closure_power(MonomialIdeal.pure_powers((5, 7, 2)), 1)
    assert closure_power(closed, 1) == closed
    assert conductor_exponent(closed) == _horizon_eight_conductor(closed) == 1
    four = MonomialIdeal(
        4, ((2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))
    )
    assert conductor_exponent(four) == 2


def test_conductor_lemmas_on_random_ideals():
    rng = seeded(32)
    for d in (2, 3, 4):
        for k in range(8):
            make = random_ideal if k % 2 else random_m_primary
            ideal = make(rng, d, max_coord=3 if d == 4 else 4)
            facets = newton_polyhedron(ideal)
            # Lemma A: closure(I^m) = I * closure(I^(m-1)) for m >= d
            for m in (d, d + 1):
                above = closure_power(ideal, m, facets)
                below = closure_power(ideal, m - 1, facets)
                assert above == ideal * below, (ideal.to_str(), m)
            # Lemma B: closure(I^(n+d-1)) lies in I^n
            for n in (1, 2):
                assert closure_power(ideal, n + d - 1, facets).is_subset(
                    ideal ** n
                ), (ideal.to_str(), n)


def test_conductor_closes_no_power_above_the_dimension(monkeypatch):
    formed = []

    def recording(ideal, n, facets=None):
        formed.append(n)
        return closure_power(ideal, n, facets)

    monkeypatch.setattr(analysis, "closure_power", recording)
    rng = seeded(33)
    ideals = [random_m_primary(rng, d, max_coord=4) for d in (2, 3, 3, 4)]
    for ideal in ideals + [RICH, CRIT]:
        formed.clear()
        conductor_exponent(ideal)
        assert formed and max(formed) <= ideal.dim, (ideal.to_str(), formed)


def test_conductor_forms_each_closure_once_per_call(monkeypatch):
    # Successive degrees c revisit closures of the same powers; each is
    # formed once per call and shared.
    formed = []

    def recording(ideal, n, facets=None):
        formed.append(n)
        return closure_power(ideal, n, facets)

    monkeypatch.setattr(analysis, "closure_power", recording)
    rng = seeded(35)
    ideals = [random_m_primary(rng, d, max_coord=4) for d in (3, 3, 4, 4)]
    for ideal in ideals + [RICH, CRIT]:
        formed.clear()
        conductor_exponent(ideal)
        assert formed and len(set(formed)) == len(formed), (ideal.to_str(), formed)
    # Integrally closed but not normal: c = 0 closes I^1 and I^2 and
    # fails at n = 2, and c = 1 then reuses the closure of I^2.
    closed = closure_power(MonomialIdeal.pure_powers((5, 7, 2)), 1)
    formed.clear()
    assert conductor_exponent(closed) == 1
    assert formed == [1, 2]


def test_conductor_without_a_passing_c_raises(monkeypatch, tmp_path, capsys):
    # Closures up to I^d replaced by the unit ideal defeat every c <= d - 1,
    # while the closure index, which goes past I^d, still stabilizes.
    def defeating(ideal, n, facets=None):
        if n <= ideal.dim:
            return MonomialIdeal.unit(ideal.dim)
        return closure_power(ideal, n, facets)

    monkeypatch.setattr(analysis, "closure_power", defeating)
    with pytest.raises(InvariantViolationError, match="Briancon-Skoda"):
        conductor_exponent(J22)
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"dim": 2, "gens": [[2, 0], [0, 2]]}))
    assert main(["--json", "report", str(path)]) == EXIT_UNTRUSTED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Briancon-Skoda" in captured.err


def test_closure_index_stays_within_the_briancon_skoda_bound(monkeypatch):
    formed = []

    def recording(ideal, n, facets=None):
        formed.append(n)
        return closure_power(ideal, n, facets)

    monkeypatch.setattr(analysis, "closure_power", recording)
    cases = [(M2, J22), (CRIT, CRIT), (RICH, J44), (M, M)]
    cases += _reduction_cases(
        36,
        36,
        lambda rng, k: random_m_primary(rng, rng.choice((2, 3)), max_coord=4),
    )
    at_bound = 0
    for ideal, reduction in cases:
        formed.clear()
        s_bar = closure_nilpotency_index(ideal, reduction)
        r, d = reduction_number(ideal, reduction), ideal.dim
        assert formed and max(formed) <= r + d, (ideal.to_str(), formed)
        at_bound += s_bar == r + d - 1
    assert at_bound > 0


def test_closure_index_past_the_bound_raises(monkeypatch, tmp_path, capsys):
    # closures that never fit inside the reduction
    def outside(ideal, n, facets=None):
        return MonomialIdeal.unit(ideal.dim)

    monkeypatch.setattr(analysis, "closure_power", outside)
    with pytest.raises(InvariantViolationError, match="r \\+ d - 1 = 2"):
        closure_nilpotency_index(M2, J22)
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"dim": 2, "gens": [[2, 0], [0, 2]]}))
    assert main(["--json", "report", str(path)]) == EXIT_UNTRUSTED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Briancon-Skoda" in captured.err


def test_consistency_all_checks_applicable():
    rep = a_invariant_consistency(CRIT)
    assert rep.all_ok
    by_name = {c.name: c for c in rep.checks}
    assert by_name["closure-index"].applicable
    assert by_name["closure-index"].expected == -1
    assert by_name["conductor-shift"].applicable
    assert by_name["conductor-shift"].expected == -1
    assert by_name["nilpotency-degree"].applicable
    assert by_name["nilpotency-degree"].expected == -2


def test_consistency_partial_applicability():
    rep = a_invariant_consistency(M2)
    assert rep.all_ok
    by_name = {c.name: c for c in rep.checks}
    assert by_name["closure-index"].applicable
    assert by_name["closure-index"].expected == 0
    assert not by_name["conductor-shift"].applicable
    assert not by_name["nilpotency-degree"].applicable

    rep = a_invariant_consistency(RICH)
    assert rep.all_ok
    by_name = {c.name: c for c in rep.checks}
    assert by_name["closure-index"].applicable and by_name["closure-index"].ok


def test_consistency_needs_a_pure_power_reduction():
    # M2 is a reduction of itself, but not one of pure powers: relative
    # to it the closure index is 0, and the closure-index formula would
    # expect a = -1 against the cone-side a = 0.
    rep = a_invariant_consistency(M2, M2)
    assert rep.all_ok
    assert [c.applicable for c in rep.checks] == [False, False, False]

    by_name = {c.name: c for c in a_invariant_consistency(M2, J22).checks}
    check = by_name["closure-index"]
    assert check.applicable and check.ok
    assert (check.expected, check.actual) == (0, 0)


def test_consistency_records_both_sides_of_a_failed_check(
    monkeypatch, tmp_path, capsys
):
    # Shifting the closure index and the conductor by one breaks the two
    # checks that compare them with the cone-side a = -1 of CRIT.
    for name in ("closure_nilpotency_index", "conductor_exponent"):
        true_value = getattr(analysis, name)
        monkeypatch.setattr(
            analysis,
            name,
            lambda *args, f=true_value: f(*args) + 1,
        )
    by_name = {c.name: c for c in a_invariant_consistency(CRIT).checks}
    for name in ("closure-index", "conductor-shift"):
        check = by_name[name]
        assert check.applicable and not check.ok
        assert (check.expected, check.actual) == (0, -1)
    assert by_name["nilpotency-degree"].ok
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"dim": 3, "gens": [list(g) for g in CRIT.gens]}))
    assert main(["--json", "report", str(path)]) == EXIT_UNTRUSTED
    assert '"all_ok": false' in capsys.readouterr().out


def test_consistency_requires_m_primary():
    with pytest.raises(NotMPrimaryError):
        a_invariant_consistency(MonomialIdeal(2, ((1, 0),)))
