"""Reductions of monomial ideals and the invariants derived from them.

The objects here live on the algebra side: reduction numbers, indexes
of nilpotency (adic and integrally closed), colon-ideal tests for the
quasi-Gorenstein and Cohen-Macaulay properties of the extended Rees
algebra, cores of powers, and the conductor exponent that measures how
far the closure filtration sits inside the adic one.

Two implementation rules hold throughout. First, everything that has
two independent characterizations is computed both ways and compared;
a mismatch raises InvariantViolationError with the witness instead of
picking a side. Second, every scan with a theoretical stopping bound
enforces that bound and raises rather than looping on.
"""

from __future__ import annotations

from contextlib import suppress
from typing import Dict, Optional, Tuple

from .cone import is_gorenstein_normalization
from .errors import (
    BudgetExceededError,
    InapplicableError,
    InvariantViolationError,
    NotAReductionError,
)
from .ideals import MonomialIdeal, _Value, _exact_int, _power_cache
from .polyhedra import (
    FacetSystem,
    _facets_for,
    closure_power,
    newton_polyhedron,
)


# Most generators the colon divisor of core_compute may have; the
# measured row behind it is in the core_compute docstring.
CORE_GENERATOR_BUDGET = 600

# How far the power characterization of a reduction is evaluated.
POWER_HORIZON = 20


def _absorption_index(
    candidate: MonomialIdeal, ideal: MonomialIdeal
) -> Optional[int]:
    """The least n <= POWER_HORIZON with candidate * ideal^n equal to
    ideal^(n+1), or None when there is none."""
    current = MonomialIdeal.unit(ideal.dim)  # ideal^n
    for n in range(POWER_HORIZON + 1):
        nxt = current * ideal
        if candidate * current == nxt:
            return n
        current = nxt
    return None


def is_monomial_reduction(
    candidate: MonomialIdeal, ideal: MonomialIdeal
) -> bool:
    """Is candidate a reduction of ideal (candidate * ideal^n equals
    ideal^(n+1) for some n)?

    Decided on the Newton polyhedra: a subideal is a reduction iff the
    two polyhedra coincide. The power characterization is evaluated as
    well, up to POWER_HORIZON, and the two answers must agree.
    Candidates that are not contained in the ideal are rejected with
    NotAReductionError before any geometry runs.

    The two directions of a disagreement mean different things. Equal
    polyhedra with no absorption by POWER_HORIZON only say that the
    reduction number exceeds the horizon, which a valid input can
    reach; that raises BudgetExceededError naming the horizon. An
    absorption with unequal polyhedra contradicts the theorem (a
    reduction has the same integral closure, hence the same
    polyhedron), and raises InvariantViolationError.
    """
    if not candidate.is_subset(ideal):
        raise NotAReductionError(
            f"{candidate.to_str()} is not contained in {ideal.to_str()}"
        )
    np_equal = newton_polyhedron(candidate) == newton_polyhedron(ideal)
    power_equal = _absorption_index(candidate, ideal) is not None
    if np_equal and not power_equal:
        raise BudgetExceededError(
            f"{candidate.to_str()} has the Newton polyhedron of "
            f"{ideal.to_str()} but absorbs no power up to the horizon "
            f"{POWER_HORIZON}: its reduction number exceeds "
            f"{POWER_HORIZON}"
        )
    if power_equal and not np_equal:
        raise InvariantViolationError(
            f"reduction tests disagree for {candidate.to_str()} in "
            f"{ideal.to_str()}: polyhedra say False, powers up to "
            f"{POWER_HORIZON} say True"
        )
    return np_equal


def find_pure_power_reduction(
    ideal: MonomialIdeal, facets: Optional[FacetSystem] = None
) -> MonomialIdeal:
    """The pure-power reduction read off the Newton polyhedron, which
    needs the polyhedron to have a single bounded facet.

    For a facet <a, x> >= h the candidate is generated by x_j^(c_j)
    with c_j = ceil(h / a_j), the smallest pure powers on the facet or
    beyond it. When there is no such reduction, InapplicableError says
    "no pure-power reduction: " and why, tested in this order:

    1. "the ideal is not primary to the maximal ideal", when
       facets.is_m_primary_source() is False. This comes first because
       only for an m-primary ideal are the positive-offset facets in
       `facets.bounded` bounded: (x^2, xy) has two of them, x >= 1 among
       them, and (x^2 y) has none bounded at all, so counting them
       would name the wrong cause.
    2. "the Newton polyhedron has more than one bounded facet".

    This is the only place that decides whether an ideal has a
    pure-power reduction. Its callers pass the error on, except
    a_invariant_consistency, which records its checks as inapplicable.

    Lemma. Otherwise the candidate is a reduction. The polyhedron is
    {x >= 0 : <a, x> >= h} with a > 0, whose vertices are the axis
    points (h / a_j) e_j. Every vertex of a Newton polyhedron is the
    exponent of a generator, so m_j = h / a_j is an integer, c_j = m_j,
    and x_j^(m_j) lies in the ideal. The candidate's own polyhedron is
    the same set, so it is a reduction. Both tests below therefore
    pass, and InvariantViolationError is raised if either fails,
    rather than an InapplicableError that the report would print as a
    wrong reason.
    """
    facets = _facets_for(ideal, facets)
    if not facets.is_m_primary_source():
        reason = "the ideal is not primary to the maximal ideal"
    elif len(facets.bounded) > 1:
        reason = "the Newton polyhedron has more than one bounded facet"
    else:
        facet = facets.bounded[0]
        exps = tuple(-(-facet.offset // a) for a in facet.normal)
        candidate = MonomialIdeal.pure_powers(exps)
        if candidate.is_subset(ideal) and is_monomial_reduction(
            candidate, ideal
        ):
            return candidate
        raise InvariantViolationError(
            f"the pure powers {candidate.to_str()} of the one bounded facet "
            f"of {ideal.to_str()} are not a reduction of it"
        )
    raise InapplicableError(f"no pure-power reduction: {reason}")


def reduction_number(ideal: MonomialIdeal, reduction: MonomialIdeal) -> int:
    """The least n with reduction * ideal^n == ideal^(n+1). Validates
    that the argument really is a reduction first; a confirmed
    reduction absorbs a power by POWER_HORIZON, or the validation
    would have raised."""
    if not is_monomial_reduction(reduction, ideal):
        raise NotAReductionError(
            f"{reduction.to_str()} is not a reduction of {ideal.to_str()}"
        )
    return _absorption_index(reduction, ideal)


def nilpotency_index(
    ideal: MonomialIdeal, reduction: MonomialIdeal, r: int
) -> int:
    """The least i with ideal^(i+1) contained in the reduction. It
    never exceeds the reduction number r, and the scan enforces that.
    r is passed in because every caller has already computed
    reduction_number(ideal, reduction) for its own use, and the scan
    needs it only as its horizon. The powers are climbed one rung at a
    time, so none above ideal^(i+1) is formed."""
    power = _power_cache(ideal)
    for i in range(r + 1):
        if power(i + 1).is_subset(reduction):
            return i
    raise InvariantViolationError(
        f"nilpotency index exceeds the reduction number {r}"
    )


def closure_nilpotency_index(
    ideal: MonomialIdeal,
    reduction: MonomialIdeal,
    facets: Optional[FacetSystem] = None,
) -> int:
    """The least i with the integral closure of ideal^(i+1) contained
    in the reduction (the nilpotency index of the closure filtration).

    It is at most r + d - 1, with r the reduction number and d the
    dimension: by Lemma B in conductor_exponent (monomial
    Briancon-Skoda), closure(I^(r+d)) lies in I^(r+1), and
    I^(r+1) = J * I^r lies in J. The scan stops there; passing the
    bound raises InvariantViolationError.
    """
    facets = _facets_for(ideal, facets)
    bound = reduction_number(ideal, reduction) + ideal.dim - 1
    for i in range(bound + 1):
        if closure_power(ideal, i + 1, facets).is_subset(reduction):
            return i
    raise InvariantViolationError(
        f"the closure of {ideal.to_str()}^{bound + 1} is not inside "
        f"{reduction.to_str()}, against the Briancon-Skoda bound "
        f"r + d - 1 = {bound}"
    )


def _pure_power_reduction(
    ideal: MonomialIdeal, reduction: Optional[MonomialIdeal], test: str
) -> MonomialIdeal:
    """The pure-power reduction the colon and intersection tests and
    the core run against: the one supplied, or else what
    find_pure_power_reduction gives, whose InapplicableError names why
    there is none. A supplied reduction that is not generated by pure
    powers is refused with InapplicableError naming the test; none of
    the three raises InapplicableError for it anywhere else."""
    if reduction is None:
        return find_pure_power_reduction(ideal)
    if reduction.pure_power_exponents() is None:
        raise InapplicableError(
            f"{test} needs a reduction generated by pure powers"
        )
    return reduction


class QGVerdict(_Value):
    """Outcome of the quasi-Gorenstein colon test.

    When the verdict is positive, `a` is the unique degree making the
    colon pattern reduction^i : ideal^r == ideal^(i - u) hold for every
    i, with u = r - d + 1 - a. `checked_range` is (1, m), with m the
    largest i whose colon was compared; on a positive verdict m is at
    least the proved horizon H_u of quasi_gorenstein_test.
    """

    quasi_gorenstein: bool
    a: Optional[int]
    u: Optional[int]
    reduction: MonomialIdeal
    reduction_number: int
    nilpotency_index: int
    checked_range: Tuple[int, int]


def quasi_gorenstein_test(
    ideal: MonomialIdeal, reduction: Optional[MonomialIdeal] = None
) -> QGVerdict:
    """Decide whether the extended Rees algebra is quasi-Gorenstein.

    Write I for the ideal, J = (x_k^a_k) for its pure-power reduction,
    r and s for the reduction number and the nilpotency index, and d
    for the dimension. The criterion: for some degree a in
    [s - d + 1, r - d + 1], with u = r - d + 1 - a in [0, r - s], the
    equality J^i : I^r == I^(i - u) holds for all i. Degrees i <= 0
    hold by the power conventions. Each candidate u is compared for
    1 <= i <= H_u = max(B, u + r, 1), where B is the largest
    sum_k ceil(g_k / a_k) over the generators g of I^r, and that
    decides every i.

    Horizon. Let K be a monomial ideal with generators G. Then x^w
    lies in J^i : K iff sum_k floor((w_k + g_k) / a_k) >= i for every
    g in G. For i >= B, J^(i+1) : K = J (J^i : K). The right side
    always lies in the left. A w in the left side with every w_k < a_k
    would have floor((w_k + g_k) / a_k) <= ceil(g_k / a_k), so a sum
    at most B < i + 1. So some w_k >= a_k, and w - a_k e_k lowers every
    sum by exactly one, so it lies in J^i : K. Put K = I^r and use
    I^(n+1) = J I^n for n >= r: if the pattern holds at some
    i >= max(B, u + r), then J^(i+1) : I^r = J I^(i-u) = I^(i+1-u). So
    a pattern that holds up to H_u holds for every i.

    Candidate range. The pattern at i = u and at i = u + 1 says that u
    is the largest n with I^r inside J^n. Suppose u >= 1 and I^r lies
    in J^u. A generator g of I^(r-u+1) with every g_k < a_k would put
    w = g + (u-1) a_1 e_1 in I^(r-u+1) J^(u-1), inside I^r, but
    sum_k floor(w_k / a_k) = u - 1 puts x^w outside J^u, a
    contradiction. So I^(r-u+1) lies in J, and s <= r - u.

    One loop over i = 1, 2, ... forms J^i : I^r once per i and compares
    it with every live candidate whose horizon H_u is at least i; a
    candidate whose pattern breaks is dropped, and the loop stops once
    no live candidate has H_u > i. Powers of both ideals are formed on
    first use, so a pattern that breaks at a small i forms only small
    powers. checked_range is (1, the last i). At most one candidate
    can survive; two surviving would mean distinct powers of a proper
    ideal coincide, so that raises
    InvariantViolationError, as does a mismatch of a positive verdict
    with the direct computation of u as the largest n with I^r inside
    J^n (which is at most B).

    The reduction is the one supplied or, when none is, the one
    find_pure_power_reduction reads off the Newton polyhedron. The
    shared gate _pure_power_reduction refuses any other input with
    InapplicableError, so a reduction that is not generated by pure
    powers, or an ideal without one, never reaches the colons.
    """
    d = ideal.dim
    reduction = _pure_power_reduction(ideal, reduction, "the colon test")
    r = reduction_number(ideal, reduction)
    s = nilpotency_index(ideal, reduction, r)
    exps = reduction.pure_power_exponents()

    j_pow = _power_cache(reduction)
    i_pow = _power_cache(ideal)
    i_r = i_pow(r)
    bound = max(
        sum(-(-g // e) for g, e in zip(gen, exps)) for gen in i_r.gens
    )

    # candidate u -> its horizon H_u, for u = r - s, ..., 0: a ascends
    horizons = {u: max(bound, u + r, 1) for u in range(r - s, -1, -1)}
    i = 0
    while any(h > i for h in horizons.values()):
        i += 1
        colon = j_pow(i).colon(i_r)
        horizons = {
            u: h for u, h in horizons.items()
            if h < i or colon == i_pow(i - u)
        }
    passing = [(r - d + 1 - u, u) for u in horizons]

    if len(passing) > 1:
        raise InvariantViolationError(
            f"several degrees satisfy the colon pattern: "
            f"{[a for a, _ in passing]}"
        )
    a, u = passing[0] if passing else (None, None)
    if passing:
        direct_u = 0
        while direct_u <= bound and i_r.is_subset(j_pow(direct_u + 1)):
            direct_u += 1
        if direct_u != u:
            raise InvariantViolationError(
                f"u from the colon pattern is {u} but ideal^r sits inside "
                f"reduction^{direct_u} and no further"
            )
    return QGVerdict(
        quasi_gorenstein=bool(passing),
        a=a,
        u=u,
        reduction=reduction,
        reduction_number=r,
        nilpotency_index=s,
        checked_range=(1, i),
    )


class CMVerdict(_Value):
    """Outcome of the intersection-absorption test for the
    Cohen-Macaulay property of the extended Rees algebra."""

    cohen_macaulay: bool
    reduction: MonomialIdeal
    reduction_number: int
    first_failure: Optional[int]


def cohen_macaulay_test(
    ideal: MonomialIdeal, reduction: Optional[MonomialIdeal] = None
) -> CMVerdict:
    """Cohen-Macaulayness via the containments
    reduction ∩ ideal^i inside reduction * ideal^(i-1) for
    2 <= i <= r (they hold automatically past r, where
    ideal^i = reduction * ideal^(i-1)). Powers of the ideal are formed
    on first use.

    It runs against the same pure-power reduction as
    quasi_gorenstein_test, through the same gate
    _pure_power_reduction, and raises InapplicableError for any other.

    With J the reduction and I the ideal, the reverse containment
    J * I^(i-1) inside J ∩ I^i always holds, since J lies in I, and
    i = 1 always holds, since J ∩ I = J = J * I^0, so the scan starts
    at i = 2. So first_failure == 2 says exactly that the equality
    J ∩ I^2 = J * I fails.
    """
    reduction = _pure_power_reduction(
        ideal, reduction, "the intersection test"
    )
    r = reduction_number(ideal, reduction)
    power = _power_cache(ideal)
    for i in range(2, r + 1):
        if not (reduction & power(i)).is_subset(reduction * power(i - 1)):
            return CMVerdict(False, reduction, r, i)
    return CMVerdict(True, reduction, r, None)


def core_compute(
    ideal: MonomialIdeal, reduction: MonomialIdeal, u: int
) -> MonomialIdeal:
    """The core of ideal^u (intersection of all its reductions).

    With B = ideal^u, K generated by the u-th powers of the pure-power
    reduction's generators, and r_u the reduction number of B with
    respect to K, the core is C_n = K^(n+1) : B^n for any n >= r_u
    (Polini-Ulrich, A formula for the core of an ideal). It is formed
    at n = r_u, and the value is the same at every later n:

    1. Let K have generators x_i^(k_i). Then x^v lies in K^m iff
       sum floor(v_i / k_i) >= m; multiplying by x_j^(k_j) raises that
       sum by exactly one, so K^(m+1) : K = K^m.
    2. For n >= r_u, B^(n+1) = K * B^n, so
       C_(n+1) = K^(n+2) : (K * B^n) = (K^(n+2) : K) : B^n = C_n.
    3. K is a reduction of B whenever the reduction is one of ideal:
       NP(K) = u * NP(reduction) = u * NP(ideal) = NP(B), and
       reduction_number validates the pair before returning r_u.

    The next rung C_(r_u + 1) is formed as well and must equal C_(r_u);
    if it does not, InvariantViolationError names both rungs. The
    powers of ideal, of B and of K come from one _power_cache each, so
    B^(r_u) and K^(r_u + 1) are the steps on the way to B^(r_u + 1) and
    K^(r_u + 2), not products of their own.

    The caller always passes the reduction, so there is none to search
    for; one that is not generated by pure powers is refused with
    InapplicableError by the gate of the colon and intersection tests,
    _pure_power_reduction, in core_compute's own words.

    Each colon intersects one piece per generator of its divisor, so
    the cost grows with the generator count of B^(r_u + 1), the divisor
    of the check rung. Before any colon is formed, a count above
    CORE_GENERATOR_BUDGET raises BudgetExceededError naming u, the
    count and the limit. The limit comes from a measured row (2 cores,
    Python 3.11): on (x^3, y^3, z^3, xyz), u = 1..8 give 19, 64, 136,
    235, 361, 514, 694 and 901 generators, with both colons taking
    0.01, 0.04, 0.15, 0.32, 0.91, 1.97, 3.94 and 6.44 s; the largest
    divisor among the heavy report inputs, 575 generators for
    (x^5, x^2y^2z, xy^2z^2, y^5, z^5) at u = 1, takes 0.55 s. The
    limit admits that input and the anchor up to u = 6, and refuses
    the anchor from u = 7 on. These times would allow a higher limit;
    it is kept at 600 so that which inputs exit 3 does not move with
    the speed of the colon.

    The same limit is applied to every power I^k on the way to B, each
    right after it is formed: B is the top of the ladder of powers of
    ideal, one product per rung, and the first k <= u over the limit
    raises, naming u and k.
    So a large u fails fast instead of first forming all of I^u and
    then spending reduction_number's powers of B. When K differs from
    B, r_u >= 1 and the divisor B^(r_u + 1) is formed through B^2, so
    B^2, taken from the power cache the divisor later uses, meets the
    same limit before reduction_number runs. Both checks are a budget,
    not a bound: generator counts need not grow with the exponent, so
    an I^k or B^2 above the limit does not prove that B or the divisor
    is above it too. On the anchor, I^k has 571 generators at k = 19
    and 631 at k = 20, so the command line exits 3 naming I^20 in
    0.07 s at u = 30, 200 and 2000 alike; forming I^u first took 0.09,
    0.32 and 1.6 s at u = 30, 60 and 100 (2 cores, Python 3.11). At
    u = 19 it exits 3 naming (I^19)^2, with 2224 generators, after
    0.14 s; running reduction_number first and refusing the divisor
    (I^19)^3, with 4960, took 1.3 s.

    The walk also stops before it forms I^k for k =
    CORE_GENERATOR_BUDGET + 1, naming u, so u itself is bounded where
    generator counts stay small: in one variable every I^k has one
    generator, and u = 10^5 once took 10^5 products. In d >= 2 that
    rung limit never refuses an input the generator check would pass.
    Proof: a pure-power reduction makes I m-primary, so NP(I) has the
    two distinct vertices on the first two axes, and its bounded
    faces, which form a connected complex, hold a bounded edge vw, with
    v and w generators of I. Let n > 0 be a normal of that edge, so
    n.p >= k * n.v on k NP(I) = NP(I^k) with equality on k * [v, w].
    The k + 1 points (k - i)v + iw, 0 <= i <= k, lie on k * [v, w] and
    in I^k. A generator g of I^k strictly dividing one of them would
    give n.g < k * n.v, outside NP(I^k). So they are k + 1 distinct
    minimal generators, mu(I^k) >= k + 1, and the generator check has
    already refused by k = CORE_GENERATOR_BUDGET.
    """
    if not _exact_int(u) or u < 1:
        raise InapplicableError("the power u must be a positive int")
    reduction = _pure_power_reduction(ideal, reduction, "core computation")

    def within_budget(power: MonomialIdeal, name: str) -> None:
        if len(power.gens) > CORE_GENERATOR_BUDGET:
            raise BudgetExceededError(
                f"core of the power u = {u}: {name} has {len(power.gens)} "
                f"generators, above the budget of {CORE_GENERATOR_BUDGET}"
            )

    ideal_pow = _power_cache(ideal)
    for k in range(1, u + 1):
        if k > CORE_GENERATOR_BUDGET:
            raise BudgetExceededError(
                f"core of the power u = {u}: I^{k} is past the "
                f"{CORE_GENERATOR_BUDGET} powers the budget allows"
            )
        within_budget(ideal_pow(k), f"I^{k}")
    base = ideal_pow(u)
    scaled = reduction.bracket_power(u)
    base_pow = _power_cache(base)
    square = base_pow(2) if scaled != base else base
    within_budget(square, f"(I^{u})^2, a step to the colon divisor,")
    r_u = reduction_number(base, scaled)
    divisor = base_pow(r_u + 1)
    within_budget(divisor, f"the colon divisor (I^{u})^{r_u + 1}")
    scaled_pow = _power_cache(scaled)
    core = scaled_pow(r_u + 1).colon(base_pow(r_u))
    check = scaled_pow(r_u + 2).colon(divisor)
    if check != core:
        raise InvariantViolationError(
            f"core colon changes past the reduction number {r_u} of "
            f"{base.to_str()}: {core.to_str()} at n = {r_u} vs "
            f"{check.to_str()} at n = {r_u + 1}"
        )
    return core


def conductor_exponent(
    ideal: MonomialIdeal, facets: Optional[FacetSystem] = None
) -> int:
    """The least c such that the closure of ideal^(n+c) lies inside
    ideal^n for every n >= 1.

    Both stopping bounds are proved, for any nonzero monomial ideal I
    in d variables. Let x^z be integral over I^m, i.e. z lies in the
    m-fold dilate of NP(I). Lower the coordinates of z/m one at a time,
    each as far as NP(I) allows. The end point p <= z/m has no
    coordinate that can be lowered, so the least face of NP(I) holding
    p has no recession direction e_j: it is a bounded face, of
    dimension at most d - 1 and spanned by generators. By Caratheodory,
    z >= sum m*l_i g_i over at most d generators g_i, with l_i >= 0 and
    sum l_i = 1.

    Lemma A: for m >= d, some m*l_i >= 1, and then z - g_i >= (m - 1)
    times a convex combination of the g_i, so x^(z - g_i) is integral
    over I^(m-1). The other inclusion always holds, so
    closure(I^m) = I * closure(I^(m-1)) for every m >= d.

    Lemma B (monomial Briancon-Skoda): for m = n + d - 1 the floors
    satisfy sum floor(m*l_i) > m - d = n - 1, so z >= sum
    floor(m*l_i) g_i puts x^z in I^n. Hence closure(I^(n+d-1)) lies
    in I^n, and c <= d - 1.

    Horizon for n: if c works for every n <= N_c = max(1, d - 1 - c),
    it works for every n. Induct on n > N_c: then n + c >= d, so by
    Lemma A closure(I^(n+c)) = I * closure(I^(n-1+c)), which lies in
    I * I^(n-1) = I^n.

    So the scan checks c = 0, ..., d - 1, each for n = 1, ..., N_c;
    it forms closures up to I^d and powers up to I^max(1, d-1). If no c
    passes, Lemma B is contradicted and InvariantViolationError
    reports it. Successive c may revisit the closure of one power; the
    closures are shared through `closure_power`'s job memo, so inside a
    job (`ideals._job`) each is scanned once.
    """
    facets = _facets_for(ideal, facets)
    d = ideal.dim
    power = _power_cache(ideal)
    for c in range(d):
        n_max = max(1, d - 1 - c)
        if all(
            closure_power(ideal, n + c, facets).is_subset(power(n))
            for n in range(1, n_max + 1)
        ):
            return c
    raise InvariantViolationError(
        f"no conductor exponent c <= d - 1 = {d - 1} for {ideal.to_str()}, "
        f"against the Briancon-Skoda bound"
    )


class ConsistencyCheck(_Value):
    name: str
    applicable: bool
    ok: bool
    expected: Optional[int]
    actual: Optional[int]


def a_invariant_consistency(
    ideal: MonomialIdeal,
    reduction: Optional[MonomialIdeal] = None,
) -> Tuple[ConsistencyCheck, ...]:
    """Compare the degree invariant of the normalized algebra with its
    algebra-side characterizations, one check each, in this order:

      closure-index:     a == closure nilpotency index - d + 1
      conductor-shift:   a == quasi-Gorenstein degree + conductor
      nilpotency-degree: when s == r, quasi-Gorenstein degree ==
                         s - d + 1

    Every check needs a reduction generated by pure powers: the
    closure-index formula holds relative to such a reduction only,
    and the quasi-Gorenstein test refuses any other. With no
    reduction given, one is searched for. When find_pure_power_reduction
    finds none, or a supplied reduction is not pure powers (I itself,
    say), all three checks are inapplicable. The last two apply only
    when the quasi-Gorenstein test is also positive. Inapplicable
    checks are recorded as such and count as passing.

    A failed check does not raise: it is recorded with both sides and
    left to the caller (the command line maps it to a distinct exit
    code). The function does raise when the checks cannot be set up:
    NotMPrimaryError for an ideal not primary to the maximal ideal,
    whose cone is not built; NotAReductionError for a supplied
    pure-power reduction that is no reduction of the ideal, (x^4, y^4)
    against (x^2, y^2) say; DimensionMismatchError for one in another
    dimension; and the budget and invariant errors of the routines it
    calls. The report prints the section as inapplicable on the first
    two.
    """
    d = ideal.dim
    facets = newton_polyhedron(ideal)
    a_inv = is_gorenstein_normalization(ideal, facets)[1].a_invariant
    # check name -> (expected, actual), (None, None) when inapplicable
    table: Dict[str, Tuple[Optional[int], Optional[int]]] = dict.fromkeys(
        ("closure-index", "conductor-shift", "nilpotency-degree"),
        (None, None),
    )

    if reduction is None:
        with suppress(InapplicableError):
            reduction = find_pure_power_reduction(ideal, facets)
    if reduction is not None and reduction.pure_power_exponents() is not None:
        s_bar = closure_nilpotency_index(ideal, reduction, facets)
        table["closure-index"] = (s_bar - d + 1, a_inv)
        verdict = quasi_gorenstein_test(ideal, reduction)
        if verdict.quasi_gorenstein:
            c = conductor_exponent(ideal, facets)
            table["conductor-shift"] = (verdict.a + c, a_inv)
            s = verdict.nilpotency_index
            if s == verdict.reduction_number:
                table["nilpotency-degree"] = (s - d + 1, verdict.a)

    return tuple(
        ConsistencyCheck(name, e is not None, e == a, e, a)
        for name, (e, a) in table.items()
    )
