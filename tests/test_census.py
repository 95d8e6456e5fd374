"""The paper's question on complete censuses: does a quasi-Gorenstein
extended Rees algebra R[It, t^-1] force gr_I(R) to be Cohen-Macaulay?

For J = (x_1^a_1, ..., x_d^a_d), the monomial ideals I with
J ⊆ I ⊆ closure(J) are exactly those with J as a reduction. Each is J
plus a set S of monomials of closure(J) outside J, and I is an ideal
exactly when S is an up-set of that finite poset under divisibility:
a multiple of a monomial of S is in J or in S. So listing the up-sets
lists every such I once.
"""

import itertools
import time

import pytest

from reesgor import (
    MonomialIdeal,
    closure_power,
    cohen_macaulay_test,
    quasi_gorenstein_test,
)


def census(exponents):
    """Every monomial ideal I with J ⊆ I ⊆ closure(J), for J generated
    by the pure powers x_i^a_i, as (J, list of I)."""
    dim = len(exponents)
    pure = MonomialIdeal(
        dim,
        tuple(
            tuple(a if j == i else 0 for j in range(dim))
            for i, a in enumerate(exponents)
        ),
    )
    closed = closure_power(pure, 1)
    # monomials outside J have every exponent below a_i
    poset = [
        v
        for v in itertools.product(*(range(a) for a in exponents))
        if MonomialIdeal(dim, (v,)).is_subset(closed)
    ]
    # decide the monomials from the top down, so every multiple in the
    # poset is decided before the monomial itself
    poset.sort(key=sum, reverse=True)
    index = {v: n for n, v in enumerate(poset)}
    covers = [
        [
            index[w]
            for w in (v[:i] + (v[i] + 1,) + v[i + 1 :] for i in range(dim))
            if w in index
        ]
        for v in poset
    ]
    ideals = []

    def walk(n, chosen):
        if n == len(poset):
            extra = tuple(poset[m] for m in chosen)
            ideals.append(MonomialIdeal(dim, pure.gens + extra))
            return
        walk(n + 1, chosen)
        if all(m in chosen for m in covers[n]):
            walk(n + 1, chosen | {n})

    walk(0, frozenset())
    return pure, ideals


def verdicts(ideal, reduction):
    qg = quasi_gorenstein_test(ideal, reduction).quasi_gorenstein
    return qg, cohen_macaulay_test(ideal, reduction).cohen_macaulay


@pytest.mark.parametrize(
    "exponents, counts",
    [
        ((2, 2, 2), (9, 2, 6)),
        ((2, 2, 3), (13, 1, 10)),
        ((2, 3, 3), (55, 2, 22)),
        ((2, 3, 4), (123, 2, 54)),
        ((2, 2, 5), (41, 1, 28)),
    ],
)
def test_quasi_gorenstein_forces_cohen_macaulay_on_the_census(
    exponents, counts
):
    start = time.perf_counter()
    pure, ideals = census(exponents)
    assert len(set(ideals)) == len(ideals)
    assert pure in ideals
    qg_count = cm_count = 0
    for ideal in ideals:
        qg, cm = verdicts(ideal, pure)
        assert cm or not qg, f"QG but not CM: {ideal.to_str()}"
        qg_count += qg
        cm_count += cm
    assert (len(ideals), qg_count, cm_count) == counts
    print(
        f"census a = {exponents}: {len(ideals)} ideals, {qg_count} QG, "
        f"{cm_count} CM, no QG without CM "
        f"({time.perf_counter() - start:.2f} s)"
    )


@pytest.mark.parametrize(
    "dim, k",
    [(d, k) for d in (1, 2, 3) for k in (1, 2, 3, 4)] + [(4, 1), (4, 2)],
)
def test_powers_of_the_maximal_ideal(dim, k):
    # m^k is normal, hence Cohen-Macaulay, and Danilov-Stanley on its
    # one facet gives q = d - (d - 1) / k, so it is quasi-Gorenstein
    # exactly when k divides d - 1.
    ideal = MonomialIdeal.pure_powers((1,) * dim) ** k
    reduction = MonomialIdeal.pure_powers((1,) * dim).bracket_power(k)
    assert verdicts(ideal, reduction) == ((dim - 1) % k == 0, True)


def nilpotent_variable(ideal):
    """A variable x_j outside the ideal with a power in it, as
    (j, least such power), or None when every variable is in it. For an
    m-primary ideal the power is at most the largest exponent of a
    generator, since some generator is a pure power of x_j."""
    dim = ideal.dim
    for j in range(dim):
        unit = tuple(int(i == j) for i in range(dim))
        if MonomialIdeal(dim, (unit,)).is_subset(ideal):
            continue
        for k in range(2, max(ideal.max_exponents()) + 1):
            power = tuple(k * c for c in unit)
            if MonomialIdeal(dim, (power,)).is_subset(ideal):
                return j, k
    return None


@pytest.mark.parametrize(
    "exponents", [(2, 2, 2), (2, 2, 3), (2, 3, 3), (2, 3, 4), (2, 2, 5)]
)
def test_no_census_ideal_has_a_domain_as_associated_graded_ring(exponents):
    """The paper's other hypothesis, that gr_I(R) is a domain, holds
    for no ideal of the census: it holds for an m-primary monomial I
    only when I = m.

    Lemma. Let I be an m-primary monomial ideal with I != m. Some
    variable x_j is not in I, for if every variable were in I, then
    m ⊆ I ⊆ m. Since I is m-primary, some power x_j^k lies in I. The
    class of x_j in [gr_I(R)]_0 = R/I is then nonzero, and its k-th
    power, the class of x_j^k, is zero: a nonzero nilpotent, so
    gr_I(R) is not a domain. Conversely gr_m(R) is a polynomial ring,
    a domain. Every census ideal contains J = (x_i^a_i), so x_j^a_j is
    such a power, and the test finds the least one.
    """
    dim = len(exponents)
    maximal = MonomialIdeal.pure_powers((1,) * dim)
    _, ideals = census(exponents)
    for ideal in ideals:
        assert ideal != maximal
        found = nilpotent_variable(ideal)
        assert found is not None, ideal.to_str()
        j, k = found
        assert k <= exponents[j], ideal.to_str()
    for power in (2, 3):
        assert nilpotent_variable(maximal**power) == (0, power)
    assert nilpotent_variable(maximal) is None
