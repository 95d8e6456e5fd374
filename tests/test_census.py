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
        if closed.contains(v)
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
    ideal = MonomialIdeal.maximal(dim) ** k
    reduction = MonomialIdeal.maximal(dim).bracket_power(k)
    assert verdicts(ideal, reduction) == ((dim - 1) % k == 0, True)
