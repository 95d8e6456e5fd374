"""Shared corpus generators and reference helpers for the test suite.

Everything here is deterministic: each helper takes an explicit
random.Random so a failing case can be replayed from the seed.
"""

import functools
import math
import operator
import random

import pytest

from reesgor import MonomialIdeal
from reesgor.errors import DimensionMismatchError
from reesgor.oracle import Box
from reesgor.polyhedra import _column_scan, _dot


def random_ideal(rng, dim, max_gens=5, max_coord=5):
    """A nonzero monomial ideal with a few random generators."""
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        v = tuple(rng.randint(0, max_coord) for _ in range(dim))
        if any(v):
            gens.append(v)
    if not gens:
        gens.append(tuple(rng.randint(1, max_coord) for _ in range(dim)))
    return MonomialIdeal(dim, tuple(gens))


def random_m_primary(rng, dim, max_coord=5, extras=3):
    """Pure powers on every axis plus a few extra generators."""
    gens = []
    for i in range(dim):
        e = [0] * dim
        e[i] = rng.randint(1, max_coord)
        gens.append(tuple(e))
    for _ in range(rng.randint(0, extras)):
        v = tuple(rng.randint(0, max_coord) for _ in range(dim))
        if any(v):
            gens.append(v)
    return MonomialIdeal(dim, tuple(gens))


def single_facet_ideal(rng, dim, max_coord=5, extras=2):
    """An m-primary ideal whose Newton polyhedron has one bounded facet.

    Built as pure powers x_j^(a_j) plus extra generators sampled on or
    above the hyperplane through the a_j e_j, so the polyhedron is the
    simplex cone of the pure powers and the pure powers remain a
    reduction. Returns (ideal, pure_power_reduction).
    """
    exps = tuple(rng.randint(1, max_coord) for _ in range(dim))
    reduction = MonomialIdeal.pure_powers(exps)
    lcm = math.lcm(*exps)
    normal = tuple(lcm // a for a in exps)
    gens = list(reduction.gens)
    for _ in range(extras):
        v = tuple(rng.randint(0, max_coord) for _ in range(dim))
        if any(v) and sum(n * c for n, c in zip(normal, v)) >= lcm:
            gens.append(v)
    return MonomialIdeal(dim, tuple(gens)), reduction


def seeded(seed):
    return random.Random(seed)


def oracle_relint_points(rows, bounds):
    """All lattice points v in the box with <row, v> >= 1 for every
    row, i.e. the relative interior points of the cone cut out by the
    rows (assuming the rows are exactly its facets), by testing every
    point of the box."""
    found = []
    for v in Box(tuple(bounds)).points():
        if all(sum(r * c for r, c in zip(row, v)) >= 1 for row in rows):
            found.append(v)
    return sorted(found)


def column_points(rows, bounds):
    """The batches of `polyhedra._column_scan` flattened into
    (point, row values) pairs, in the order the scan yields them.

    Each packed slack is read back field by field at the width the
    scan returns, after checking that every field has its guard bit
    2^(W - 1) set and that the fields pack back to the yielded int, so
    no field overflowed into the next one. Each field less its guard
    bit, plus its row's rhs, is the row's value; with empty bounds the
    one column is the point (t,)."""
    width, _, batches = _column_scan(rows, bounds)
    mask = (1 << width) - 1
    top = 1 << (width - 1)
    shifts = range(0, width * len(rows), width)
    rhss = [rhs - top for _, rhs in rows]
    for prefix, xs, ts, slacks in batches:
        for x, t, slack in zip(xs, ts, slacks):
            fields = [slack >> shift & mask for shift in shifts]
            assert all(f >= top for f in fields), (rows, bounds)
            assert sum(map(operator.lshift, fields, shifts)) == slack
            point = prefix + (x, t) if bounds else (t,)
            yield point, tuple(map(operator.add, fields, rhss))


def column_minima(rows, bounds):
    """The points of `polyhedra._column_scan`, without their row values."""
    return (v for v, _ in column_points(rows, bounds))


def cone_member(cone, v):
    """Is v in the cone, i.e. is every row of its facet matrix >= 0 at v?"""
    w = tuple(v)
    return all(_dot(row, w) >= 0 for row in cone.matrix)


@functools.lru_cache(maxsize=None)
def _power_member(v, gens, n):
    if n <= 0:
        return True
    for g in gens:
        w = tuple(a - b for a, b in zip(v, g))
        if all(c >= 0 for c in w) and _power_member(w, gens, n - 1):
            return True
    return False


def oracle_power_member(v, ideal, n):
    """Is x^v in ideal^n? Decided by the recursion: v is in I^n iff
    some generator g divides x^v with the cofactor in I^(n-1). Shares
    no code with the ideal arithmetic it checks."""
    return _power_member(tuple(v), ideal.gens, n)


def oracle_iclosure_member(v, ideal, k_max, power=1):
    """Is x^v integral over ideal^power?

    Uses the valuative test: v lies in the integral closure iff
    k*v is in (I^power)^k = I^(power*k) for some k >= 1. The caller
    must supply a k_max known to suffice for a definitive "no" (a
    common multiple of the facet denominators of the Newton polyhedron
    works); within the scan the first hit answers "yes" early.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    w = tuple(v)
    for k in range(1, k_max + 1):
        scaled = tuple(k * c for c in w)
        if _power_member(scaled, ideal.gens, power * k):
            return True
    return False


def oracle_clear_cache():
    """Drop the power-membership memo (tests with many ideals)."""
    _power_member.cache_clear()


@pytest.fixture(autouse=True)
def _fresh_oracle_cache():
    yield
    oracle_clear_cache()


def embed_phi(vector):
    """The coordinate change (z, b) -> (z, sum(z) - b) that carries
    the monomial x^z t^b of the extended Rees algebra to an orthant
    point; `cone.lift_halfspaces` builds it into its rows. Applying it
    twice gives the input back."""
    v = tuple(vector)
    if len(v) < 2:
        raise DimensionMismatchError(
            "need at least one exponent coordinate plus the grading one"
        )
    z, b = v[:-1], v[-1]
    return z + (sum(z) - b,)
