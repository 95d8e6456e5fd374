"""Slow reference implementations used to cross-check the main code.

Everything in this module is deliberately naive: colons and
intersections by filling the membership of a box of lattice points.
None of it calls the algorithmic routines in the rest of the package,
so an agreement between the two is evidence, not a tautology. Inputs
are read only for their generator data, and for the componentwise
maximum `MonomialIdeal.max_exponents` takes of it, which is container
inspection and no algorithm. `--corpus` checks every colon
and intersection it forms against these fills.

Enumerations refuse a box of more than DEFAULT_BUDGET points and raise
BudgetExceededError, before allocating anything, instead of silently
truncating.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, Tuple

from .errors import BudgetExceededError
from .ideals import MonomialIdeal

Vector = Tuple[int, ...]

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class Box:
    """The integer box prod_j [0, bounds_j]; points() refuses one of
    more than DEFAULT_BUDGET points."""

    bounds: Tuple[int, ...]

    @property
    def size(self) -> int:
        n = 1
        for b in self.bounds:
            n *= b + 1
        return n

    def points(self) -> Iterator[Vector]:
        if self.size > DEFAULT_BUDGET:
            raise BudgetExceededError(
                f"box {self.bounds} holds {self.size} points, "
                f"budget is {DEFAULT_BUDGET}"
            )
        return itertools.product(*(range(b + 1) for b in self.bounds))

    def strides(self) -> Tuple[int, ...]:
        """Flat-index steps per coordinate in points() order: the last
        coordinate varies fastest."""
        steps = []
        step = 1
        for b in reversed(self.bounds):
            steps.append(step)
            step *= b + 1
        return tuple(reversed(steps))


def _fill_upset(
    box: Box, decide: Callable[[int, Vector], bool]
) -> Tuple[bytearray, Tuple[Vector, ...]]:
    """Membership of an up-set U of the lattice in the box, one byte
    per point in points() order, and the minimal elements of U in the
    box, in lexicographic order.

    decide(index, v) says whether v is in U; it is asked only about
    points with no v - e_j in U. That suffices: if some v - e_j is in
    U then so is v, since U is an up-set. Otherwise v is in U only as
    a minimal element, because any u <= v in U with u != v lies below
    some v - e_j with v_j > 0, which would then be in U. Every v - e_j
    precedes v in lexicographic order, so it is filled before v is
    reached, and the points where decide says yes are exactly the
    minimal elements.
    """
    points = box.points()
    members = bytearray(box.size)
    steps = tuple(enumerate(box.strides()))
    minimal = []
    for index, v in enumerate(points):
        for j, stride in steps:
            if v[j] and members[index - stride]:
                members[index] = 1
                break
        else:
            if decide(index, v):
                members[index] = 1
                minimal.append(v)
    return members, tuple(minimal)


def _fill_ideal(gens: Sequence[Vector], box: Box) -> bytearray:
    """Membership of the ideal generated by gens in the box. A minimal
    element of the ideal is one of any set of its generators."""
    gen_set = frozenset(gens)
    members, _ = _fill_upset(box, lambda index, v: v in gen_set)
    return members


def oracle_colon(
    ideal: MonomialIdeal, divisor: MonomialIdeal
) -> Tuple[Vector, ...]:
    """Minimal generators of (ideal : divisor), the vectors v with
    v + g in the ideal for every generator g of the divisor, found by
    filling the bounding box B of the ideal's generators.

    The colon is an ideal, so _fill_upset applies. Its minimal
    generators lie in B: if v is in the colon with v_j > B_j, then for
    each g some generator h of the ideal divides v + g, and h_j <= B_j
    <= v_j - 1 + g_j, so h also divides v - e_j + g and v is not
    minimal. Membership of w = v + g is read at min(w, B), which is
    exact because the ideal's generators lie in B: min(w, B) <= w, and
    a generator h <= w has h <= B, so h <= min(w, B).
    """
    bounds = ideal.max_exponents()
    box = Box(bounds)
    inside = _fill_ideal(ideal.gens, box)
    strides = box.strides()
    shifts = tuple(tuple(zip(g, bounds, strides)) for g in divisor.gens)

    def decide(index: int, v: Vector) -> bool:
        for shift in shifts:
            at = 0
            for a, (c, b, stride) in zip(v, shift):
                w = a + c
                at += (w if w < b else b) * stride
            if not inside[at]:
                return False
        return True

    _, minimal = _fill_upset(box, decide)
    return minimal


def oracle_intersect(
    left: MonomialIdeal, right: MonomialIdeal
) -> Tuple[Vector, ...]:
    """Minimal generators of the intersection, by filling the joint
    bounding box of both generator sets with each ideal and taking the
    points in both. The minimal generators, the pairwise maxima of
    generators, lie in that box."""
    box = Box(tuple(map(max, left.max_exponents(), right.max_exponents())))
    in_left = _fill_ideal(left.gens, box)
    in_right = _fill_ideal(right.gens, box)
    _, minimal = _fill_upset(
        box, lambda index, v: in_left[index] and in_right[index]
    )
    return minimal
