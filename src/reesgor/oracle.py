"""Slow reference implementations used to cross-check the main code.

Everything in this module is deliberately naive: colons and
intersections by filling the membership of a box of lattice points,
with no arithmetic on generating sets. None of it calls the
algorithmic routines in the rest of the package, so an agreement
between the two is evidence, not a tautology. Inputs are read only for
their generator data, and for the componentwise maximum
`MonomialIdeal.max_exponents` takes of it, which is container
inspection and no algorithm. `--corpus` checks every colon and
intersection it forms against these fills.

A fill stores one start per row of the box, not one byte per point
(see _sweep for the lemma). The rows are the points that share their
first d - 1 coordinates, and the box of those prefixes is walked in
points() order. So a fill takes O(rows * d) steps, not O(points * d),
and a colon adds, per generator of the divisor, one pass of slices
over the rows and one of arithmetic on the starts. Enumerations refuse
a box of more than DEFAULT_BUDGET points and raise BudgetExceededError,
before allocating anything, instead of silently truncating.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterator, List, Sequence, Tuple

from .errors import BudgetExceededError
from .ideals import MonomialIdeal, _Value

Vector = Tuple[int, ...]

DEFAULT_BUDGET = 10_000_000


class Box(_Value):
    """The integer box prod_j [0, bounds_j]; size, and so points(),
    refuses one of more than DEFAULT_BUDGET points."""

    bounds: Tuple[int, ...]

    @property
    def size(self) -> int:
        n = 1
        for b in self.bounds:
            n *= b + 1
        if n > DEFAULT_BUDGET:
            raise BudgetExceededError(
                f"box {self.bounds} holds {n} points, "
                f"budget is {DEFAULT_BUDGET}"
            )
        return n

    def points(self) -> Iterator[Vector]:
        self.size  # the budget check, before any point is produced
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


def _sweep(starts: List[int], bounds: Vector) -> Tuple[Vector, ...]:
    """Walk the rows of the box of the given bounds in points() order
    of the prefix box, lower each start s(p) to cover(p) where it lies
    above it, and return the points (p, s(p)) with s(p) < cover(p).
    For the starts of an up-set no start is lowered, and the points
    returned are its minimal elements in the box, in lexicographic
    order.

    Lemma. A row is the set of points that share their first d - 1
    coordinates p. Inside a row, an up-set U is a suffix [s(p), L),
    with L = bounds_last + 1, and s(p) = L when the row holds no point
    of U. A point (p, x) is a minimal element of U exactly when
    x = s(p) and s(p) < cover(p), where cover(p) is the least
    s(p - e_j) over the j with p_j > 0, or L when there is no such j.
    Proof: (p, x) is in U iff x >= s(p), and it is minimal iff none of
    its lower neighbours is in U. The neighbour (p, x - 1) is not iff
    x = s(p) (for x = 0 there is none), and (p - e_j, x) is not iff
    x < s(p - e_j). Both together say x = s(p) < cover(p), and
    cover(p) <= L makes (p, s(p)) a point of the box. Since U is an
    up-set, s(p) <= s(p - e_j), so s(p) <= cover(p) in every row.

    Each p - e_j comes before p in points() order, so its start is
    final when p is reached.
    """
    length = bounds[-1] + 1
    prefixes = Box(bounds[:-1])
    steps = tuple(enumerate(prefixes.strides()))
    minimal = []
    for index, p in enumerate(prefixes.points()):
        s = starts[index]
        cover = length
        for j, stride in steps:
            if p[j] and starts[index - stride] < cover:
                cover = starts[index - stride]
        if s < cover:
            minimal.append(p + (s,))
        else:
            starts[index] = cover
    return tuple(minimal)


def _fill_ideal(gens: Sequence[Vector], bounds: Vector) -> List[int]:
    """The starts of the ideal generated by gens, whose generators lie
    in the box of the given bounds, one per row in points() order of
    the prefix box. The budget of the whole box is checked before
    anything is allocated.

    (p, x) is in the ideal iff some generator g divides it: either g
    has prefix p and x >= g_last, or g divides some (p - e_j, x) with
    p_j > 0, that is (p - e_j, x) is in the ideal. So s(p) is the
    least of cover(p) and the last entries of the generators with
    prefix p, which _sweep forms from the latter.
    """
    length = bounds[-1] + 1
    rows = Box(bounds).size // length
    strides = Box(bounds[:-1]).strides()
    starts = list(itertools.repeat(length, rows))
    for g in gens:
        at = sum(map(operator.mul, g, strides))
        if g[-1] < starts[at]:
            starts[at] = g[-1]
    _sweep(starts, bounds)
    return starts


def _clamped_shift(
    values: List[int],
    bounds: Vector,
    strides: Sequence[int],
    shift: Sequence[int],
) -> List[int]:
    """values, one per row in points() order of the prefix box of the
    given bounds, whose steps are strides, read at q = min(p + shift,
    B') for each prefix p. Coordinate j is shifted by c = shift_j on
    its own: in each block of rows that agree before coordinate j, the
    run of rows with p_j = a takes the values of the run with
    p_j = min(a + c, B_j), which is the block from its (min(c, B_j))th
    run on, followed by its last run min(c, B_j) more times.
    """
    rows = len(values)
    for c, side, stride in zip(shift, bounds, strides):
        cut = min(c, side) * stride
        if cut:
            block = stride * (side + 1)
            moved = []
            for top in range(0, rows, block):
                end = top + block
                moved += values[top + cut : end]
                moved += values[end - stride : end] * (cut // stride)
            values = moved
    return values


def oracle_colon(
    ideal: MonomialIdeal, divisor: MonomialIdeal
) -> Tuple[Vector, ...]:
    """Minimal generators of (ideal : divisor), the vectors v with
    v + g in the ideal for every generator g of the divisor, found by
    filling the bounding box B of the ideal's generators.

    Clamping lemma. The colon's minimal generators lie in B: if v is
    in the colon with v_j > B_j, then for each g some generator h of
    the ideal divides v + g, and h_j <= B_j <= v_j - 1 + g_j, so h
    also divides v - e_j + g and v is not minimal. Membership of
    w = v + g is read at min(w, B), which is exact because the ideal's
    generators lie in B: min(w, B) <= w, and a generator h <= w has
    h <= B, so h <= min(w, B).

    Starts. Let s_I be the starts of the ideal and L = B_last + 1.
    For v = (p, x) and g = (g', g_last), min(v + g, B) is (q, y) with
    q = min(p + g', B') and y = min(x + g_last, B_last). The ideal's
    row at q is [s_I(q), L), so (q, y) lies in the ideal iff
    y >= s_I(q). If s_I(q) = L, no y <= B_last does, and s(p) = L.
    Otherwise s_I(q) <= B_last, so y >= s_I(q) iff x + g_last >=
    s_I(q), that is x >= max(0, s_I(q) - g_last). So s(p) is the
    largest of these bounds over the generators of the divisor, and
    every s(p) = 0 when the divisor is the zero ideal.
    """
    bounds = ideal.max_exponents()
    inside = _fill_ideal(ideal.gens, bounds)
    length = bounds[-1] + 1
    strides = Box(bounds[:-1]).strides()
    starts = list(itertools.repeat(0, len(inside)))
    for *shift, last in divisor.gens:
        lowered = [
            s - last if s < length else length
            for s in _clamped_shift(inside, bounds, strides, shift)
        ]
        starts = list(map(max, starts, lowered))
    return _sweep(starts, bounds)


def oracle_intersect(
    left: MonomialIdeal, right: MonomialIdeal
) -> Tuple[Vector, ...]:
    """Minimal generators of the intersection, by filling the joint
    bounding box of both generator sets with each ideal: a row of the
    intersection starts where the later of the two rows does. The
    minimal generators, the pairwise maxima of generators, lie in that
    box."""
    bounds = tuple(map(max, left.max_exponents(), right.max_exponents()))
    starts = map(
        max, _fill_ideal(left.gens, bounds), _fill_ideal(right.gens, bounds)
    )
    return _sweep(list(starts), bounds)
