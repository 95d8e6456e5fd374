"""Monomial ideals as canonical antichains of exponent vectors.

An ideal in d variables is stored by its unique minimal monomial
generating set: the componentwise-minimal exponent vectors, with
duplicates removed, sorted lexicographically. Because the stored form
is canonical, equality of the stored fields is semantic equality of
ideals. The zero ideal has an empty generator tuple; the unit ideal is
generated by the zero vector. The minimal set is found over the
lexicographically sorted candidates by one of three exact methods (see
minimalize): in two variables a running minimum over the staircase;
for at most SCAN_LIMIT = 16 distinct candidates a scan that compares
each one with those kept before it; above that one bitset pass per
coordinate. On the three-variable calls of the pinned report jobs the
scan wins up to k = 15 distinct candidates, ties at k = 18 and loses
from k = 19 (about 22 against 15 us).

Every ideal is built through minimalize, which has two entries. Any
input is validated and minimalized: one walk checks dim and the
arity, sign and type of every entry, then the dominance step keeps
the minimal vectors. A tuple of the private type _Minimal is already
the sorted minimal generating set, and minimalize returns it as a
plain tuple, unchecked. Six builders make one, each by a lemma. Two
are the kernels of `*` and `&`, `_product` and `_join`, which take
the gens of ideals that already passed minimalize (tuples of plain
ints >= 0 of length dim) and keep that property: sums g + h, and each
g of self or maxima max(g, h). The third is `colon`, whose pieces take
clamped differences max(h - g, 0). Each of the three then runs the
dominance step itself. The fourth, `polyhedra.closure_power`, takes
the points of its column scan, which keeps exactly the lattice points
of the dilate that have no lower neighbour in it, sorted. The last
two check their input first: `MonomialIdeal.unit`, whose zero vector
alone is the sorted minimal set, and `MonomialIdeal.pure_powers`,
whose powers of distinct variables divide none of each other, sorted
with the power of the last variable first.

The per-job memo lives here, the lowest layer: `_job` scopes it to one
command run or self-check case, and `_once` runs a kernel at most once
per input within it. Its kernels are `_product`, `_join`, and in the
layers above the double description, the facet system and the
two-variable rays of a Newton polyhedron, the closure scan and the
canonical scan.

All exponents are Python ints, so arithmetic never overflows.
"""

from __future__ import annotations

import contextlib
import contextvars
import operator
from bisect import bisect_right
from itertools import repeat
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from .errors import DimensionMismatchError, InvalidIdealError

Vector = Tuple[int, ...]


def leq(u: Sequence[int], v: Sequence[int]) -> bool:
    """Componentwise u <= v, i.e. the monomial x^u divides x^v."""
    return all(map(operator.le, u, v))


def _divides_some(gens: Sequence[Vector], v: Vector) -> bool:
    """Does some vector of gens divide v, i.e. is x^v in (gens)?"""
    return any(map(leq, gens, repeat(v)))


def _exact_int(value: object) -> bool:
    """The one rule that keeps arithmetic exact: an exponent, dimension
    or power is an int, or an int subclass other than bool. bool is an
    int subclass, but True is no exponent; a float would compute an
    answer, and past 2^53 a wrong one. Each caller raises its own
    error when the rule fails."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_each(vectors: Iterable[Sequence[int]], dim: int) -> Set[Vector]:
    """The distinct vectors, each read once into a tuple and checked in
    input order: the first malformed one raises InvalidIdealError
    naming it, for a wrong arity, an entry that fails `_exact_int` or a
    negative entry. A vector joins the set only once its entries pass,
    so an unhashable entry is refused as an entry, not by the set. A
    tuple of plain ints is stored as it is, with no copy; one holding
    an int subclass is stored as the ints it equals."""
    unique = set()
    for raw in vectors:
        v = tuple(raw)
        if len(v) != dim:
            raise InvalidIdealError(
                f"generator {v} has {len(v)} entries, expected {dim}"
            )
        for entry in v:
            if type(entry) is not int and not _exact_int(entry):
                raise InvalidIdealError(f"non-integer exponent in {v}")
            if entry < 0:
                raise InvalidIdealError(f"negative exponent in {v}")
        unique.add(v if {*map(type, v)} <= {int} else tuple(map(int, v)))
    return unique


def _exact_vector(vector: Sequence[int], length: int, against: str) -> Vector:
    """vector as a tuple, refused before any arithmetic on it unless it
    has length entries, each passing `_exact_int`: DimensionMismatchError
    names its length and what it was held against, InvalidIdealError an
    entry that fails, with the message of minimalize. An exact int
    passes on one type test, as in _check_each; only another type
    calls `_exact_int`. On vectors of 2 to 4 entries that loop beats a
    C-level pass over the types (about 0.1-0.2 against 0.3-0.4 us,
    Python 3.11.7)."""
    v = tuple(vector)
    if len(v) != length:
        raise DimensionMismatchError(
            f"vector of length {len(v)} against {against}"
        )
    for entry in v:
        if type(entry) is not int and not _exact_int(entry):
            raise InvalidIdealError(f"non-integer exponent in {v}")
    return v


def _axes(scales: Sequence[int], length: int) -> List[Vector]:
    """The vectors scales[j] * e_j, j < len(scales), each of the given
    length."""
    zero = (0,) * length
    return [zero[:j] + (s,) + zero[j + 1 :] for j, s in enumerate(scales)]


class _Minimal(tuple):
    """Vectors that are already the sorted minimal generating set of an
    ideal, by a stated lemma, which minimalize returns as a plain tuple
    without reading them; its docstring names the six builders."""


# -------------------------------------------------------------------- #
# frozen values


class _Value:
    """Base of the package's immutable values: `MonomialIdeal`, the
    facet and cone data, the verdicts, `report.JobSpec` and
    `oracle.Box`. The fields of a class are the names it annotates, in
    order, read once into `_fields` when the class is made. A class
    that defines no `__init__` of its own gets one then, compiled once
    from `_fields`: `__init__(self, <fields in annotation order>)`,
    which stores each argument as its field with
    `object.__setattr__`, with no defaults and no checks. The verdicts,
    `CanonicalData`, `PurePowerTest`, `ConsistencyCheck`, `JobSpec`
    and `oracle.Box` take it. The four that check or convert their
    fields, `MonomialIdeal`, `HalfSpace`, `FacetSystem` and `ReesCone`,
    write their own, with the same signature. `ReesCone` also stores
    its rays, solved from its fields, as an attribute that is no field.

    Two values are equal iff they have the same class and equal
    fields; the hash is that of the tuple of fields; `repr` is
    `Name(field=value, ...)`. Assigning or deleting an attribute
    raises `dataclasses.FrozenInstanceError`, whose module is imported
    only on that path. A pickle stores the class and the fields, so
    loading one builds the value through its constructor, checks
    included."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls._fields = tuple(vars(cls).get("__annotations__", ()))
        get = operator.attrgetter(*fields)
        # the tuple of field values; attrgetter makes one of two or more
        cls._values = staticmethod(
            get if len(fields) > 1 else lambda value: (get(value),)
        )
        if "__init__" not in vars(cls):
            # one store per field, compiled once, as dataclasses does
            space = {"_store": object.__setattr__, "__name__": cls.__module__}
            exec(
                f"def __init__(self, {', '.join(fields)}):\n"
                + "".join(f"    _store(self, {f!r}, {f})\n" for f in fields),
                space,
            )
            init = cls.__init__ = space["__init__"]
            init.__qualname__ = f"{cls.__qualname__}.__init__"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields
        )
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values(self)


# -------------------------------------------------------------------- #
# the job memo

# The memo of the job running in this context, from (kernel, its
# arguments) to the kernel's result; None outside a job.
_job_memo: contextvars.ContextVar[Optional[Dict]] = contextvars.ContextVar(
    "reesgor_job_memo", default=None
)


@contextlib.contextmanager
def _job() -> Iterator[None]:
    """Run the block as one job, with a memo of its own for `_once`.

    One command run (`cli._execute`) and one self-check case
    (`cli.corpus_case`) are each one job: both are decorated with
    `@_job()`, which enters a new job on every call. The memo is empty
    when the block starts and gone when it ends, however it ends, so
    nothing crosses from one job to the next. A job entered inside
    another starts empty too, and the outer job's memo is back when it
    ends. `_job` sets and resets `_job_memo` and `_once` reads it;
    nothing else in the package touches it."""
    token = _job_memo.set({})
    try:
        yield
    finally:
        _job_memo.reset(token)


def _once(kernel: Callable, *args):
    """kernel(*args), run at most once per job for equal arguments.

    The memo lives in this module, the lowest layer, so every layer
    reads the same one. Its kernels: `_product` and `_join` here (the
    work of `*` and `&`), `polyhedra._cone_rays` (inside
    `extreme_rays`, which `cone.ReesCone` calls for its rays; a closed
    form or the double description), `polyhedra._plane_rays` and
    `polyhedra._facet_system` (inside `newton_polyhedron`),
    `polyhedra._dilate_minimal_points` (inside `closure_power`) and
    `cone._canonical_scan` (inside `canonical_generators`). `**` calls
    `_product` itself, not through here, so a power stores nothing.

    Lemma. Each kernel passed here reads only its arguments, which are
    immutable values compared by value: ints, tuples of ints, and
    frozen `FacetSystem` and `cone.ReesCone` objects whose fields are
    ints and tuples. That holds for every one of them, hand-built ones
    included, since both constructors store the sequences they are
    given as tuples; a cone's rays are solved from its fields. It
    returns an immutable value (tuples and frozen `_Value`s). So within
    one job a stored result is exactly what a fresh run would return,
    and handing it out again changes nothing but time.

    Outside a job the kernel runs on every call, as the reference the
    memo is tested against. Only returned results are stored: a kernel
    that raises stores nothing, and raises again, with the same
    message, when it is asked again."""
    memo = _job_memo.get()
    if memo is None:
        return kernel(*args)
    key = (kernel, *args)
    result = memo.get(key)
    if result is None:  # no kernel returns None
        result = memo[key] = kernel(*args)
    return result


# Most distinct candidates for which minimalize, outside two variables,
# compares each candidate with the ones kept instead of forming
# bitsets; the measurement behind it is in minimalize's docstring.
SCAN_LIMIT = 16


def minimalize(vectors: Iterable[Sequence[int]], dim: int) -> Tuple[Vector, ...]:
    """Reduce a generating set to the componentwise-minimal antichain.

    Deduplicates, drops every vector dominated by another, and returns
    the survivors sorted lexicographically. Raises InvalidIdealError on
    a dim that is no positive int and on malformed vectors (wrong arity,
    negative entries, or entries that fail `_exact_int`). The survivors
    hold plain ints, also when the input held an int subclass.

    Two entries. A tuple of exactly the private type _Minimal is
    returned as a plain tuple, unchecked: it is already the sorted
    minimal generating set, by the lemma of the builder that made it.
    The builders are `_product` (the kernel of `MonomialIdeal.__mul__`:
    sums of two gens), `_join` (the kernel of `__and__`: gens of self
    and maxima of two gens), `colon` (its pieces: clamped differences
    max(h - g, 0)), each of which runs the dominance step below on its
    own candidates, `polyhedra.closure_power` (the points of its
    column scan, minimal by the scan's lemma), `MonomialIdeal.unit`
    (the zero vector, once its dim passes the check below) and
    `MonomialIdeal.pure_powers` (the powers a_j e_j of distinct
    variables, j falling, once every a_j passes `_exact_int` and is
    >= 1, stored as plain ints). Every other input, a tuple, set or
    frozenset of any other type included, is validated and
    minimalized as below. So every construction still calls
    minimalize once, and a memoized product or join is one call that
    reads nothing.

    Validation is one walk, `_check_each`: each vector is read once,
    into a tuple, and checked before it joins the set of distinct
    vectors, so the first malformed vector in input order raises, named.
    Every vector is checked, duplicates too, since True == 1 hashes
    alike and deduplication would let (1, 0) hide a later (True, 0). An
    int subclass other than bool passes, and is stored as the int it
    equals. The package's large candidate sets (products, joins, colon
    pieces, closures) come as _Minimal, and so do the unit ideal and
    pure powers; what reaches this entry is caller input and
    `bracket_power`, the size of the ideal it starts from.

    Lemma (order). Among distinct candidates in lexicographic order,
    every divisor of v comes before v: it is at most v in every entry,
    hence lexicographically at most v. Dominance is transitive. So v
    has a strict divisor iff some earlier candidate that is kept
    divides it: an earlier divisor that was dropped has a kept divisor
    of its own, earlier still, which divides v too. The three methods
    below read off that lemma; which one runs depends on dim and on
    the count k of distinct candidates only, never on the answer.

    Two variables: a running minimum. Every earlier candidate has
    first entry <= v[0], so v is kept iff v[1] is below the least
    second entry of the candidates kept before it; the first candidate
    is always kept. One loop of O(k) int comparisons after the sort.
    Sending two variables to the two methods below instead cost the
    pinned report jobs 1.1-2.0% more time (median 1.8% of five
    side-by-side timings, `tools/pooltime.py`, 2 cores, Python 3.11.7).

    Small sets, k <= SCAN_LIMIT: each candidate is compared with the
    candidates kept so far, by the last entry first and then in full,
    and kept when none of them divides it.

    Large sets: one bitset pass per coordinate. Number the candidates
    0..k-1 in lexicographic order. For coordinate i, the candidates
    with i-th entry at most t form a bitset, a prefix OR over the
    sorted entries; below[j] is the AND over all i of the bitset at
    t = v_j[i], so bit l is set exactly when v_l <= v_j componentwise.
    By the lemma below[j] starts as bits 0..j; those candidates
    already have first entry at most v_j[0], so the first coordinate
    needs no pass. Bit j is always set, and any other set bit is a
    strict dominator; so v_j is minimal iff below[j] has a single set
    bit, b & (b - 1) == 0. The cost is O(dim * k) big-int ORs and
    ANDs rather than O(k^2) comparisons. below is a lazy chain: the
    mask of bits 0..j and its ANDs with the prefix tables are formed
    when the result reads candidate j, so one such bitset is alive at
    a time, next to the dim - 1 prefix tables (one bitset per distinct
    entry of a column). Lists of all k masks and all k single bits
    held about k^2 bits, more than 2 GiB for the 282,376 closure
    generators of (x^3, y^3, z^3)^250.

    SCAN_LIMIT is the crossover of the last two on recorded traffic.
    With products, joins and facet systems solved once per job, the
    218 pinned report jobs run the dominance step 12,650 times, 8,352
    of them in two variables and 4,298 in three. Timed per k on those
    sorted three-variable candidates, the dominance step alone (median
    of 25 runs, three rounds, 2 cores, Python 3.11.7) takes 0.7-1.5 us
    by the scan against 7.0-8.8 us by the bitsets at k = 3 (1,013
    calls), 7.4-15.4 against 11.5-22.0 at k = 15, 9.7-20.5 against
    12.6-24.1 at k = 18, where the rounds disagree, and 21.3-45.0
    against 14.3-27.6 at k = 19. No call had k = 16 or 17, so any
    limit from 15 to 18 picks the same methods to within the noise,
    and 16 stays.
    """
    if type(vectors) is _Minimal:
        return tuple(vectors)
    _check_dim(dim)
    return _minimal(sorted(_check_each(vectors, dim)), dim)


def _check_dim(dim: int) -> int:
    """dim as a plain int, refused unless it is a positive int by
    `_exact_int`: an int subclass passes and is returned as its int."""
    if not _exact_int(dim) or dim < 1:
        raise InvalidIdealError("ambient dimension must be a positive int")
    return dim if type(dim) is int else int(dim)


def _minimal(candidates: List[Vector], dim: int) -> Tuple[Vector, ...]:
    """The dominance step of minimalize: the minimal vectors among
    distinct valid candidates of length dim, in lexicographic order,
    by the method that dim and their count pick."""
    if dim == 2:
        kept = []
        least = None
        for v in candidates:
            if least is None or v[1] < least:
                kept.append(v)
                least = v[1]
        return tuple(kept)
    if len(candidates) <= SCAN_LIMIT:
        kept = []
        for v in candidates:
            for u in kept:
                if u[-1] <= v[-1] and all(map(operator.le, u, v)):
                    break
            else:
                kept.append(v)
        return tuple(kept)
    below: Iterable[int] = ((2 << j) - 1 for j in range(len(candidates)))
    columns = zip(*candidates)
    next(columns, None)
    for column in columns:
        # entry t -> bitset of the candidates whose entry here is <= t
        at_most: dict[int, int] = {}
        for j, t in enumerate(column):
            at_most[t] = at_most.get(t, 0) | 1 << j
        prefix = 0
        for t in sorted(at_most):
            prefix |= at_most[t]
            at_most[t] = prefix
        below = map(operator.and_, below, map(at_most.__getitem__, column))
    return tuple(v for v, b in zip(candidates, below) if b & (b - 1) == 0)


def _product(
    a_gens: Tuple[Vector, ...], b_gens: Tuple[Vector, ...], dim: int
) -> Tuple[Vector, ...]:
    """The minimal generators of (a_gens) * (b_gens), the kernel of
    `MonomialIdeal.__mul__`. Both gens passed minimalize: tuples of
    plain ints >= 0 of length dim, and so is the sum of any two of
    them, so the distinct sums go straight to the dominance step."""
    sums = {tuple(map(operator.add, g, h)) for g in a_gens for h in b_gens}
    return _Minimal(_minimal(sorted(sums), dim))


def _join(
    a_gens: Tuple[Vector, ...], b_gens: Tuple[Vector, ...], dim: int
) -> Tuple[Vector, ...]:
    """The minimal generators of (a_gens) ∩ (b_gens), the kernel of
    `MonomialIdeal.__and__`: the pairwise componentwise maxima.

    A generator g of a_gens that already lies in (b_gens) is emitted
    alone rather than joined with every generator of b_gens: g is in
    the intersection, and each join lcm(g, h) is a multiple of g, so
    the joins add nothing. Both gens passed minimalize: tuples of
    plain ints >= 0 of length dim, and so are each g and each maximum
    of two, so the candidates go straight to the dominance step."""
    joins = set()
    for g in a_gens:
        if _divides_some(b_gens, g):
            joins.add(g)
        else:
            joins.update(tuple(map(max, g, h)) for h in b_gens)
    return _Minimal(_minimal(sorted(joins), dim))


class MonomialIdeal(_Value):
    """A monomial ideal, canonicalized on construction."""

    __slots__ = ("dim", "gens")
    dim: int
    gens: Tuple[Vector, ...]

    def __init__(self, dim: int, gens: Iterable[Sequence[int]]) -> None:
        # minimalize refuses a dim that is no positive int
        object.__setattr__(self, "gens", minimalize(gens, dim))
        # an int subclass is kept as its int
        object.__setattr__(self, "dim", dim if type(dim) is int else int(dim))

    # The contract of `_Value.__eq__` and `__hash__`, written out: ideals
    # are compared and hashed far more often than any other value.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.dim == other.dim and self.gens == other.gens

    def __hash__(self) -> int:
        return hash((self.dim, self.gens))

    # ---------------------------------------------------------------- #
    # constructors

    @classmethod
    def unit(cls, dim: int) -> "MonomialIdeal":
        """The unit ideal (1), generated by the zero vector. A dim that
        is no int fails on forming that vector, with the TypeError of
        `*`; any other dim that is no positive int is refused with the
        InvalidIdealError of minimalize. The zero vector alone is the
        sorted minimal generating set, so it is built as _Minimal."""
        zero = (0,) * dim
        _check_dim(dim)
        return cls(dim, _Minimal((zero,)))

    @classmethod
    def pure_powers(cls, exponents: Sequence[int]) -> "MonomialIdeal":
        """The ideal (x_1^{a_1}, ..., x_d^{a_d}) with every a_i >= 1.
        Powers of distinct variables, none dividing another, are the
        minimal generating set, and sorted the power of x_d comes
        first: `_axes` in reverse order, built as _Minimal."""
        exps = tuple(exponents)
        if not exps or any(not _exact_int(a) or a < 1 for a in exps):
            raise InvalidIdealError(
                f"pure power exponents must be positive ints, got {exps}"
            )
        dim = len(exps)
        return cls(dim, _Minimal(reversed(_axes(tuple(map(int, exps)), dim))))

    # ---------------------------------------------------------------- #
    # predicates

    def is_zero(self) -> bool:
        return not self.gens

    def pure_power_exponents(self) -> Optional[Tuple[int, ...]]:
        """If the ideal is exactly (x_1^{a_1}, ..., x_d^{a_d}), return
        (a_1, ..., a_d); otherwise None.

        One pass over the gens. Sorted, the gens of such an ideal are
        the powers a_j e_j with j falling, so gens[k] is the power of
        x_(d-k): a_(d-k) = gens[k][-1 - k]. Conversely, if there are d
        gens and each gens[k] has its whole sum, at least 1, at entry
        -1 - k (entries are >= 0), then gens[k] is a positive power of
        x_(d-k) alone, one for each variable. The bound >= 1 leaves out
        the unit ideal in d = 1, whose one generator (0,) has its sum
        there; the zero ideal has no gens."""
        gens = self.gens
        if len(gens) != self.dim:
            return None
        powers = [g[-1 - k] for k, g in enumerate(gens)]
        if powers != list(map(sum, gens)) or min(powers) < 1:
            return None
        return tuple(reversed(powers))

    def is_subset(self, other: "MonomialIdeal") -> bool:
        """Is self contained in other, i.e. does some generator of other
        divide each generator of self? Two fast paths, then the scan.

        Two variables: bisection. The generators of other that are
        lexicographically at most v form a prefix of other.gens, and
        every divisor of v is among them. On a two-variable staircase
        the second entries fall strictly along the sorted gens, so the
        last of that prefix has the least second entry in it: v lies in
        other iff the prefix is not empty and that generator's second
        entry is at most v[1] (its first entry is at most v[0]).

        A pure-power other (x_1^a_1, ..., x_d^a_d), as
        `pure_power_exponents` tells it: x^v lies in it iff v_i >= a_i
        for some i, one comparison per entry.

        Otherwise each generator of self is tested against every
        generator of other."""
        self._require_same_dim(other)
        gens = other.gens
        if self.dim == 2:
            for v in self.gens:
                i = bisect_right(gens, v)
                if not i or gens[i - 1][1] > v[1]:
                    return False
            return True
        powers = other.pure_power_exponents()
        if powers is not None:
            return all(any(map(operator.ge, v, powers)) for v in self.gens)
        return all(map(_divides_some, repeat(gens), self.gens))

    # ---------------------------------------------------------------- #
    # arithmetic

    def _require_same_dim(self, other: "MonomialIdeal") -> None:
        if not isinstance(other, MonomialIdeal):
            raise TypeError(f"expected MonomialIdeal, got {type(other).__name__}")
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"dimension {self.dim} vs {other.dim}"
            )

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """The product, by the kernel `_product`, run once per pair of
        operands within a job (`_once`)."""
        self._require_same_dim(other)
        return MonomialIdeal(
            self.dim, _once(_product, self.gens, other.gens, self.dim)
        )

    def __pow__(self, n: int) -> "MonomialIdeal":
        """I^n by n - 1 products with I, one per further factor, each
        product dropped once the next is formed, so one power is alive
        at a time. Each product is one run of the kernel `_product` on
        the generator tuples, not through the job memo (`_once`), so a
        power stores nothing in it either; I ** 1 is I. Exponents
        n <= 0 give the unit ideal (the convention used throughout the
        filtration code). A walk that revisits powers keeps them on a
        _power_cache ladder instead."""
        if not _exact_int(n):
            raise TypeError("exponent must be an int")
        if n <= 0:
            return MonomialIdeal.unit(self.dim)
        power = self
        for _ in range(n - 1):
            product = _product(power.gens, self.gens, self.dim)
            power = MonomialIdeal(self.dim, product)
        return power

    def __and__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Intersection, by the kernel `_join` (pairwise componentwise
        maxima), run once per pair of operands within a job (`_once`)."""
        self._require_same_dim(other)
        return MonomialIdeal(
            self.dim, _once(_join, self.gens, other.gens, self.dim)
        )

    def colon(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """The colon ideal (self : other).

        For a single monomial divisor x^g the quotient is generated by
        the clamped differences max(h - g, 0); for several it is the
        intersection of the single-divisor quotients.
        """
        self._require_same_dim(other)
        if other.is_zero():
            return MonomialIdeal.unit(self.dim)
        zeros = (0,) * self.dim
        result: Optional[MonomialIdeal] = None
        for g in other.gens:
            # both gens passed minimalize: tuples of plain ints of
            # length dim, so each max(h - g, 0) is one, with no entry < 0
            shifted = {
                tuple(map(max, map(operator.sub, h, g), zeros))
                for h in self.gens
            }
            piece = MonomialIdeal(
                self.dim, _Minimal(_minimal(sorted(shifted), self.dim))
            )
            result = piece if result is None else (result & piece)
        assert result is not None
        return result

    def bracket_power(self, u: int) -> "MonomialIdeal":
        """The ideal generated by the u-th powers of the generators
        (for monomial generators: each exponent vector scaled by u)."""
        if not _exact_int(u) or u < 1:
            raise InvalidIdealError("bracket power requires a positive int")
        return MonomialIdeal(
            self.dim, tuple(tuple(u * e for e in g) for g in self.gens)
        )

    # ---------------------------------------------------------------- #
    # inspection

    def max_exponents(self) -> Vector:
        """Componentwise maximum over the generators (zeros if none).
        Handy as a bounding box for staircase enumerations."""
        if not self.gens:
            return (0,) * self.dim
        return tuple(max(g[i] for g in self.gens) for i in range(self.dim))

    def to_str(self) -> str:
        """Human-readable rendering such as '(x^3, x*y, y^3)'."""
        if self.is_zero():
            return "(0)"
        names = variable_names(self.dim)
        terms = []
        for g in reversed(self.gens):
            parts = []
            for name, e in zip(names, g):
                if e == 1:
                    parts.append(name)
                elif e > 1:
                    parts.append(f"{name}^{e}")
            terms.append("*".join(parts) if parts else "1")
        return "(" + ", ".join(terms) + ")"


def _power_cache(ideal: MonomialIdeal) -> Callable[[int], MonomialIdeal]:
    """A function n -> ideal^n that forms each power on first use, by
    one product with the power before it (ideal^n = unit for n <= 0).
    It is the one ladder of powers: a walk that revisits powers keeps
    its own for the length of a call, and every rung stays alive with
    it. `**` reads only its top power, so it climbs no ladder."""
    pows = [MonomialIdeal.unit(ideal.dim), ideal]

    def power(n: int) -> MonomialIdeal:
        while len(pows) <= n:
            pows.append(pows[-1] * ideal)
        return pows[max(n, 0)]

    return power


def variable_names(dim: int) -> Tuple[str, ...]:
    if dim <= 4:
        return tuple("xyzw"[:dim])
    return tuple(f"x{i + 1}" for i in range(dim))
