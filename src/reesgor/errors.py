"""Exception types raised by the library.

Input problems (bad arguments, ideals that do not qualify for an
operation) derive from ValueError. Internal consistency failures and
resource guards derive from RuntimeError: they signal either a bug, a
violated theorem, or an enumeration that was cut off before it could
certify its answer. Callers that want to distinguish "your input is
inapplicable" from "the computation could not be trusted" can catch the
two bases separately; the command line tool maps them to distinct exit
codes.
"""


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


class InvalidIdealError(ValueError):
    """Generator data is malformed (negative exponents, wrong arity)."""


class NotMPrimaryError(ValueError):
    """The operation requires an ideal primary to the maximal ideal."""


class NotAReductionError(ValueError):
    """The candidate subideal is not a reduction of the given ideal."""


class ConeGeometryError(ValueError):
    """A cone fails a structural requirement (not pointed, not full
    dimensional, with extreme rays outside the nonnegative orthant, or
    with a facet row whose last entry is negative, so that e_(d+1)
    lies outside it), so the requested invariant is undefined."""


class InapplicableError(ValueError):
    """The requested criterion does not apply to this input (for example
    a pure-power-only test on an ideal with mixed generators)."""


class BudgetExceededError(RuntimeError):
    """A brute-force enumeration exceeded its point budget. The result
    so far is unusable; raise rather than return a partial answer."""


class InvariantViolationError(RuntimeError):
    """Two routes that must agree by theorem disagreed, or a certified
    bound failed. Indicates a bug or a refuted assumption; the message
    carries the concrete witness."""
