"""Exception hierarchy for the tightspan package.

One class for each meaning that a caller acts on.  An input the package
refuses is PreconditionViolated, whatever the reason; its message names the
reason.  A broken invariant is DegenerateRidge.  A check answers with a
common.Verdict, a failure included, and raises only when it cannot run.
"""


class TightSpanError(Exception):
    """Base class for all package errors."""


class PreconditionViolated(TightSpanError):
    """An argument or input lies outside its documented domain.

    A malformed table, a node or k out of range, a point count or size past
    its cap, a non-generic metric where faces are asked for, a non-simple
    polyhedron and a seed that is no cell.
    """


class DegenerateRidge(TightSpanError):
    """An invariant of a built subdivision broke; there is no witness.

    An unbounded ridge pencil, a pivot off the candidate cells or a covered
    volume other than 2^(n-1) - n, on either route.  A flat seed or a
    ratio-test tie is a verdict, not this error: the traversal returns it
    as a non-generic Subdivision.
    """
