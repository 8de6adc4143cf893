"""Exception hierarchy for the tightspan package."""


class TightSpanError(Exception):
    """Base class for all package errors."""


# -- metric construction -----------------------------------------------------

class BadArity(TightSpanError):
    """Point count outside the supported range."""


class AsymmetricInput(TightSpanError):
    """Distance table is not symmetric."""


class NonzeroDiagonal(TightSpanError):
    """Distance table has a nonzero diagonal entry."""


class NodeOutOfRange(TightSpanError):
    """A node index is not in 1..n."""


class SubsetTooSmall(TightSpanError):
    """Induced metrics need at least three points."""


# -- graph and certificate machinery -----------------------------------------

class PreconditionViolated(TightSpanError):
    """An operation was called outside its stated domain, such as a seed that is no cell."""


# -- subdivision pipeline ------------------------------------------------------

class DegenerateRidge(TightSpanError):
    """An invariant of a built subdivision broke; there is no witness.

    An unbounded ridge pencil, a pivot off the candidate cells or a covered
    volume other than 2^(n-1) - n, on either route.  A flat seed or a
    ratio-test tie is a verdict, not this error: the traversal returns it
    as a non-generic Subdivision.
    """


class NotGeneric(TightSpanError):
    """The operation is only defined for generic metrics."""


# -- checks ----------------------------------------------------------------------
#
# A check answers with a common.Verdict, a failure included; it raises only
# when it cannot run.

class InapplicablePremise(TightSpanError):
    """Facet restrictions disagree, so the inductive formulas do not apply."""


class ScaleExceeded(TightSpanError):
    """An exhaustive oracle (vertex or cell enumeration) refused above its size cap."""


class NonSimple(TightSpanError):
    """The polyhedron has a vertex on more than n facets."""


# -- bounds ----------------------------------------------------------------------

class OutOfRange(TightSpanError):
    """Bound requested outside the region where faces exist."""
