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
    """An operation was called outside its stated domain."""


# -- linear programming -------------------------------------------------------

class Infeasible(TightSpanError):
    """The degree equations admit no non-negative solution."""


class NonUniqueOptimum(TightSpanError):
    """Two distinct optimal matchings found where a unique one was required."""


class StructureViolation(TightSpanError):
    """An optimal matching support matches none of the admissible shapes."""


# -- subdivision pipeline ------------------------------------------------------

class DegenerateRidge(TightSpanError):
    """An invariant of the ridge traversal broke; there is no witness.

    A flat seed or a ratio-test tie is a verdict, not this error: the
    traversal returns it as a non-generic Subdivision.
    """


class SeedInvalid(TightSpanError):
    """The supplied traversal seed is not a valid cell."""


class NotATriangulation(TightSpanError):
    """Face machinery requires a generic (triangulated) subdivision."""


class NotGeneric(TightSpanError):
    """The operation is only defined for generic metrics."""


# -- face-vector checks --------------------------------------------------------

class InapplicablePremise(TightSpanError):
    """Facet restrictions disagree, so the inductive formulas do not apply."""


# -- primal oracle ---------------------------------------------------------------

class ScaleExceeded(TightSpanError):
    """An exhaustive oracle (vertex or cell enumeration) refused above its size cap."""


class NonSimple(TightSpanError):
    """The polyhedron has a vertex on more than n facets."""


class Mismatch(TightSpanError):
    """Primal and dual pipelines disagree; carries the first differing entry."""


# -- bounds ----------------------------------------------------------------------

class OutOfRange(TightSpanError):
    """Bound requested outside the region where faces exist."""


class BoundViolated(TightSpanError):
    """A computed face count exceeds a proven bound (implementation bug)."""
