"""Exception types shared across the package."""


class PolyrealizeError(Exception):
    """Base class for every error raised by this package."""


class RelationFormatError(PolyrealizeError):
    """Relation file or JSON payload is malformed."""


class MatrixFormatError(PolyrealizeError):
    """Matrix CSV file is malformed."""


class EmptyRelationError(PolyrealizeError):
    """Relation has zero facets or zero vertices."""


class DegenerateRelationError(PolyrealizeError):
    """Relation is empty, a single pair, or has a universal facet or vertex.

    Such relations are rejected before lattice analysis: the diamond
    argument needs more than one facet and more than one vertex, none of
    them incident to everything on the other side.  A facet incident to
    no vertex, or a vertex on no facet, is rejected too.
    """


class NotGradedError(PolyrealizeError):
    """Lattice is not graded (maximal chains have unequal lengths)."""


class NotDiamondError(PolyrealizeError):
    """Some rank-2 interval of the lattice does not have 4 elements."""


class FlagCapExceededError(PolyrealizeError):
    """Flag enumeration, the Gramian verifiers' cycle walk or the super-cycle
    enumeration would exceed the configured cap."""

    def __init__(self, count, cap, counted="flags"):
        super().__init__(f"lattice has {count} {counted}, exceeding the cap of {cap}")
        self.count = count
        self.cap = cap


class NotBipartiteError(PolyrealizeError):
    """Flag graph contains an odd cycle."""


class NoCycleError(PolyrealizeError):
    """No facet sequence descends rank by rank to the given vertex."""


class ZeroMatrixError(PolyrealizeError):
    """Operation requires a nonzero matrix."""


class NotPsdError(PolyrealizeError):
    """Matrix has an eigenvalue below the negative tolerance."""


class SignatureMismatchError(PolyrealizeError):
    """Symmetric matrices do not have compatible signatures."""


class DegenerateFormError(PolyrealizeError):
    """Bilinear form has an eigenvalue at zero within tolerance."""


class DimensionMismatchError(PolyrealizeError):
    """Operand shapes are inconsistent."""


class RankMismatchError(PolyrealizeError):
    """Numeric rank differs from the requested rank."""


class RankAnomalyError(PolyrealizeError):
    """Matrix conversion produced an unexpected numeric rank."""


class NoPositiveScalingError(PolyrealizeError):
    """No positive diagonal rescaling with the required sign pattern exists.

    Signals that the input is not a facet-ray matrix of a pointed cone
    over a polytope.
    """


class PatternViolationError(PolyrealizeError):
    """Matrix does not match the required filled incidence pattern."""

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class LightlikeNormalError(PolyrealizeError):
    """A cogenerator is lightlike for the given form."""


class NotInRangeError(PolyrealizeError):
    """Vector is not in the range of the matrix."""
