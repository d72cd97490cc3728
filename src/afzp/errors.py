"""Error taxonomy.

Every mathematically meaningful failure gets its own class so callers
(and the CLI) can tell input mistakes from genuine obstructions.
"""


class AfzpError(Exception):
    """Base class for all library errors."""


class ContextMismatch(AfzpError):
    """Operands live in different cyclotomic fields."""


class DivisionByZero(AfzpError):
    pass


class ShapeMismatch(AfzpError):
    pass


class NotOrderP(AfzpError):
    """Spectral analysis applied to a matrix that is not unitary of order p."""


class MultisetMismatch(AfzpError):
    """Diagonals cannot be matched; carries both multiplicity vectors."""

    def __init__(self, counts1, counts2):
        super().__init__(
            "eigenvalue multisets differ: %s vs %s" % (counts1, counts2))
        self.counts1 = counts1
        self.counts2 = counts2


class TwistNotRootOfUnity(AfzpError):
    """Holonomy scalar is not a root of unity in the field."""


class TwistRootOutsideField(AfzpError):
    def __init__(self, order_needed):
        super().__init__(
            "absorbing the twist needs a root of unity outside the field; "
            "re-run with field order >= %d" % order_needed)
        self.order_needed = order_needed


class NonDiagonalizableWithinField(AfzpError):
    """A fixed block's implementing unitary has eigenvectors that
    matrix.diagonalizer cannot pair with its sorted diagonal: some
    norm ratio is not a rational k^2 2^a p^b / c^2. Diagonal and monomial
    blocks never raise this; re-present the input with one."""


class SystemMismatch(AfzpError):
    """Homomorphisms are not composable / not over the same systems."""


class NonIntegralMultiplicity(AfzpError):
    """Trace bookkeeping produced a non-integer; internal consistency bug."""


class PairCheckFailed(AfzpError):
    def __init__(self, report):
        super().__init__("invariant-pair check failed:\n" + report.summary())
        self.report = report


class PackingInfeasible(AfzpError):
    """Eigenvalue/size budget cannot be met (defensive; unreachable when
    the pair check passed)."""


class KDataMismatch(AfzpError):
    """Two homs do not induce the same invariant morphism."""

    def __init__(self, detail, left=None, right=None):
        super().__init__(detail)
        self.left = left
        self.right = right


class UnitaryNotFoundInField(AfzpError):
    """No unitary intertwiner with entries in the field was found: a
    commutant element leaves its slot pattern, or an eigenvector norm
    ratio lies outside the class matrix.unitary_conjugator decides (the
    message names the eigenvalue and the ratio)."""


class ReindexFailed(AfzpError):
    """No reindexing within the depth bound makes the invariant squares
    commute."""


class LiftFailed(AfzpError):
    def __init__(self, stage, cause):
        super().__init__("lift failed at stage %s: %s" % (stage, cause))
        self.stage = stage
        self.cause = cause


class CorrectionFailed(AfzpError):
    def __init__(self, stage, cause):
        super().__init__("inner correction failed at stage %s: %s" % (stage, cause))
        self.stage = stage
        self.cause = cause


class FormatError(AfzpError):
    """Input file does not parse against the documented schema."""
