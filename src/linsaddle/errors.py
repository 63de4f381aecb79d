"""Exception hierarchy shared by all modules."""


class LinSaddleError(Exception):
    """Base class for all library errors."""


class InvalidShape(LinSaddleError):
    """Matrix or network dimensions are inconsistent or out of the supported regime."""


class AssumptionViolated(LinSaddleError):
    """The data does not satisfy the standing full-rank / distinct-eigenvalue assumption."""


class InvalidRank(LinSaddleError):
    """Requested rank or support size is out of range."""


class InvalidPivot(LinSaddleError):
    """Pivot indices do not satisfy 1 <= j < i <= H."""


class NotCritical(LinSaddleError):
    """The input weights are not a first-order critical point within tolerance."""


class AmbiguousProjector(LinSaddleError):
    """A projector diagonal entry falls in the ambiguity band and the support cannot be read off."""


class IllConditioned(LinSaddleError):
    """An invertible block is too ill-conditioned to be used safely."""


class NoTightenedPointExists(LinSaddleError):
    """With a single hidden layer no tightened critical point of deficient rank exists."""


class DegenerateBasis(LinSaddleError):
    """The canonical block equations do not hold for the recovered D."""


class NeedsCanonicalization(LinSaddleError):
    """The operation requires weights already in canonical block form."""


class NotTightened(LinSaddleError):
    """The operation requires a tightened critical point."""


class NotApplicable(LinSaddleError):
    """The requested witness construction does not apply to this point."""


class TooLarge(LinSaddleError):
    """Problem size exceeds a guard intended for dense / exhaustive computation."""


class ProbeNotConverged(LinSaddleError):
    """The Lanczos probe for the smallest Hessian eigenvalue did not converge."""


class InternalInconsistency(LinSaddleError):
    """A certified property failed to hold numerically; indicates a tolerance misconfiguration."""
