"""Exception types shared across the package."""


class GyromeanError(Exception):
    """Base class for all errors raised by this package."""


class NotHermitian(GyromeanError):
    """Matrix is not Hermitian within tolerance."""


class NotFinite(GyromeanError):
    """Matrix has a NaN or infinite entry."""


class NotPositiveDefinite(GyromeanError):
    """Matrix is not strictly positive definite within tolerance."""


class DimensionMismatch(GyromeanError):
    """Operands have incompatible shapes."""


class NoConvergence(GyromeanError):
    """Eigenvalue iteration failed to converge."""


class Singular(GyromeanError):
    """Matrix is singular (or numerically so)."""


class NotInBall(GyromeanError):
    """Vector lies outside the open unit ball."""


class NotDensity(GyromeanError):
    """Matrix is not a valid invertible density matrix."""


class NotUnitDeterminant(GyromeanError):
    """Matrix determinant differs from one beyond tolerance."""


class WeightOutOfRange(GyromeanError):
    """Curve parameter outside the admissible range."""


class LengthMismatch(GyromeanError):
    """Vectors have different lengths."""


class NonPositiveEntry(GyromeanError):
    """Entry must be strictly positive."""


class NonPositiveArgument(GyromeanError):
    """Scalar argument must be strictly positive."""


class UnknownCase(GyromeanError):
    """Unrecognized inequality-case or option tag."""

