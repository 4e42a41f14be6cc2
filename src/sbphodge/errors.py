"""Exception types raised across the package."""


class SbpHodgeError(Exception):
    """Base class for all package errors."""


class UnsupportedOrder(SbpHodgeError, ValueError):
    """Requested interior order has no shipped coefficient table."""


class GridTooSmall(SbpHodgeError, ValueError):
    """Grid has too few nodes for non-overlapping boundary closures."""


class DimensionMismatch(SbpHodgeError, ValueError):
    """Array length or shape does not match the operator."""


class BadDomain(DimensionMismatch):
    """Grid interval is empty or has a non-finite end, or its node count is
    not an integer."""


class KindMismatch(SbpHodgeError, ValueError):
    """Scalar field passed where a vector field is required, or vice versa,
    or field data that is not real."""


class WrongDimension(SbpHodgeError, ValueError):
    """Operation is undefined for the spatial dimension of the operands."""


class UnknownSolver(SbpHodgeError, ValueError):
    """Krylov solver name is neither ``lsqr`` nor ``lsmr``."""


class UnknownProjectionOrder(SbpHodgeError, ValueError):
    """Projection order is neither ``grad-first`` nor ``curl-first``."""


class NullspaceDimensionUnexpected(SbpHodgeError, RuntimeError):
    """Numerical rank disagrees with the expected one-dimensional nullspace."""


class NotInImage(SbpHodgeError, ValueError):
    """Right-hand side has a component outside the image of the derivative."""


class TooLarge(SbpHodgeError, ValueError):
    """Problem exceeds the size limit of the dense rank oracle."""


class ConditionsViolated(SbpHodgeError, ValueError):
    """Compatibility conditions for the integral potential construction fail.

    Carries the list of failing condition labels in ``failed``.
    """

    def __init__(self, failed, message=None):
        self.failed = list(failed)
        super().__init__(message or f"conditions violated: {', '.join(self.failed)}")


class NotDivCurlFree(SbpHodgeError, ValueError):
    """Field is not discretely divergence and curl free at tolerance."""


class NonFiniteEncountered(SbpHodgeError, FloatingPointError):
    """NaN or infinity appeared during an iterative solve."""


class NoPlaneNode(SbpHodgeError, ValueError):
    """Grid has no node on the requested extraction plane."""


class CorruptFieldFile(SbpHodgeError, ValueError):
    """Field file has a bad header or a payload of the wrong size."""


class InvalidConfig(SbpHodgeError, ValueError):
    """Settings out of range: an experiment's dimension, grid sizes or
    amplitudes, or a Krylov solve's tolerances or iteration limit."""
