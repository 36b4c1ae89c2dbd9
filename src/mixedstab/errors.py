"""Exception types shared across the package."""


class MixedStabError(Exception):
    """Base class for all package-specific errors."""


class MeshFormatError(MixedStabError):
    """Mesh text could not be parsed; message carries the line number."""


class MeshTopologyError(MixedStabError):
    """Mesh connectivity is invalid; message names the offending cell."""


class UnsupportedDegreeError(MixedStabError, ValueError):
    """Requested polynomial or quadrature degree is out of range."""


class NotPositiveDefiniteError(MixedStabError):
    """Symmetric factorization hit a non-positive pivot."""

    def __init__(self, pivot, message=None):
        self.pivot = pivot
        super().__init__(message or f"matrix is not positive definite (pivot {pivot})")


class EigensolveError(MixedStabError):
    """The inertia slicer failed or received bad input: a refused or
    non-monotone inertia count, or a Lanczos run the counts do not
    certify."""


class NumericalError(MixedStabError):
    """A numerical post-condition (residual, spectrum range, ...) failed."""


class SpuriousModeError(NumericalError):
    """Pressure system is singular because spurious modes are present."""
