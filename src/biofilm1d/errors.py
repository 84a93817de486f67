"""Exception and warning types shared across the package."""

from __future__ import annotations


class Biofilm1dError(Exception):
    """Base class for all package errors."""


class ConfigError(Biofilm1dError):
    """A scenario configuration failed validation or could not be parsed."""


class NoAttachment(Biofilm1dError):
    """No species attaches (total attachment flux is zero) where one is required."""


class NonConvergence(Biofilm1dError):
    """An iterative solve stopped without reaching its tolerance."""

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class SingularJacobian(Biofilm1dError):
    """A linear solve hit a vanishing pivot."""


class NumericalBlowup(Biofilm1dError):
    """A state field turned non-finite; carries the failing time."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class OutOfDomain(Biofilm1dError):
    """An interpolation or trace was requested outside the stored data."""


class DetachmentRegime(Biofilm1dError):
    """The characteristics oracle was asked to run outside the attachment regime."""


class UnknownPreset(Biofilm1dError):
    """Unrecognized scenario preset identifier."""


class IoFailure(Biofilm1dError):
    """A filesystem write failed; carries the offending path."""

    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path


class BoundaryLayerResolutionWarning(UserWarning):
    """The grid is too coarse to resolve a planktonic reaction boundary layer."""
