"""Exception types shared across the package."""

from __future__ import annotations


class FracperimError(Exception):
    """Base class for every error raised by this package."""


class DomainTooSmallError(FracperimError):
    """A shape or operation does not fit inside the grid domain."""


class GridMismatchError(FracperimError):
    """Two grid objects with incompatible geometry were combined."""


class EmptySetError(FracperimError):
    """An operation that needs a nonempty set received an empty one."""


class MarginError(FracperimError):
    """A complement-box margin is too small for the requested accuracy."""


class MissingHaloError(FracperimError):
    """A finite-difference stencil reaches outside the grid."""


class CalibrationError(FracperimError):
    """An energy calibration failed its cross-validation gate."""


class SymmetryDefectError(FracperimError):
    """Input violates a symmetry precondition beyond the allowed slack.

    Carries the offending cell indices so callers can inspect the defect.
    """

    def __init__(self, message: str, defect_cells=None):
        super().__init__(message)
        self.defect_cells = [] if defect_cells is None else list(defect_cells)


class DegenerateFitError(FracperimError):
    """A study has fewer members than each of its fits needs."""


class FormatError(FracperimError):
    """A text file does not conform to its declared format."""
