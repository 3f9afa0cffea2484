"""Exception hierarchy shared across the package."""

from __future__ import annotations


class AnyonCircleError(Exception):
    """Base class for all package-specific failures."""


class OverlapError(AnyonCircleError):
    """Projected intervals overlap where disjointness is required."""


class GridTooCoarse(AnyonCircleError):
    """Sampling grid cannot resolve the requested Fourier content."""


class WindowMismatch(AnyonCircleError):
    """Operators built on different mode windows were combined."""


class EpsilonOutOfRange(AnyonCircleError):
    """Mollifier width outside the open interval (0, pi/2)."""


class SeparationViolation(AnyonCircleError):
    """Closed-form Schwinger value requested outside its validity region."""


class NotDiagonal(AnyonCircleError):
    """A diagonal one-particle operator was required."""


class NotHermitian(AnyonCircleError):
    """A Hermitian one-particle operator was required."""


class WrongClass(AnyonCircleError):
    """Operator is not in the implementable charge-shift class."""


class PseudoInverseFailure(AnyonCircleError):
    """Block pseudo-inverse is unreliable at the working threshold."""


class NoSignificantEntries(AnyonCircleError):
    """No probe matrix element passed the significance floor."""


class ResourceLimit(AnyonCircleError, ValueError):
    """Requested size exceeds what a construction supports; raised before allocating."""


class SectorEmpty(AnyonCircleError):
    """Requested charge sector contains no states."""


class WindowTooSmall(AnyonCircleError):
    """Mode window or analysis grid cannot support the requested field."""


class DegenerateGeometry(AnyonCircleError):
    """Cone or polygon data is degenerate (empty hull, zero opening)."""
