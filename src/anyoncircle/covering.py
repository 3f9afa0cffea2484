"""Arithmetic on the universal covering of the unit circle.

A covering point is a real number omega, split uniquely as
``omega = base + 2*pi*winding`` with ``base`` in ``[0, 2*pi)`` and an
integer winding number.  Intervals on the covering are open and shorter
than a full turn, so their projections to the circle are arcs and the
relative winding of two disjointly projecting intervals is well defined.

Every function works elementwise on numpy arrays, and an interval may hold
an array of centres and half-widths, so a batch of pairs is one call; a
scalar input still returns a Python ``float``, ``int`` or ``bool``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OverlapError

TWO_PI = 2.0 * math.pi


def project(omega: float | np.ndarray):
    """Split a covering point into (base, winding), elementwise.

    base = omega - 2*pi*floor(omega / 2*pi) lies in [0, 2*pi); the pair
    reconstructs omega exactly up to one floating-point rounding.
    """
    omega = np.asarray(omega, dtype=float)
    # + 0.0 turns a floor of -0.0 into +0.0, so that project(-0.0) keeps
    # base -0.0 as the integer winding 0 would
    winding = np.floor(omega / TWO_PI) + 0.0
    base = omega - TWO_PI * winding
    # Guard the half-open convention against rounding at either boundary.
    wrap = base >= TWO_PI
    base = np.where(wrap, base - TWO_PI, base)
    base = np.where(base < 0.0, 0.0, base)
    winding = winding + wrap
    if omega.ndim == 0:
        return float(base), int(winding)
    return base, winding.astype(np.int64)


def winding_number(omega: float | np.ndarray):
    return project(omega)[1]


def fractional_part(omega: float | np.ndarray):
    """The base-circle representative of omega, in [0, 2*pi)."""
    return project(omega)[0]


@dataclass(frozen=True)
class CoveringPoint:
    omega: float

    @property
    def base(self) -> float:
        return project(self.omega)[0]

    @property
    def winding(self) -> int:
        return project(self.omega)[1]


@dataclass(frozen=True)
class CoveringInterval:
    """Open interval (center - half_width, center + half_width) on the covering.

    Center and half-width may be arrays of one shape: a batch of intervals.
    """

    center: CoveringPoint
    half_width: float

    def __post_init__(self) -> None:
        if not isinstance(self.center, CoveringPoint):
            center = self.center
            center = np.asarray(center, dtype=float) if np.ndim(center) else float(center)
            object.__setattr__(self, "center", CoveringPoint(center))
        if not np.all((0.0 < self.half_width) & (self.half_width < math.pi)):
            raise ValueError(
                f"half_width must lie in (0, pi), got {self.half_width!r}"
            )

    @property
    def lower(self) -> float:
        return self.center.omega - self.half_width

    @property
    def upper(self) -> float:
        return self.center.omega + self.half_width


def projections_disjoint(first: CoveringInterval, second: CoveringInterval):
    """Whether the two projected open arcs are disjoint on the circle.

    The arcs are disjoint exactly when the circular distance between the
    projected centers is at least the sum of half-widths (open endpoints,
    so touching arcs count as disjoint).
    """
    total = first.half_width + second.half_width
    d = fractional_part(first.center.omega - second.center.omega)
    disjoint = (total < TWO_PI) & (np.minimum(d, TWO_PI - d) >= total)
    return bool(disjoint) if np.ndim(disjoint) == 0 else disjoint


def relative_winding(first: CoveringInterval, second: CoveringInterval):
    """Winding number of omega1 - omega2, constant over the two intervals.

    Requires disjoint projections; otherwise the difference crosses a
    multiple of 2*pi and the winding is ambiguous.
    """
    if not np.all(projections_disjoint(first, second)):
        raise OverlapError(
            "relative winding undefined: projected arcs overlap"
        )
    return winding_number(first.center.omega - second.center.omega)
