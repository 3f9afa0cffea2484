"""Arithmetic on the universal covering of the unit circle.

A covering point is a real number omega, split uniquely as
``omega = base + 2*pi*winding`` with ``base`` in ``[0, 2*pi)`` and an
integer winding number.  Intervals on the covering are open and shorter
than a full turn, so their projections to the circle are arcs and the
relative winding of two disjointly projecting intervals is well defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OverlapError

TWO_PI = 2.0 * math.pi


def project(omega: float) -> tuple[float, int]:
    """Split a covering point into (base, winding).

    base = omega - 2*pi*floor(omega / 2*pi) lies in [0, 2*pi); the pair
    reconstructs omega exactly up to one floating-point rounding.
    """
    winding = math.floor(omega / TWO_PI)
    base = omega - TWO_PI * winding
    # Guard the half-open convention against rounding at either boundary.
    if base >= TWO_PI:
        base -= TWO_PI
        winding += 1
    if base < 0.0:
        base = 0.0
    return base, winding


def winding_number(omega: float) -> int:
    return project(omega)[1]


def fractional_part(omega: float) -> float:
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
    """Open interval (center - half_width, center + half_width) on the covering."""

    center: CoveringPoint
    half_width: float

    def __post_init__(self) -> None:
        if not isinstance(self.center, CoveringPoint):
            object.__setattr__(self, "center", CoveringPoint(float(self.center)))
        if not 0.0 < self.half_width < math.pi:
            raise ValueError(
                f"half_width must lie in (0, pi), got {self.half_width!r}"
            )

    @property
    def lower(self) -> float:
        return self.center.omega - self.half_width

    @property
    def upper(self) -> float:
        return self.center.omega + self.half_width


def projections_disjoint(first: CoveringInterval, second: CoveringInterval) -> bool:
    """Whether the two projected open arcs are disjoint on the circle.

    The arcs are disjoint exactly when the circular distance between the
    projected centers is at least the sum of half-widths (open endpoints,
    so touching arcs count as disjoint).
    """
    total = first.half_width + second.half_width
    if total >= TWO_PI:
        return False
    d = fractional_part(first.center.omega - second.center.omega)
    return min(d, TWO_PI - d) >= total


def relative_winding(first: CoveringInterval, second: CoveringInterval) -> int:
    """Winding number of omega1 - omega2, constant over the two intervals.

    Requires disjoint projections; otherwise the difference crosses a
    multiple of 2*pi and the winding is ambiguous.
    """
    if not projections_disjoint(first, second):
        raise OverlapError(
            "relative winding undefined: projected arcs overlap"
        )
    return winding_number(first.center.omega - second.center.omega)
