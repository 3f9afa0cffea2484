"""Schwinger term of multiplication operators, by three independent routes.

For real multipliers alpha, beta the central term is

    S(alpha, beta) = i Tr(A_-+ B_+- - B_-+ A_+-)
                   = (1/2 pi) integral alpha * beta'
                   = (1/4 pi) integral (alpha * beta' - alpha' * beta)

and for two rotated blips with disjoint dressing intervals it collapses to
the closed form base(omega1 - omega2) - pi.
"""

from __future__ import annotations

import math

import numpy as np

from .covering import TWO_PI, fractional_part
from .errors import SeparationViolation, WindowMismatch
from .modes import OneParticleOperator, PeriodicFunction


def schwinger_trace(a: OneParticleOperator, b: OneParticleOperator) -> complex:
    """i Tr(A_-+ B_+- - B_-+ A_+-) on the shared mode window."""
    if a.window != b.window:
        raise WindowMismatch("Schwinger trace requires a shared mode window")
    t1 = np.trace(a.minus_plus @ b.plus_minus)
    t2 = np.trace(b.minus_plus @ a.plus_minus)
    return complex(1j * (t1 - t2))


def schwinger_quadrature(alpha: PeriodicFunction, beta: PeriodicFunction) -> complex:
    """(1/2 pi) * integral alpha * beta' via the trapezoid rule on the grid.

    The grid sums the product exactly for band-limited integrands, so for
    smooth profiles this is the spectral-accuracy reference route.
    """
    if alpha.grid_size != beta.grid_size:
        raise WindowMismatch("quadrature requires a shared sampling grid")
    dbeta = beta.derivative()
    g = alpha.grid_size
    return complex(np.sum(alpha.samples * dbeta.samples) * (TWO_PI / g) / TWO_PI)


def schwinger_blip_closed_form(
    omega1: float, omega2: float, eps1: float, eps2: float
) -> float:
    """base(omega1 - omega2) - pi, valid when the dressing arcs are separated.

    Validity: eps1 + eps2 < base(omega1 - omega2) < 2*pi - (eps1 + eps2).
    """
    d = fractional_part(omega1 - omega2)
    if not eps1 + eps2 < d < TWO_PI - (eps1 + eps2):
        raise SeparationViolation(
            f"base separation {d:.6f} violates ({eps1 + eps2:.6f}, "
            f"{TWO_PI - eps1 - eps2:.6f})"
        )
    return d - math.pi
