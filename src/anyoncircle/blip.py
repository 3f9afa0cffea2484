"""Mollified sawtooth profiles ("blips") used to dress localized fields.

The profile is the periodic sawtooth smoothed by a compactly supported
mollifier of width eps < pi/2:

    alpha_eps(x) = integral over y of saw(x - y) * chi_eps(y)

with saw(u) = u mod 2*pi.  For x in [0, 2*pi) this reduces to the closed
form

    alpha_eps(x) = x + 2*pi * (T(x) - T(2*pi - x)),   T(u) = integral_u^eps chi_eps

so only tail integrals of the mollifier are ever needed.  The profile is
smooth, takes values in (0, 2*pi), equals x on (eps, 2*pi - eps), has mean
pi, and its derivative is 1 - 2*pi * (periodized chi_eps).

Each tail integral is one fixed 96-node Gauss-Legendre rule mapped onto
[a, eps].  The bump is C-infinity and flat at +-eps, so the rule converges
faster than any power of the node count; against a 30-digit reference it
is within 5e-15 for eps in [0.3, 0.7].  All points of a call are evaluated
as array operations, a block of rows at a time.  The bump's normalising
constant does not depend on eps; it is computed once, at import, by four
192-node Gauss-Legendre panels on [-1, 1], which land on the double nearest
a 40-digit reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .covering import TWO_PI
from .errors import EpsilonOutOfRange
from .modes import ModeWindow, PeriodicFunction, analyze

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(96)
# interior points per block: bounds each temporary at 96 * 1024 doubles
# (0.75 MB) whatever the grid size
_TAIL_BLOCK = 1024


def _bump_mass() -> float:
    """Integral of exp(-1 / (1 - t^2)) over (-1, 1), four Gauss-Legendre panels."""
    nodes, weights = np.polynomial.legendre.leggauss(192)
    half = 0.25
    t = np.linspace(-0.75, 0.75, 4)[:, None] + half * nodes
    return float(half * np.sum(np.exp(-1.0 / (1.0 - t * t)) @ weights))


_BUMP_MASS = _bump_mass()


@dataclass(frozen=True)
class Mollifier:
    """Even, nonnegative, unit-mass bump supported on (-eps, eps)."""

    epsilon: float
    profile: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        return self.profile(np.asarray(x, dtype=float))

    def tail_integral(self, a: np.ndarray | float) -> np.ndarray | float:
        """T(a) = integral_a^eps chi, clamped: 1 for a <= -eps, 0 for a >= eps."""
        arr = np.atleast_1d(np.asarray(a, dtype=float)).ravel()
        eps = self.epsilon
        out = np.where(arr <= -eps, 1.0, 0.0)
        interior = np.flatnonzero((arr > -eps) & (arr < eps))
        for start in range(0, interior.size, _TAIL_BLOCK):
            rows = interior[start:start + _TAIL_BLOCK]
            half = 0.5 * (eps - arr[rows])
            nodes = (eps - half)[:, None] + half[:, None] * _GL_NODES
            values = np.asarray(self.profile(nodes.ravel())).reshape(nodes.shape)
            out[rows] = half * (values @ _GL_WEIGHTS)
        return out.reshape(np.shape(a)) if np.ndim(a) else float(out[0])


def standard_mollifier(epsilon: float) -> Mollifier:
    """The bump c * exp(-1 / (1 - (x/eps)^2)) on (-eps, eps), unit mass."""
    if not 0.0 < epsilon < math.pi / 2:
        raise EpsilonOutOfRange(f"epsilon must lie in (0, pi/2), got {epsilon!r}")
    def profile(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        t = x / epsilon
        out = np.zeros_like(t)
        inside = np.abs(t) < 1.0
        ti = t[inside]
        out[inside] = np.exp(-1.0 / (1.0 - ti * ti)) / (_BUMP_MASS * epsilon)
        return out

    return Mollifier(epsilon, profile)


class BlipFunction:
    """The mollified sawtooth, evaluable exactly at arbitrary points.

    Also carries a PeriodicFunction representation (grid samples plus
    Fourier coefficients) suitable for building multiplication operators.
    """

    def __init__(self, mollifier: Mollifier, periodic: PeriodicFunction):
        self.mollifier = mollifier
        self.periodic = periodic

    @property
    def epsilon(self) -> float:
        return self.mollifier.epsilon

    def evaluate(self, x: np.ndarray | float) -> np.ndarray | float:
        vals = _closed_form(self.mollifier, np.atleast_1d(np.asarray(x, dtype=float)))
        return vals if np.ndim(x) else float(vals[0])


def blip(
    mollifier: Mollifier,
    window: ModeWindow,
    grid_size: int | None = None,
) -> BlipFunction:
    """Analyze the mollified sawtooth on a grid adapted to the window."""
    periodic = analyze(
        lambda xs: _closed_form(mollifier, xs), window, grid_size=grid_size
    )
    return BlipFunction(mollifier, periodic)


def _closed_form(chi: Mollifier, xs: np.ndarray) -> np.ndarray:
    base = np.mod(xs, TWO_PI)
    return base + TWO_PI * (
        np.asarray(chi.tail_integral(base)) - np.asarray(chi.tail_integral(TWO_PI - base))
    )


def blip_derivative(b: BlipFunction) -> PeriodicFunction:
    """Closed-form derivative 1 - 2*pi * sum_k chi(x - 2*pi*k), analyzed on the blip's grid."""

    def deriv(xs: np.ndarray) -> np.ndarray:
        base = np.mod(xs, TWO_PI)
        # chi is supported in (-eps, eps) with eps < pi/2, so on [0, 2*pi)
        # only the copies at 0 and 2*pi contribute.
        return 1.0 - TWO_PI * (
            np.asarray(b.mollifier(base)) + np.asarray(b.mollifier(base - TWO_PI))
        )

    n_max = b.periodic.n_max
    window = ModeWindow((n_max - 1) // 2)
    return analyze(deriv, window, grid_size=b.periodic.grid_size)
