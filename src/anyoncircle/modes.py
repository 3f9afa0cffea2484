"""Fourier modes, mode windows and one-particle operators.

Conventions: basis functions e_n(x) = exp(i n x) / sqrt(2 pi) on [0, 2 pi),
coefficients f_n = (2 pi)^(-1/2) * integral of f(x) exp(-i n x).  A symmetric
window keeps modes -M..M; the zero mode belongs to the plus block, so the
plus block has M+1 modes and the minus block has M.  Multiplication by g has
matrix A[m, n] = g_(m-n) / sqrt(2 pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import toeplitz

from .covering import TWO_PI
from .errors import GridTooCoarse, ResourceLimit, WindowMismatch

SQRT_TWO_PI = math.sqrt(TWO_PI)
# bytes of the largest array one construction may build
ARRAY_BUDGET_BYTES = 1 << 27


@dataclass(frozen=True)
class ModeWindow:
    """Symmetric mode window {-M, ..., M}."""

    cutoff: int

    def __post_init__(self) -> None:
        if self.cutoff < 1:
            raise ValueError("window cutoff must be >= 1")

    @property
    def size(self) -> int:
        return 2 * self.cutoff + 1

    @property
    def n_minus(self) -> int:
        return self.cutoff

    @property
    def n_plus(self) -> int:
        return self.cutoff + 1

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.cutoff, self.cutoff + 1)

    def slot(self, mode: int) -> int:
        """Row/column index of a mode; minus modes come first."""
        if not -self.cutoff <= mode <= self.cutoff:
            raise ValueError(f"mode {mode} outside window {self}")
        return mode + self.cutoff

    def default_grid(self) -> int:
        return 8 * (self.cutoff + 1)

    def require_grid(self, grid_size: int) -> None:
        """Raise unless the grid resolves every coefficient the window needs
        without aliasing: G >= 4M + 4."""
        if grid_size < 4 * self.cutoff + 4:
            raise GridTooCoarse(
                f"grid {grid_size} < 4M+4 = {4 * self.cutoff + 4} for M={self.cutoff}"
            )

    def require_matrix_budget(self) -> None:
        """Raise ``ResourceLimit`` when a one-particle matrix of the window,
        (2M+1)^2 complex entries, would pass the byte budget."""
        need = 16 * self.size**2
        if need > ARRAY_BUDGET_BYTES:
            raise ResourceLimit(
                f"a one-particle matrix at M={self.cutoff} needs {need / 2**20:.1f} MiB; "
                f"the budget is {ARRAY_BUDGET_BYTES >> 20} MiB"
            )


def grid_points(grid_size: int) -> np.ndarray:
    return TWO_PI * np.arange(grid_size) / grid_size


class PeriodicFunction:
    """A 2*pi-periodic function held as grid samples plus centered coefficients.

    Coefficients are stored for |n| <= n_max, indexed so that
    ``coeff[n_max + n]`` is the coefficient of exp(i n x)/sqrt(2 pi).
    """

    def __init__(self, samples: np.ndarray, coefficients: np.ndarray, n_max: int):
        samples = np.asarray(samples, dtype=complex)
        coefficients = np.asarray(coefficients, dtype=complex)
        if coefficients.shape != (2 * n_max + 1,):
            raise ValueError("coefficient array must have length 2*n_max + 1")
        self.samples = samples
        self.coefficients = coefficients
        self.n_max = n_max

    @property
    def grid_size(self) -> int:
        return self.samples.size

    def coefficient(self, n: int) -> complex:
        if abs(n) > self.n_max:
            raise ValueError(f"coefficient {n} not retained (n_max={self.n_max})")
        return complex(self.coefficients[self.n_max + n])

    def mean(self) -> complex:
        return self.coefficient(0) / SQRT_TWO_PI

    def evaluate(self, x: np.ndarray | float) -> np.ndarray | complex:
        """Evaluate the retained-mode truncation at arbitrary points."""
        x = np.asarray(x, dtype=float)
        ns = np.arange(-self.n_max, self.n_max + 1)
        values = np.exp(1j * np.outer(x, ns)) @ self.coefficients / SQRT_TWO_PI
        return values if values.ndim else complex(values)

    def _grid_frequencies(self) -> np.ndarray:
        g = self.grid_size
        return np.fft.fftfreq(g, d=1.0 / g)

    def derivative(self) -> "PeriodicFunction":
        """Spectral derivative on the full grid spectrum (coefficient n -> i n)."""
        freqs = self._grid_frequencies()
        dspec = np.fft.fft(self.samples) * (1j * freqs)
        if self.grid_size % 2 == 0:
            dspec[self.grid_size // 2] = 0.0  # ambiguous Nyquist mode
        samples = np.fft.ifft(dspec)
        ns = np.arange(-self.n_max, self.n_max + 1)
        return PeriodicFunction(samples, self.coefficients * (1j * ns), self.n_max)

    def shifted(self, delta: float) -> "PeriodicFunction":
        """The rotated function x -> f(x - delta), shifted in the full spectrum."""
        freqs = self._grid_frequencies()
        spec = np.fft.fft(self.samples) * np.exp(-1j * freqs * delta)
        samples = np.fft.ifft(spec)
        ns = np.arange(-self.n_max, self.n_max + 1)
        coeffs = self.coefficients * np.exp(-1j * ns * delta)
        return PeriodicFunction(samples, coeffs, self.n_max)


def analyze(
    f: Callable[[np.ndarray], np.ndarray] | Sequence[complex] | np.ndarray,
    window: ModeWindow,
    grid_size: int | None = None,
) -> PeriodicFunction:
    """Sample a periodic function and extract coefficients for |n| <= 2M + 1.

    Accepts either a callable evaluated on the uniform grid or an array of
    samples already on that grid.  The grid must satisfy G >= 4M + 4 so the
    retained coefficients are alias-free for smooth inputs.
    """
    n_max = 2 * window.cutoff + 1
    if grid_size is None:
        grid_size = max(window.default_grid(), 2 * n_max + 2)
    window.require_grid(grid_size)
    if callable(f):
        samples = np.asarray(f(grid_points(grid_size)), dtype=complex)
    else:
        samples = np.asarray(f, dtype=complex)
        if samples.ndim != 1:
            raise ValueError("sample input must be one-dimensional")
        grid_size = samples.size
        window.require_grid(grid_size)
    spectrum = np.fft.fft(samples) * (SQRT_TWO_PI / grid_size)
    coeffs = np.empty(2 * n_max + 1, dtype=complex)
    for n in range(-n_max, n_max + 1):
        coeffs[n_max + n] = spectrum[n % grid_size]
    return PeriodicFunction(samples, coeffs, n_max)


def from_coefficients(
    coefficients: dict[int, complex] | np.ndarray, n_max: int
) -> PeriodicFunction:
    """Build a PeriodicFunction from exact coefficients.

    Used when grid sampling is not spectrally faithful (e.g. jump
    discontinuities); the sample array is the retained-mode synthesis.
    """
    coeffs = np.zeros(2 * n_max + 1, dtype=complex)
    if isinstance(coefficients, dict):
        for n, c in coefficients.items():
            if abs(n) > n_max:
                raise ValueError(f"coefficient index {n} beyond n_max={n_max}")
            coeffs[n_max + n] = c
    else:
        arr = np.asarray(coefficients, dtype=complex)
        if arr.shape != (2 * n_max + 1,):
            raise ValueError("coefficient array must have length 2*n_max+1")
        coeffs = arr
    xs = grid_points(max(4 * n_max + 4, 16))
    ns = np.arange(-n_max, n_max + 1)
    samples = np.exp(1j * np.outer(xs, ns)) @ coeffs / SQRT_TWO_PI
    return PeriodicFunction(samples, coeffs, n_max)


def sawtooth_coefficients(n_max: int) -> PeriodicFunction:
    """Exact coefficients of the sawtooth x -> x on [0, 2 pi).

    c_0 = sqrt(2 pi) * pi and c_n = i sqrt(2 pi) / n for n != 0.  The jump at
    0 makes grid analysis unreliable, hence the closed form.
    """
    coeffs: dict[int, complex] = {0: SQRT_TWO_PI * math.pi}
    for n in range(1, n_max + 1):
        coeffs[n] = 1j * SQRT_TWO_PI / n
        coeffs[-n] = -1j * SQRT_TWO_PI / n
    return from_coefficients(coeffs, n_max)


@dataclass
class OneParticleOperator:
    """A dense operator on the windowed mode space, indexed by slots."""

    window: ModeWindow
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (self.window.size, self.window.size):
            raise WindowMismatch(
                f"matrix shape {self.matrix.shape} does not fit window M={self.window.cutoff}"
            )

    # Block views; the minus block occupies the leading M slots.
    @property
    def minus_minus(self) -> np.ndarray:
        m = self.window.n_minus
        return self.matrix[:m, :m]

    @property
    def minus_plus(self) -> np.ndarray:
        m = self.window.n_minus
        return self.matrix[:m, m:]

    @property
    def plus_minus(self) -> np.ndarray:
        m = self.window.n_minus
        return self.matrix[m:, :m]

    @property
    def plus_plus(self) -> np.ndarray:
        m = self.window.n_minus
        return self.matrix[m:, m:]

    def dagger(self) -> "OneParticleOperator":
        return OneParticleOperator(self.window, self.matrix.conj().T)

    def __matmul__(self, other: "OneParticleOperator") -> "OneParticleOperator":
        if self.window != other.window:
            raise WindowMismatch("cannot compose operators on different windows")
        return OneParticleOperator(self.window, self.matrix @ other.matrix)


def multiplication_operator(f: PeriodicFunction, window: ModeWindow) -> OneParticleOperator:
    """Matrix of multiplication by f: A[m, n] = f_(m - n) / sqrt(2 pi)."""
    need = 2 * window.cutoff
    if f.n_max < need:
        raise WindowMismatch(
            f"need coefficients up to |n|={need}, function retains {f.n_max}"
        )
    window.require_matrix_budget()
    k0 = f.n_max
    first_col = f.coefficients[k0 : k0 + window.size] / SQRT_TWO_PI
    first_row = f.coefficients[k0 - window.size + 1 : k0 + 1][::-1] / SQRT_TWO_PI
    return OneParticleOperator(window, toeplitz(first_col, first_row))


def shift_operator(window: ModeWindow) -> OneParticleOperator:
    """Multiplication by exp(i x): e_n -> e_(n+1), the top mode truncated to 0.

    Raw truncation (no wrap-around) keeps the charge-shift structure: the
    minus-minus block annihilates e_(-1) while its adjoint only loses mass
    at the artificial window edge.
    """
    return OneParticleOperator(window, np.eye(window.size, k=-1, dtype=complex))


def hs_offdiag_norm_sq(op: OneParticleOperator) -> float:
    """Sum of squared Hilbert-Schmidt norms of the off-diagonal blocks.

    Tr(A_-+ A_+-^) + Tr(A_+- A_-+^) restricted to the window; finite in the
    infinite-window limit exactly when the one-particle operator is
    implementable on the Fock space (the off-diagonal blocks must be
    Hilbert-Schmidt).
    """
    a_pm = op.plus_minus
    a_mp = op.minus_plus
    return float(np.sum(np.abs(a_pm) ** 2) + np.sum(np.abs(a_mp) ** 2))
