"""Fock matrix elements of one-particle maps as minor determinants.

Inside the window the Fock space is the exterior algebra over C^(2M+1).
Read a basis state through its *raw* occupied set: its particle slots plus
the minus slots that hold no hole, so the vacuum is the filled sea of minus
slots.  A charge-q state has exactly q + M raw slots.  The second
quantization of a one-particle map V is then its exterior power Lambda(V),
whose element between raw sets R' and R is the minor det V[R', R] (the
Loewdin overlap).  Two identities turn the dressings and the shift
implementer of the field into such minors:

    exp(i t dG(A)) = exp(-i t tr A--) Lambda(exp(i t A)),
    G = (-1)^(M+q) c*_(-M) Lambda(V)   on the charge-q sector,

with c*_(-M) the creator of the bottom window slot.  A state is carried as
what the minors index, its ascending raw slots, and the only bookkeeping is
a +-1 gauge sign per state: the state with ascending occupied slots
s1 < ... < sk is d*_s1 ... d*_sk |sea>, where d* = c on a minus slot and
d* = c* on a plus slot, and reordering that product into the ascending raw
wedge gives (-1)^(sum of hole slots + M * particles); the hole slots sum to
M(M-1)/2 minus the raw minus slots.

Every function takes raw-slot arrays of one charge, one row per state, and
never enumerates the 2^(2M+1) basis, so the cost is set by the probe counts
and the minor size q + M, not by the Fock dimension.
"""

from __future__ import annotations

import numpy as np

from .errors import NotHermitian, ResourceLimit
from .modes import ARRAY_BUDGET_BYTES, ModeWindow


def gauge_signs(slots: np.ndarray, window: ModeWindow) -> np.ndarray:
    """+-1 per state relating its occupation vector to its ascending raw wedge."""
    m = window.n_minus
    sea = np.where(slots < m, slots, 0).sum(axis=1)
    particles = np.count_nonzero(slots >= m, axis=1)
    parity = (m * (m - 1) // 2 - sea + m * particles) & 1
    return 1.0 - 2.0 * parity


def require_minor_budget(window: ModeWindow, pairs: int, order: int) -> None:
    """Raise if the largest complex array of a minor computation, the stack
    of ``pairs`` minors of the given order or a one-particle matrix of the
    window, would pass the budget."""
    window.require_matrix_budget()
    need = 16 * pairs * order * order
    if need > ARRAY_BUDGET_BYTES:
        raise ResourceLimit(
            f"minors at M={window.cutoff} need a {need / 2**20:.0f} MiB array; "
            f"the budget is {ARRAY_BUDGET_BYTES >> 20} MiB"
        )


def wedge_elements(
    matrix: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    window: ModeWindow,
    creations: int = 0,
) -> np.ndarray:
    """<row| c*_0 ... c*_(p-1) Lambda(matrix) |col> between raw-slot states.

    The p = ``creations`` creators of the bottom slots ride along as unit
    columns in front of the matrix, so every element is one square minor
    of size (raw slots of a row state); row states must carry p more charge
    than column states.  All minors go through one batched determinant.
    """
    if rows.shape[1] != cols.shape[1] + creations:
        raise ValueError("row and column charges differ by other than the creation count")
    require_minor_budget(window, rows.shape[0] * cols.shape[0], rows.shape[1])
    padded = np.concatenate(
        [np.eye(window.size, creations, dtype=complex), np.asarray(matrix, dtype=complex)],
        axis=1,
    )
    lead = np.broadcast_to(np.arange(creations), (cols.shape[0], creations))
    c_index = np.concatenate([lead, cols + creations], axis=1)
    minors = padded[rows[:, None, :, None], c_index[None, :, None, :]]
    signs = gauge_signs(rows, window)[:, None] * gauge_signs(cols, window)[None, :]
    return signs * np.linalg.det(minors)


def hermitian_exp(matrix: np.ndarray, t: float) -> np.ndarray:
    """exp(i t H) for the Hermitian part H = (matrix + matrix*)/2, from the
    eigendecomposition H = V diag(lambda) V*.

    V diag(exp(i t lambda)) V* is written as I + V diag(expm1(i t lambda)) V*,
    so that t = 0, the spin-1/2 coupling, gives the identity exactly.
    """
    eigenvalues, vectors = np.linalg.eigh(0.5 * (matrix + matrix.conj().T))
    correction = (vectors * np.expm1(1j * t * eigenvalues)) @ vectors.conj().T
    return np.eye(len(eigenvalues), dtype=complex) + correction


def dressing_unitary(
    matrix: np.ndarray, t: float, window: ModeWindow
) -> tuple[complex, np.ndarray]:
    """Scalar and one-particle unitary with exp(i t dG(A)) = scalar * Lambda(unitary)."""
    matrix = np.asarray(matrix, dtype=complex)
    dev = float(np.max(np.abs(matrix - matrix.conj().T)))
    if dev > 1e-10 * max(1.0, float(np.max(np.abs(matrix)))):
        raise NotHermitian(f"generator deviates from Hermitian by {dev:.3e}")
    minus_trace = np.trace(matrix[: window.n_minus, : window.n_minus])
    return complex(np.exp(-1j * t * minus_trace)), hermitian_exp(matrix, t)


def shift_sign(window: ModeWindow, charge: int) -> float:
    """(-1)^(M+q): the gauge of the shift implementer on the charge-q sector."""
    return -1.0 if (window.cutoff + charge) & 1 else 1.0

