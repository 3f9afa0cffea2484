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

with c*_(-M) the creator of the bottom window slot.  The only bookkeeping
is a +-1 gauge sign per state: the bitmask state with ascending set slots
s1 < ... < sk is d*_s1 ... d*_sk |sea>, where d* = c on a minus slot and
d* = c* on a plus slot, and reordering that product into the ascending raw
wedge gives the sign (-1)^(sum of hole slots + M * particles).

Every function takes occupation bitmasks of one charge per argument and
never enumerates the 2^(2M+1) basis, so the cost is set by the probe
counts and the minor size q + M, not by the Fock dimension.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from .errors import NotHermitian, ResourceLimit
from .modes import ModeWindow

# int64 occupation masks, sign bit kept clear
_MASK_BITS = 62


def gauge_signs(masks: np.ndarray, window: ModeWindow) -> np.ndarray:
    """+-1 per state relating its bitmask vector to its ascending raw wedge."""
    masks = np.asarray(masks, dtype=np.int64)
    minus_bits = np.int64((1 << window.n_minus) - 1)
    holes = masks & minus_bits
    hole_slot_sum = np.zeros(masks.shape, dtype=np.int64)
    for j in range(window.n_minus):
        hole_slot_sum += ((holes >> j) & 1) * j
    particles = np.bitwise_count(masks & ~minus_bits).astype(np.int64)
    parity = (hole_slot_sum + window.n_minus * particles) & 1
    return 1.0 - 2.0 * parity


def require_mask_window(window: ModeWindow) -> None:
    """Raise when the window's slots do not fit an int64 occupation mask."""
    if window.size > _MASK_BITS:
        raise ResourceLimit(
            f"occupation bitmasks hold {_MASK_BITS} slots; M={window.cutoff} needs {window.size}"
        )


def raw_slots(masks: np.ndarray, window: ModeWindow) -> np.ndarray:
    """Ascending raw occupied slots, one row per state; all of one charge."""
    require_mask_window(window)
    masks = np.asarray(masks, dtype=np.int64)
    raw = masks ^ np.int64((1 << window.n_minus) - 1)
    bits = (raw[:, None] >> np.arange(window.size, dtype=np.int64)) & 1
    counts = bits.sum(axis=1)
    if np.any(counts != counts[0]):
        raise ValueError("raw slot lists need states of one charge")
    return np.nonzero(bits)[1].reshape(masks.size, int(counts[0]))


def wedge_elements(
    matrix: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    window: ModeWindow,
    creations: int = 0,
) -> np.ndarray:
    """<row| c*_0 ... c*_(p-1) Lambda(matrix) |col> in the bitmask basis.

    The p = ``creations`` creators of the bottom slots ride along as unit
    columns in front of the matrix, so every element is one square minor
    of size (raw slots of a row state); row states must carry p more charge
    than column states.  All minors go through one batched determinant.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    r_slots = raw_slots(rows, window)
    c_slots = raw_slots(cols, window)
    if r_slots.shape[1] != c_slots.shape[1] + creations:
        raise ValueError("row and column charges differ by other than the creation count")
    padded = np.concatenate(
        [np.eye(window.size, creations, dtype=complex), np.asarray(matrix, dtype=complex)],
        axis=1,
    )
    lead = np.broadcast_to(np.arange(creations), (cols.size, creations))
    c_index = np.concatenate([lead, c_slots + creations], axis=1)
    minors = padded[r_slots[:, None, :, None], c_index[None, :, None, :]]
    signs = gauge_signs(rows, window)[:, None] * gauge_signs(cols, window)[None, :]
    return signs * np.linalg.det(minors)


def dressing_unitary(
    matrix: np.ndarray, t: float, window: ModeWindow
) -> tuple[complex, np.ndarray]:
    """Scalar and one-particle unitary with exp(i t dG(A)) = scalar * Lambda(unitary)."""
    matrix = np.asarray(matrix, dtype=complex)
    dev = float(np.max(np.abs(matrix - matrix.conj().T)))
    if dev > 1e-10 * max(1.0, float(np.max(np.abs(matrix)))):
        raise NotHermitian(f"generator deviates from Hermitian by {dev:.3e}")
    minus_trace = np.trace(matrix[: window.n_minus, : window.n_minus])
    return complex(np.exp(-1j * t * minus_trace)), expm(1j * t * matrix)


def shift_sign(window: ModeWindow, charge: int) -> float:
    """(-1)^(M+q): the gauge of the shift implementer on the charge-q sector."""
    return -1.0 if (window.cutoff + charge) & 1 else 1.0

