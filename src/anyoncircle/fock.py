"""Truncated antisymmetric Fock space over a symmetric mode window.

Basis states are occupation bitmasks over the 2M+1 window modes, slot
j = mode + M, minus modes first.  A set bit on a plus slot is a particle
(created by a*), on a minus slot an antiparticle (created by b*); the
all-zero mask is the vacuum.  Jordan-Wigner signs come from occupation
parities below the acted slot, so the canonical anticommutation relations
hold with all a's anticommuting with all b's.

The charge operator is Q = sum_(n>=0) a*_n a_n - sum_(n<0) b*_n b_n.

Operators are matrix-free: a ``FockOperator`` is a linear map on column
blocks of shape (dim, k) together with its adjoint, and products, sums and
scalar multiples compose the maps.  Ladders, diagonals and the shift
implementer are gathers of indices and amplitudes, so no dim x dim array is
formed except by ``to_dense``, which is for tests on small windows.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    NoSignificantEntries,
    NotDiagonal,
    NotHermitian,
    PseudoInverseFailure,
    ResourceLimit,
    SectorEmpty,
    WindowTooSmall,
    WrongClass,
)
from .exterior import hermitian_exp, require_minor_budget
from .modes import ModeWindow, OneParticleOperator

_DENSE_DIM_LIMIT = 2048
# relative tolerances of the structure checks on one-particle input
_DIAGONAL_TOL = 1e-12
_HERMITIAN_TOL = 1e-10
_SHIFT_TOL = 1e-12
_KERNEL_TOL = 1e-10
# relative singular-value cut of the block pseudo-inverses
_PINV_THRESHOLD = 1e-8
# columns per block when an operator is applied: small blocks keep every
# temporary of a composed map small
_BLOCK_COLUMNS = 16


def _popcount(arr: np.ndarray) -> np.ndarray:
    return np.bitwise_count(arr).astype(np.int64)


def _jw_signs(masks: np.ndarray, slot) -> np.ndarray:
    """Jordan-Wigner sign of a ladder on ``slot``: the parity of the
    occupied slots below it."""
    return 1.0 - 2.0 * (_popcount(masks & ((np.int64(1) << slot) - 1)) & 1)


def rotation_weights(slots: np.ndarray, window: ModeWindow) -> np.ndarray:
    """theta per raw-slot state, the sum of |mode| over particles and holes;
    the free rotation acts on a state as exp(-i omega theta).  Each raw slot
    s adds s - M, and the filled sea alone would give -M(M+1)/2."""
    m = window.n_minus
    return slots.sum(axis=1) - m * slots.shape[1] + m * (m + 1) // 2


class FockBasis:
    """Occupation-bitmask basis; the basis index of a state is its mask.

    The one dense limit: dimension 2048 (M <= 5), checked before allocating.
    """

    def __init__(self, window: ModeWindow):
        dim = 1 << window.size
        if dim > _DENSE_DIM_LIMIT:
            raise ResourceLimit(
                f"the dense Fock basis is limited to dimension {_DENSE_DIM_LIMIT}; "
                f"M={window.cutoff} has dimension {dim}"
            )
        self.window = window
        self.dim = dim
        self.minus_bits = (1 << window.n_minus) - 1
        self.plus_bits = ((1 << window.size) - 1) ^ self.minus_bits
        masks = np.arange(self.dim, dtype=np.int64)
        self.charges = (
            _popcount(masks & self.plus_bits) - _popcount(masks & self.minus_bits)
        ).astype(np.int8)
        self.theta = np.zeros(dim, dtype=np.int64)
        for q in self.sector_charges():
            sector = self.sector_masks(q)
            self.theta[sector] = rotation_weights(self.raw_slots(sector), window)

    def sector_charges(self) -> range:
        """Every charge with a state: -M (all holes) to M + 1 (all particles)."""
        return range(-self.window.n_minus, self.window.n_plus + 1)

    def slot(self, mode: int) -> int:
        return self.window.slot(mode)

    def mask_of(self, plus_modes: Iterable[int] = (), minus_modes: Iterable[int] = ()) -> int:
        """Mask of the state with the given particle and antiparticle modes."""
        mask = 0
        for n in plus_modes:
            if n < 0:
                raise ValueError("particle modes must be >= 0")
            mask |= 1 << self.slot(n)
        for n in minus_modes:
            if n >= 0:
                raise ValueError("antiparticle modes must be < 0")
            mask |= 1 << self.slot(n)
        return mask

    def raw_slots(self, masks: np.ndarray) -> np.ndarray:
        """Raw-slot rows (see ``exterior``) of states of one charge: the one
        conversion from masks to the states of the minor route."""
        raw = np.asarray(masks, dtype=np.int64) ^ self.minus_bits
        bits = (raw[:, None] >> np.arange(self.window.size)) & 1
        counts = bits.sum(axis=1)
        if np.any(counts != counts[0]):
            raise ValueError("raw slot lists need states of one charge")
        return np.nonzero(bits)[1].reshape(raw.size, int(counts[0]))

    def sector_masks(self, charge: int) -> np.ndarray:
        masks = np.nonzero(self.charges == charge)[0].astype(np.int64)
        if masks.size == 0:
            raise SectorEmpty(f"no states of charge {charge} at M={self.window.cutoff}")
        return masks

    def basis_vector(self, mask: int) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[mask] = 1.0
        return v

    def vacuum(self) -> np.ndarray:
        return self.basis_vector(0)


# the action of an operator on a column block of shape (dim, k)
BlockMap = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class FockOperator:
    """Linear operator on the truncated Fock space, held as its action on
    column blocks of shape (dim, k) and the action of its adjoint.

    An action never writes to its input and returns a new C-ordered array,
    which the sums and scalar multiples below update in place.
    """

    basis: FockBasis
    action: BlockMap
    adjoint_action: BlockMap

    # numpy scalars defer to __rmul__ instead of broadcasting over the operator
    __array_ufunc__ = None

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Image of a vector of length dim or of a (dim, k) block, computed
        _BLOCK_COLUMNS columns at a time."""
        x = np.asarray(x, dtype=complex)
        cols = x.reshape(self.basis.dim, -1)
        out = np.empty_like(cols)
        for start in range(0, cols.shape[1], _BLOCK_COLUMNS):
            block = slice(start, start + _BLOCK_COLUMNS)
            out[:, block] = self.action(cols[:, block])
        return out.reshape(x.shape)

    def dagger(self) -> "FockOperator":
        return FockOperator(self.basis, self.adjoint_action, self.action)

    def _same_space(self, other: "FockOperator") -> None:
        if self.basis is not other.basis and self.basis.window != other.basis.window:
            raise ValueError("operators live on different Fock spaces")

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        self._same_space(other)
        return FockOperator(
            self.basis,
            lambda x: self.action(other.action(x)),
            lambda y: other.adjoint_action(self.adjoint_action(y)),
        )

    def _combine(self, other: "FockOperator", ufunc: np.ufunc) -> "FockOperator":
        self._same_space(other)

        def combined(first: BlockMap, second: BlockMap, x: np.ndarray) -> np.ndarray:
            out = first(x)
            return ufunc(out, second(x), out=out)

        return FockOperator(
            self.basis,
            lambda x: combined(self.action, other.action, x),
            lambda y: combined(self.adjoint_action, other.adjoint_action, y),
        )

    def __add__(self, other: "FockOperator") -> "FockOperator":
        return self._combine(other, np.add)

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        return self._combine(other, np.subtract)

    def __rmul__(self, scalar: complex) -> "FockOperator":
        def scaled(action: BlockMap, c: complex, x: np.ndarray) -> np.ndarray:
            out = action(x)
            out *= c
            return out

        c = complex(scalar)
        return FockOperator(
            self.basis,
            lambda x: scaled(self.action, c, x),
            lambda y: scaled(self.adjoint_action, c.conjugate(), y),
        )

    def to_dense(self) -> np.ndarray:
        """The full matrix, the image of the identity; small windows only."""
        return self.apply(np.eye(self.basis.dim, dtype=complex))

    def sector_scan(self, tol: float = 0.0) -> set[int]:
        """Observed charge shifts over all matrix entries above tol, from the
        images of the basis vectors of each sector, _BLOCK_COLUMNS at a time."""
        charges = self.basis.charges
        # one input block, reset after each use, so its pages stay mapped
        block = np.zeros((self.basis.dim, _BLOCK_COLUMNS), dtype=complex)
        shifts: set[int] = set()
        for q in self.basis.sector_charges():
            sector = self.basis.sector_masks(q)
            for start in range(0, sector.size, _BLOCK_COLUMNS):
                cols = sector[start : start + _BLOCK_COLUMNS]
                units = (cols, np.arange(cols.size))
                block[units] = 1.0
                image = self.action(block[:, : cols.size])
                # rows holding a nonzero entry, found on the float view; the
                # modulus is taken on those rows only
                rows = np.flatnonzero(image.view(np.float64).any(axis=1))
                rows = rows[(np.abs(image[rows]) > tol).any(axis=1)]
                shifts.update(int(c) - q for c in set(charges[rows].tolist()))
                block[units] = 0.0
        return shifts


def _gather(basis: FockBasis, dst: np.ndarray, src: np.ndarray, amp: np.ndarray) -> FockOperator:
    """The operator with entry amp[i] at (dst[i], src[i]) and zeros elsewhere;
    no index repeats within dst or within src."""
    amp = np.asarray(amp, dtype=complex)[:, None]
    amp_conj = amp.conj()

    def move(x: np.ndarray, to: np.ndarray, frm: np.ndarray, scale: np.ndarray) -> np.ndarray:
        # scaled in place: a fresh temporary per product costs page faults
        values = x[frm]
        values *= scale
        out = np.zeros((basis.dim, x.shape[1]), dtype=complex)
        out[to] = values
        return out

    return FockOperator(
        basis, lambda x: move(x, dst, src, amp), lambda y: move(y, src, dst, amp_conj)
    )


def diagonal_operator(basis: FockBasis, diagonal: np.ndarray) -> FockOperator:
    d = np.asarray(diagonal, dtype=complex)[:, None]
    d_conj = d.conj()
    return FockOperator(basis, lambda x: d * x, lambda y: d_conj * y)


def _elementary_annihilator(basis: FockBasis, slot: int) -> FockOperator:
    masks = np.arange(basis.dim, dtype=np.int64)
    src = masks[((masks >> slot) & 1) == 1]
    return _gather(basis, src ^ (np.int64(1) << slot), src, _jw_signs(src, slot))


def car_operators(basis: FockBasis) -> dict[tuple[str, int], FockOperator]:
    """All ladder operators keyed by ('a'|'a_dag'|'b'|'b_dag', mode)."""
    ops: dict[tuple[str, int], FockOperator] = {}
    for n in basis.window.modes:
        ann = _elementary_annihilator(basis, basis.slot(int(n)))
        kind = "a" if n >= 0 else "b"
        ops[(kind, int(n))] = ann
        ops[(kind + "_dag", int(n))] = ann.dagger()
    return ops


def charge_operator(basis: FockBasis) -> FockOperator:
    return diagonal_operator(basis, basis.charges.astype(complex))


def second_quantize_diagonal(u: OneParticleOperator, basis: FockBasis) -> FockOperator:
    """Multiplicative second quantization of a diagonal one-particle unitary.

    Each occupation state is multiplied by the product of eigenvalues of the
    plus block over occupied particle modes and of the conjugated minus
    block over occupied antiparticle modes; a constant phase exp(i c) on
    the window therefore acts as exp(i c Q).
    """
    mat = u.matrix
    off = mat - np.diag(np.diag(mat))
    if np.max(np.abs(off)) > _DIAGONAL_TOL * max(1.0, np.max(np.abs(mat))):
        raise NotDiagonal("second_quantize_diagonal requires a diagonal operator")
    eig = np.diag(mat)
    masks = np.arange(basis.dim, dtype=np.int64)
    phase = np.ones(basis.dim, dtype=complex)
    for j in range(basis.window.size):
        w = eig[j] if j >= basis.window.n_minus else np.conj(eig[j])
        occupied = ((masks >> j) & 1).astype(bool)
        phase[occupied] *= w
    return diagonal_operator(basis, phase)


def _dgamma_terms(
    a: OneParticleOperator, basis: FockBasis
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """dG(A) as gathers (dst, src, amp): A[m,n] psi*_m psi_n for every nonzero
    A[m,n], and the constant -tr A-- on the diagonal.

    psi_n = a_n empties an occupied plus slot n and psi_n = b*_n fills an
    empty minus slot n; psi*_m does the reverse on slot m.
    """
    masks = np.arange(basis.dim, dtype=np.int64)
    plus = np.arange(basis.window.size) >= basis.window.n_minus
    constant = np.full(basis.dim, -np.trace(a.minus_minus), dtype=complex)
    terms = [(masks, masks, constant)]
    for m, n in zip(*np.nonzero(a.matrix)):
        src = masks[((masks >> n) & 1) == plus[n]]
        mid = src ^ (np.int64(1) << n)
        ok = ((mid >> m) & 1) != plus[m]
        src, mid = src[ok], mid[ok]
        amp = a.matrix[m, n] * _jw_signs(src, n) * _jw_signs(mid, m)
        terms.append((mid ^ (np.int64(1) << m), src, amp))
    return terms


def dgamma(a: OneParticleOperator, basis: FockBasis) -> FockOperator:
    """Normal-ordered second-quantized bilinear of a one-particle operator.

    dG(A) = sum A[m,n] psi*_m psi_n - tr A--, with psi_n = a_n for n >= 0
    and psi_n = b*_n for n < 0; the trace is the normal-ordering constant of
    the minus-minus block, so the vacuum expectation vanishes and
    dG(identity) is the charge operator.
    """
    return functools.reduce(
        operator.add, (_gather(basis, *term) for term in _dgamma_terms(a, basis))
    )


def _block_diagonal(basis: FockBasis, blocks: list[tuple[np.ndarray, np.ndarray]]) -> FockOperator:
    """The operator acting as the matrix u on the basis indices idx, for
    every (idx, u) in blocks; the index sets partition the basis."""

    def forward(x: np.ndarray) -> np.ndarray:
        out = np.empty((basis.dim, x.shape[1]), dtype=complex)
        for idx, u in blocks:
            out[idx] = u @ x[idx]
        return out

    def adjoint(y: np.ndarray) -> np.ndarray:
        out = np.empty((basis.dim, y.shape[1]), dtype=complex)
        for idx, u in blocks:
            out[idx] = u.conj().T @ y[idx]
        return out

    return FockOperator(basis, forward, adjoint)


def implementer_exp(a: OneParticleOperator, t: float, basis: FockBasis) -> FockOperator:
    """Unitary exp(i t dG(A)) for Hermitian A, one charge block at a time.

    dG(A) keeps the charge, so its entries fill one dense block per sector,
    and each block is exponentiated by ``hermitian_exp``.
    """
    dev = np.max(np.abs(a.matrix - a.matrix.conj().T))
    if dev > _HERMITIAN_TOL * max(1.0, float(np.max(np.abs(a.matrix)))):
        raise NotHermitian(f"generator deviates from Hermitian by {dev:.3e}")
    dst, src, amp = (np.concatenate(parts) for parts in zip(*_dgamma_terms(a, basis)))
    position = np.empty(basis.dim, dtype=np.int64)
    blocks = []
    for q in basis.sector_charges():
        idx = basis.sector_masks(q)
        position[idx] = np.arange(idx.size)
        inside = basis.charges[src] == q
        gen = np.zeros((idx.size, idx.size), dtype=complex)
        np.add.at(gen, (position[dst[inside]], position[src[inside]]), amp[inside])
        blocks.append((idx, hermitian_exp(gen, t)))
    return _block_diagonal(basis, blocks)


def _is_canonical_shift(v: OneParticleOperator) -> bool:
    expected = np.eye(v.window.size, k=-1, dtype=complex)
    return bool(np.max(np.abs(v.matrix - expected)) <= _SHIFT_TOL)


def implementer_shift(v: OneParticleOperator, basis: FockBasis) -> FockOperator:
    """Charge-raising implementer of the truncated mode shift.

    G(V) = a*(e_0) G_+(-V++) G_-(-conj V--) + G_+(-V++) G_-(-conj V--) b(e_-),
    normalized so the vacuum maps to the one-particle state e_0.  Accepts
    exactly the canonical shift (rotated shifts are obtained by composing
    with exp(-i omega Q), which shares this phase convention).
    """
    if v.window != basis.window:
        raise WrongClass("shift operator window does not match the Fock basis")
    if not _is_canonical_shift(v):
        raise WrongClass(
            "implementer_shift expects the canonical truncated shift e_n -> e_(n+1)"
        )
    n_minus = basis.window.n_minus
    size = basis.window.size
    masks = np.arange(basis.dim, dtype=np.int64)
    bit_top = np.int64(1) << (size - 1)
    bit_minus_one = np.int64(1) << (n_minus - 1)
    bit_zero = np.int64(1) << n_minus

    # Term 1: shift every occupation up one slot, then create the mode-0
    # particle.  Blocked when mode M or the antiparticle at -1 is occupied.
    ok1 = ((masks & bit_top) == 0) & ((masks & bit_minus_one) == 0)
    src1 = masks[ok1]
    dst1 = (src1 << 1) | bit_zero
    p_plus = _popcount(src1 & basis.plus_bits)
    amp1 = 1.0 - 2.0 * (p_plus & 1)

    # Term 2: annihilate the antiparticle at -1, then shift everything up.
    ok2 = ((masks & bit_minus_one) != 0) & ((masks & bit_top) == 0)
    src2 = masks[ok2]
    stripped = src2 ^ bit_minus_one
    dst2 = stripped << 1
    jw = _popcount(src2 & (bit_minus_one - 1)) & 1
    total = (_popcount(src2) - 1) & 1
    amp2 = (1.0 - 2.0 * jw) * (1.0 - 2.0 * total)

    # term 1 targets states with mode 0 occupied, term 2 states without it,
    # so no target repeats
    return _gather(
        basis,
        np.concatenate([dst1, dst2]),
        np.concatenate([src1, src2]),
        np.concatenate([amp1, amp2]),
    )


@dataclass(frozen=True)
class ConjugateBlocks:
    """Block data Z of a charge-shift operator, via thresholded pseudo-inverses.

    Z++ = -pinv(V++*), Z+- = -pinv(V++*) V-+*, Z-+ = -pinv(V--) V-+,
    Z-- = -pinv(V--).
    """

    plus_plus: np.ndarray
    plus_minus: np.ndarray
    minus_plus: np.ndarray
    minus_minus: np.ndarray


def _checked_pinv(block: np.ndarray, threshold: float) -> np.ndarray:
    u, sigma, vh = np.linalg.svd(block)
    scale = sigma[0] if sigma.size and sigma[0] > 0 else 1.0
    rel = sigma / scale
    near = np.sum((rel > threshold / 10) & (rel < threshold * 10))
    if near:
        raise PseudoInverseFailure(
            f"{near} singular value(s) within a decade of threshold {threshold}"
        )
    inv = np.where(rel > threshold, 1.0 / np.where(sigma == 0, 1.0, sigma), 0.0)
    return (vh.conj().T * inv) @ u.conj().T


def conjugate_blocks(v: OneParticleOperator) -> ConjugateBlocks:
    vpp = v.plus_plus
    vmm = v.minus_minus
    vmp = v.minus_plus
    pinv_pp_star = _checked_pinv(vpp.conj().T, _PINV_THRESHOLD)
    pinv_mm = _checked_pinv(vmm, _PINV_THRESHOLD)
    return ConjugateBlocks(
        plus_plus=-pinv_pp_star,
        plus_minus=-pinv_pp_star @ vmp.conj().T,
        minus_plus=-pinv_mm @ vmp,
        minus_minus=-pinv_mm,
    )


def _compound(block: np.ndarray) -> np.ndarray:
    """All minors of a square block, indexed by row and column subset masks.

    Entry (t, s) is the determinant of the block restricted to the index
    sets of t and s in ascending order; subsets of unequal size give 0 and
    the empty minor is 1.  One batched determinant per subset size.
    """
    n = block.shape[0]
    masks = np.arange(1 << n, dtype=np.int64)
    sizes = _popcount(masks)
    bits = (masks[:, None] >> np.arange(n)) & 1
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    out[0, 0] = 1.0
    for k in range(1, n + 1):
        subsets = masks[sizes == k]
        idx = np.nonzero(bits[subsets])[1].reshape(-1, k)
        minors = np.linalg.det(block[idx[:, None, :, None], idx[None, :, None, :]])
        out[np.ix_(subsets, subsets)] = minors
    return out


def gamma_multiplicative(
    plus_block: np.ndarray, minus_block: np.ndarray, basis: FockBasis
) -> FockOperator:
    """Multiplicative second quantization of a block-diagonal one-particle map.

    Acts on particle wedges by the plus block and on antiparticle wedges by
    the minus block; the matrix element between occupation states is the
    product of the two minor determinants.  A mask is (plus bits << n_minus)
    | minus bits, so the operator is the Kronecker product of the blocks'
    compound matrices, applied to a column block reshaped as
    (plus masks, minus masks, columns).
    """
    plus, minus = _compound(plus_block), _compound(minus_block)

    def kron_apply(left: np.ndarray, right: np.ndarray, x: np.ndarray) -> np.ndarray:
        # einsum("ab,cd,bdk->ack") as two matrix products
        k = x.shape[1]
        y = left @ x.reshape(left.shape[1], right.shape[1] * k)
        return (right @ y.reshape(left.shape[0], right.shape[1], k)).reshape(basis.dim, k)

    plus_h, minus_h = plus.conj().T, minus.conj().T
    return FockOperator(
        basis, lambda x: kron_apply(plus, minus, x), lambda y: kron_apply(plus_h, minus_h, y)
    )


def _pair_exponential(coefficients: np.ndarray, basis: FockBasis) -> FockOperator:
    """exp(sum C[p,m] a*_p b*_m) over particle modes p and antiparticle modes m.

    The pair terms commute with one another and square to zero, so the
    exponential is exactly the finite product of the factors 1 + C[p,m] a*_p b*_m,
    applied one factor at a time.
    """
    ops = car_operators(basis)
    n_minus = basis.window.n_minus
    factors = [
        (complex(c), ops[("a_dag", p)] @ ops[("b_dag", i_minus - n_minus)])
        for (p, i_minus), c in np.ndenumerate(coefficients)
        if c != 0
    ]

    def forward(x: np.ndarray) -> np.ndarray:
        out = x.copy()
        for c, pair in reversed(factors):
            out += c * pair.action(out)
        return out

    def adjoint(y: np.ndarray) -> np.ndarray:
        out = y.copy()
        for c, pair in factors:
            out += c.conjugate() * pair.adjoint_action(out)
        return out

    return FockOperator(basis, forward, adjoint)


def ec_normal_ordered(z: ConjugateBlocks, basis: FockBasis) -> FockOperator:
    """Normal-ordered exponential E_c(Z), matrix-free.

    E_c(Z) = exp(Z+- a* b*) G_+(Z++) G_-(Z--^T) exp(-Z-+ b a); used to
    cross-validate the explicit charge-shift implementer on small windows.
    The annihilating factor is the adjoint of a creating one, since
    (a*_p b*_m)* = b_m a_p.
    """
    left = _pair_exponential(z.plus_minus, basis)
    right = _pair_exponential(-z.minus_plus.conj().T, basis).dagger()
    middle = gamma_multiplicative(z.plus_plus, z.minus_minus.T, basis)
    return left @ middle @ right


def _kernel_unit_vector(block: np.ndarray) -> np.ndarray:
    """Canonical unit kernel vector of a square block with 1-dim kernel.

    Phase fixed by making the largest-magnitude component positive real.
    """
    _, sigma, vh = np.linalg.svd(block)
    if sigma[-1] > _KERNEL_TOL * max(1.0, sigma[0]):
        raise WrongClass("minus-minus block has no kernel: not a unit charge shift")
    if sigma.size > 1 and sigma[-2] <= _KERNEL_TOL * max(1.0, sigma[0]):
        raise WrongClass("minus-minus block kernel is not one-dimensional")
    vec = vh.conj().T[:, -1]
    k = int(np.argmax(np.abs(vec)))
    return vec * (np.conj(vec[k]) / abs(vec[k]))


def ec_route_implementer(v: OneParticleOperator, basis: FockBasis) -> FockOperator:
    """Charge-shift implementer via the normal-ordered route.

    N_V [a*(e_0) E_c(Z) + E_c(Z) b(conj e_-)] with e_- the canonical kernel
    vector of the minus-minus block and e_0 = V e_-.  N_V is fixed by unit
    vacuum image norm; the leftover constant phase is pinned by making the
    dominant vacuum-image amplitude positive real, which matches the
    explicit shift route and makes rotation covariance an exact operator
    identity instead of one up to phase.
    """
    z = conjugate_blocks(v)
    ec = ec_normal_ordered(z, basis)
    ops = car_operators(basis)
    n_minus = v.window.n_minus
    e_minus = _kernel_unit_vector(v.minus_minus)
    full = np.zeros(v.window.size, dtype=complex)
    full[:n_minus] = e_minus
    e_zero = v.matrix @ full
    if np.linalg.norm(e_zero[:n_minus]) > 1e-10:
        raise WrongClass("image of the kernel vector is not a particle vector")
    create = functools.reduce(
        operator.add,
        (amp * ops[("a_dag", i)] for i, amp in enumerate(e_zero[n_minus:]) if amp),
    )
    annihilate = functools.reduce(
        operator.add,
        (amp * ops[("b", i - n_minus)] for i, amp in enumerate(e_minus) if amp),
    )
    raw = create @ ec + ec @ annihilate
    vac_image = raw.apply(basis.vacuum())
    norm = np.linalg.norm(vac_image)
    if norm == 0:
        raise WrongClass("vacuum image vanished in the normal-ordered route")
    k = int(np.argmax(np.abs(vac_image)))
    phase = vac_image[k] / abs(vac_image[k])
    return (1.0 / (norm * phase)) * raw


def truncation_safe_probes(
    basis: FockBasis,
    charges: Sequence[int],
    margin: int = 2,
    cap: int = 64,
) -> list[int]:
    """Deterministic basis probes supported away from the window edges.

    States whose occupied modes all lie in {-M+margin, ..., M-margin},
    filtered by charge, interleaved round-robin over the requested charges
    in mask order, capped in total.
    """
    m = basis.window.cutoff
    if margin >= m:
        raise ValueError("margin leaves no interior modes")
    allowed = 0
    for n in range(-m + margin, m - margin + 1):
        allowed |= 1 << basis.slot(n)
    masks = np.arange(basis.dim, dtype=np.int64)
    safe = (masks & ~np.int64(allowed)) == 0
    per_charge = [masks[safe & (basis.charges == q)].tolist() for q in charges]
    rounds = itertools.zip_longest(*per_charge)
    picked = [mask for group in rounds for mask in group if mask is not None][:cap]
    if not picked:
        raise NoSignificantEntries("no probes available for the requested charges")
    return picked


def pattern_probes(
    window: ModeWindow,
    charge: int,
    band: int = 2,
    margin: int = 2,
    cap: int = 64,
) -> np.ndarray:
    """Charge-q probes built from a window-independent mode band, as raw slots.

    Enumerates every occupation pattern whose particle modes lie in
    {0..band} and whose hole modes lie in {-band..-1}, ordered by total
    mode energy sum(|n|) and then by the mode tuple, so the k-th probe is
    the same physical state at every cutoff M >= band + margin.  That
    stability is what makes element tables comparable across a cutoff
    sweep.  Row k holds the ascending raw slots of probe k (see
    ``exterior``): the sea slots 0..M-1 without the holes, then the
    particle slots.
    """
    if band + margin > window.cutoff:
        raise WindowTooSmall(
            f"pattern band {band} with margin {margin} needs cutoff >= {band + margin}"
        )
    plus_pool = list(range(0, band + 1))
    minus_pool = list(range(-1, -band - 1, -1))
    entries = []
    for n_plus in range(len(plus_pool) + 1):
        n_minus = n_plus - charge
        if n_minus < 0 or n_minus > len(minus_pool):
            continue
        for plus in itertools.combinations(plus_pool, n_plus):
            for minus in itertools.combinations(minus_pool, n_minus):
                energy = sum(plus) + sum(-n for n in minus)
                key = tuple(sorted(plus) + sorted(-n for n in minus))
                entries.append((energy, key, plus, minus))
    entries.sort(key=lambda item: (item[0], item[1]))
    picked = entries[:cap]
    if not picked:
        raise NoSignificantEntries(f"no band-{band} patterns exist at charge {charge}")
    m = window.cutoff
    # every probe enters at least one minor: refuse the window before any
    # blip symbol or one-particle matrix of it is built
    require_minor_budget(window, len(picked), m + charge)
    return np.array(
        [
            [j for j in range(m) if j - m not in minus] + [n + m for n in plus]
            for _, _, plus, minus in picked
        ],
        dtype=np.int64,
    )


def probe_matrix(basis: FockBasis, probe_masks: Sequence[int]) -> np.ndarray:
    mat = np.zeros((basis.dim, len(probe_masks)), dtype=complex)
    for k, mask in enumerate(probe_masks):
        mat[mask, k] = 1.0
    return mat


def _median(values: np.ndarray) -> float:
    """np.median of a nonempty 1-D array, bit for bit, without the import of
    numpy.ma (13 ms) that np.median makes on its first call: the middle
    order statistic, or the mean of the two middle ones; NaN if any is NaN."""
    ordered = np.sort(values)
    mid = ordered.size // 2
    if np.isnan(ordered[-1]):
        return float("nan")
    return float(ordered[mid] if ordered.size % 2 else 0.5 * (ordered[mid - 1] + ordered[mid]))


def phase_from_elements(
    forward: np.ndarray, reversed_: np.ndarray, floor: float = 1e-10
) -> tuple[complex, float]:
    """Median ratio of matrix elements, normalized to unit modulus.

    Pairs whose reversed-order element falls below the floor are dropped;
    the second return value is the maximal deviation of any retained ratio
    from the reported phase.
    """
    fw = np.asarray(forward).ravel()
    rv = np.asarray(reversed_).ravel()
    keep = np.abs(rv) > floor
    if not np.any(keep):
        raise NoSignificantEntries("all reversed-order elements below the floor")
    ratios = fw[keep] / rv[keep]
    med = complex(_median(ratios.real), _median(ratios.imag))
    if med == 0:
        raise NoSignificantEntries("median ratio vanished")
    phase = med / abs(med)
    deviation = float(np.max(np.abs(ratios - phase)))
    return phase, deviation
