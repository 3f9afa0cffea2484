"""Charge-sector blocks of the Fock constructions against the dense full space."""

import numpy as np

from anyoncircle.anyon import rotation_rep, rotation_sector_scalar
from anyoncircle.exterior import shift_sign, wedge_elements
from anyoncircle.fock import FockBasis, implementer_shift, probe_matrix
from anyoncircle.modes import ModeWindow, shift_operator


def test_shift_apply_matches_full_implementer_blocks():
    for cutoff in (2, 3):
        w = ModeWindow(cutoff)
        basis = FockBasis(w)
        g = implementer_shift(shift_operator(w), basis)
        forward, adjoint = g.to_dense(), g.dagger().to_dense()
        for q in range(-cutoff, cutoff + 1):
            src = basis.sector_masks(q)
            dst = basis.sector_masks(q + 1)
            via_minors = shift_sign(w, q) * wedge_elements(
                shift_operator(w).matrix, dst, src, w, creations=1
            )
            assert np.max(np.abs(via_minors - forward[np.ix_(dst, src)])) == 0.0
            assert np.max(np.abs(via_minors.conj().T - adjoint[np.ix_(src, dst)])) == 0.0


def test_shift_apply_vector_shape():
    # one source state gives one column over the target sector
    w = ModeWindow(2)
    basis = FockBasis(w)
    src = basis.sector_masks(0)[:1]
    dst = basis.sector_masks(1)
    out = wedge_elements(shift_operator(w).matrix, dst, src, w, creations=1)
    assert out.shape == (dst.size, 1)


def test_diagonal_apply_uses_sector_theta():
    w = ModeWindow(3)
    basis = FockBasis(w)
    q, spin, omega = 1, 0.3, 0.61
    masks = basis.sector_masks(q)
    diag = np.diag(rotation_rep(omega, spin, basis).to_dense()[np.ix_(masks, masks)])
    expected = np.exp(1j * spin * omega * q * q) * np.exp(-1j * omega * basis.theta[masks])
    assert np.max(np.abs(diag - expected)) < 1e-14
    scalar, spread = rotation_sector_scalar(spin, basis, q, omega)
    assert abs(scalar - diag[0]) < 1e-14
    assert abs(spread - np.max(np.abs(diag - diag[0]))) < 1e-14
    assert spread > 0.1


def test_lift_restrict_roundtrip_and_positions():
    w = ModeWindow(2)
    basis = FockBasis(w)
    q = -1
    masks = basis.sector_masks(q)
    rng = np.random.default_rng(37)
    block = rng.normal(size=(masks.size, 2)).astype(complex)
    lifted = probe_matrix(basis, masks) @ block
    assert np.max(np.abs(lifted[masks] - block)) == 0.0
    assert lifted.shape == (basis.dim, 2)
    # minor rows follow the order the states are given in: Lambda(1) from
    # ascending to reversed states is the reversal permutation
    reversal = wedge_elements(np.eye(w.size), masks[::-1], masks, w)
    assert np.array_equal(reversal, np.eye(masks.size)[::-1])
