"""Minor-determinant Fock elements against the dense full-space constructions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyoncircle import exterior
from anyoncircle.anyon import ExchangeContext
from anyoncircle.blip import standard_mollifier
from anyoncircle.covering import CoveringPoint
from anyoncircle.errors import ResourceLimit
from anyoncircle.exterior import (
    dressing_unitary,
    gauge_signs,
    require_minor_budget,
    shift_sign,
    wedge_elements,
)
from anyoncircle.fock import FockBasis, implementer_exp, implementer_shift, probe_matrix
from anyoncircle.modes import ModeWindow, OneParticleOperator, shift_operator


def _random_hermitian(size, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    return 0.5 * (a + a.conj().T)


def _dressing_pin_error(window, matrix, t, charge):
    """Worst element gap between the minors and the dense exp(i t dG(A)) block."""
    basis = FockBasis(window)
    dense = implementer_exp(OneParticleOperator(window, matrix), t, basis).to_dense()
    masks = basis.sector_masks(charge)
    slots = basis.raw_slots(masks)
    scalar, unitary = dressing_unitary(matrix, t, window)
    minors = scalar * wedge_elements(unitary, slots, slots, window)
    return float(np.max(np.abs(minors - dense[np.ix_(masks, masks)])))


def _shift_pin_error(window, charge):
    """Worst element gap between the minors and the dense shift implementer block."""
    basis = FockBasis(window)
    dense = implementer_shift(shift_operator(window), basis).to_dense()
    src, dst = basis.sector_masks(charge), basis.sector_masks(charge + 1)
    minors = shift_sign(window, charge) * wedge_elements(
        shift_operator(window).matrix, basis.raw_slots(dst), basis.raw_slots(src), window,
        creations=1,
    )
    return float(np.max(np.abs(minors - dense[np.ix_(dst, src)])))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    cutoff=st.sampled_from([2, 3]),
    charge=st.sampled_from([-1, 0, 1]),
    seed=st.integers(0, 2**32 - 1),
    t=st.floats(-2.0, 2.0, allow_nan=False),
)
def test_dressing_minors_match_dense_blocks(cutoff, charge, seed, t):
    window = ModeWindow(cutoff)
    matrix = _random_hermitian(window.size, seed)
    assert _dressing_pin_error(window, matrix, t, charge) < 1e-12


def test_shift_gauge_alternates_with_charge():
    # the shift implementer is c*_(-M) Lambda(V) up to (-1)^(M+q) on sector q
    for cutoff in (2, 3):
        window = ModeWindow(cutoff)
        basis = FockBasis(window)
        dense = implementer_shift(shift_operator(window), basis).to_dense()
        for charge in (-1, 0, 1):
            src, dst = basis.sector_masks(charge), basis.sector_masks(charge + 1)
            bare = wedge_elements(
                shift_operator(window).matrix, basis.raw_slots(dst), basis.raw_slots(src),
                window, creations=1,
            )
            block = dense[np.ix_(dst, src)]
            nonzero = np.abs(bare) > 0.5
            expected = (-1.0) ** (cutoff + charge)
            assert shift_sign(window, charge) == expected
            assert np.all(block[nonzero] == expected * bare[nonzero])
            assert np.all(block[~nonzero] == 0.0)


def test_zero_time_and_constant_generator():
    window = ModeWindow(3)
    basis = FockBasis(window)
    slots = basis.raw_slots(basis.sector_masks(1))
    identity = np.eye(len(slots))
    scalar, unitary = dressing_unitary(_random_hermitian(window.size, 5), 0.0, window)
    assert scalar == 1.0
    assert np.max(np.abs(wedge_elements(unitary, slots, slots, window) - identity)) == 0.0
    # a constant generator c second-quantizes to exp(i t c Q): a pure phase per sector
    c, t = 0.77, 1.3
    scalar, unitary = dressing_unitary(c * np.eye(window.size), t, window)
    elems = scalar * wedge_elements(unitary, slots, slots, window)
    assert np.max(np.abs(elems - np.exp(1j * t * c) * identity)) < 1e-14


def test_raw_slots_and_gauge_signs():
    window = ModeWindow(2)
    basis = FockBasis(window)
    vacuum = 0
    particle = basis.mask_of(plus_modes=(0,))
    pair = basis.mask_of(plus_modes=(0,), minus_modes=(-1,))
    assert basis.raw_slots(np.array([vacuum])).tolist() == [[0, 1]]
    assert basis.raw_slots(np.array([particle])).tolist() == [[0, 1, 2]]
    # the hole at mode -1 empties slot 1 of the sea
    assert basis.raw_slots(np.array([pair])).tolist() == [[0, 2]]
    # (-1)^(hole slot 1 + M * one particle) = -1
    signs = [gauge_signs(np.array([s]), window)[0] for s in ([0, 1], [0, 1, 2], [0, 2])]
    assert signs == [1.0, 1.0, -1.0]
    with pytest.raises(ValueError):
        basis.raw_slots(np.array([vacuum, particle]))
    with pytest.raises(ValueError):
        wedge_elements(np.eye(window.size), np.array([[0, 1]]), np.array([[0, 1]]), window, 1)


def test_gauge_flip_is_invisible_to_ratios_but_caught_by_dense_pin(monkeypatch):
    # A per-state sign error multiplies fw and rv (and afw, arv) by the same
    # g(row) g(col), so every exchange ratio, hence every claim, is blind to
    # it.  Only the elementwise pin against the dense route can see it.
    def measured(cutoff):
        ctx = ExchangeContext(
            ModeWindow(cutoff), CoveringPoint(0.9), CoveringPoint(3.9),
            standard_mollifier(0.65), standard_mollifier(0.70), probe_charges=(0,),
            v_cap=8, w_cap=8,
        )
        tables = ctx.measure([0.25])
        return ctx, tables, ctx.scaled_elements(tables, 0.25, 0.9, 3.9, "adjoint")

    window = ModeWindow(3)
    matrix = _random_hermitian(window.size, 7)
    ctx, clean_tables, (clean_fw, clean_rv) = measured(4)
    assert _dressing_pin_error(window, matrix, 0.6, 0) < 1e-12

    honest = exterior.gauge_signs

    def flipped(slots, win):
        zero_mode = np.any(slots == win.n_minus, axis=1)
        return honest(slots, win) * (1.0 - 2.0 * zero_mode)

    monkeypatch.setattr(exterior, "gauge_signs", flipped)
    _, bad_tables, (bad_fw, bad_rv) = measured(4)
    assert np.max(np.abs(bad_fw - clean_fw)) > 0.1
    keep = np.abs(clean_rv) > 1e-10
    assert np.max(np.abs(bad_fw[keep] / bad_rv[keep] - clean_fw[keep] / clean_rv[keep])) < 1e-12
    for pairing in ("product", "adjoint"):
        clean = ctx.exchange_phase(clean_tables, 0.25, 0.9, 3.9, pairing)[0]
        bad = ctx.exchange_phase(bad_tables, 0.25, 0.9, 3.9, pairing)[0]
        assert abs(clean - bad) < 1e-12
    assert _dressing_pin_error(window, matrix, 0.6, 0) > 0.1
    assert _shift_pin_error(window, 0) > 0.5


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
                shift_operator(w).matrix, basis.raw_slots(dst), basis.raw_slots(src), w,
                creations=1,
            )
            assert np.max(np.abs(via_minors - forward[np.ix_(dst, src)])) == 0.0
            assert np.max(np.abs(via_minors.conj().T - adjoint[np.ix_(src, dst)])) == 0.0


def test_shift_apply_vector_shape():
    # one source state gives one column over the target sector
    w = ModeWindow(2)
    basis = FockBasis(w)
    src = basis.raw_slots(basis.sector_masks(0)[:1])
    dst = basis.raw_slots(basis.sector_masks(1))
    out = wedge_elements(shift_operator(w).matrix, dst, src, w, creations=1)
    assert out.shape == (len(dst), 1)


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
    slots = basis.raw_slots(masks)
    reversal = wedge_elements(np.eye(w.size), slots[::-1], slots, w)
    assert np.array_equal(reversal, np.eye(masks.size)[::-1])


def test_minor_budget_raises_before_allocating():
    # the stack of one minor per state pair, or a one-particle matrix of
    # the window, whichever is larger, is held to 128 MiB of complex entries
    require_minor_budget(ModeWindow(64), 100, 66)
    with pytest.raises(ResourceLimit):
        require_minor_budget(ModeWindow(64), 100_000, 66)
    with pytest.raises(ResourceLimit):
        require_minor_budget(ModeWindow(100_000), 1, 1)
    window = ModeWindow(4)
    rows = np.tile(np.arange(4), (3000, 1))
    with pytest.raises(ResourceLimit):
        wedge_elements(np.eye(window.size), rows, rows, window)
