"""Truncated Fock space: CAR algebra, implementers, probes."""

import numpy as np
import pytest
from scipy.linalg import expm

from anyoncircle.blip import blip, standard_mollifier
from anyoncircle.errors import (
    NoSignificantEntries,
    NotDiagonal,
    NotHermitian,
    SectorEmpty,
    WindowTooSmall,
    WrongClass,
)
from anyoncircle.fock import (
    ConjugateBlocks,
    FockBasis,
    car_operators,
    charge_operator,
    conjugate_blocks,
    dgamma,
    ec_normal_ordered,
    ec_route_implementer,
    gamma_multiplicative,
    implementer_exp,
    implementer_shift,
    pattern_probes,
    phase_from_elements,
    probe_matrix,
    rotation_weights,
    second_quantize_diagonal,
    truncation_safe_probes,
)
from anyoncircle.modes import (
    ModeWindow,
    OneParticleOperator,
    multiplication_operator,
    shift_operator,
)


def _basis(cutoff):
    return FockBasis(ModeWindow(cutoff))


def _masks(basis, slots):
    """Dense basis masks of raw-slot probe states, looked up through basis.raw_slots."""
    sector = basis.sector_masks(slots.shape[1] - basis.window.n_minus)
    table = basis.raw_slots(sector)
    return np.array([sector[np.all(table == row, axis=1)][0] for row in slots])


def _constant_phase(window, angle):
    return OneParticleOperator(
        window, np.exp(1j * angle) * np.eye(window.size, dtype=complex)
    )


def _shifted_implementer(basis, omega):
    # G(exp(-i omega) V) = G(V) exp(-i omega Q), the shared phase convention
    g = implementer_shift(shift_operator(basis.window), basis)
    u = second_quantize_diagonal(_constant_phase(basis.window, -omega), basis)
    return g @ u


# ---------------------------------------------------------------- CAR layer


def test_car_relations():
    basis = _basis(2)
    ops = car_operators(basis)
    eye = np.eye(basis.dim)
    keys = list(ops)

    def anti(x, y):
        return (x @ y + y @ x).to_dense()

    for key in keys:
        kind, mode = key
        if kind.endswith("_dag"):
            continue
        dag = ops[(kind + "_dag", mode)]
        assert np.max(np.abs(anti(ops[key], dag) - eye)) < 1e-14
        # annihilators mutually anticommute, including across species
        for other in keys:
            if other[0].endswith("_dag"):
                continue
            if other == key:
                sq = (ops[key] @ ops[key]).to_dense()
                assert abs(sq).max() == 0.0
            else:
                assert np.max(np.abs(anti(ops[key], ops[other]))) == 0.0


def test_mixed_car_vanishes():
    basis = _basis(2)
    ops = car_operators(basis)
    # {a_m, a*_n} = 0 for m != n
    lhs = ops[("a", 0)] @ ops[("a_dag", 1)]
    rhs = ops[("a_dag", 1)] @ ops[("a", 0)]
    assert np.max(np.abs((lhs + rhs).to_dense())) == 0.0


def test_charge_operator_counts_particles_minus_holes():
    basis = _basis(3)
    q = charge_operator(basis)
    mask = basis.mask_of(plus_modes=(0, 2), minus_modes=(-1,))
    vec = q.apply(basis.basis_vector(mask))
    assert vec[mask] == pytest.approx(2 - 1)
    assert basis.charges[mask] == 1
    assert q.sector_scan() == {0}


def test_sector_masks_partition_and_empty():
    basis = _basis(2)
    w = basis.window
    total = sum(
        basis.sector_masks(q).size for q in range(-w.n_minus, w.n_plus + 1)
    )
    assert total == basis.dim
    with pytest.raises(SectorEmpty):
        basis.sector_masks(17)


def test_dgamma_of_identity_is_charge():
    basis = _basis(3)
    w = basis.window
    ident = OneParticleOperator(w, np.eye(w.size, dtype=complex))
    diff = dgamma(ident, basis).to_dense() - charge_operator(basis).to_dense()
    assert np.max(np.abs(diff)) < 1e-13


def test_dgamma_commutes_with_charge():
    basis = _basis(2)
    w = basis.window
    rng = np.random.default_rng(5)
    a = rng.normal(size=(w.size, w.size)) + 1j * rng.normal(size=(w.size, w.size))
    op = dgamma(OneParticleOperator(w, a), basis).to_dense()
    q = charge_operator(basis).to_dense()
    assert np.max(np.abs(op @ q - q @ op)) < 1e-12


def test_dgamma_vacuum_expectation_vanishes():
    basis = _basis(3)
    w = basis.window
    rng = np.random.default_rng(9)
    a = rng.normal(size=(w.size, w.size)) + 1j * rng.normal(size=(w.size, w.size))
    vac = basis.vacuum()
    image = dgamma(OneParticleOperator(w, a), basis).apply(vac)
    assert abs(np.vdot(vac, image)) < 1e-14


# ------------------------------------------------------------- implementers


def test_shift_implementer_maps_vacuum_to_mode_zero():
    basis = _basis(4)
    g = implementer_shift(shift_operator(basis.window), basis)
    image = g.apply(basis.vacuum())
    expected = basis.basis_vector(basis.mask_of(plus_modes=(0,)))
    assert np.max(np.abs(image - expected)) < 1e-14


def test_shift_implementer_raises_charge_exactly():
    basis = _basis(3)
    g = implementer_shift(shift_operator(basis.window), basis)
    assert g.sector_scan() == {1}


def test_shift_implementer_rejects_other_operators():
    basis = _basis(2)
    w = basis.window
    with pytest.raises(WrongClass):
        implementer_shift(OneParticleOperator(w, np.eye(w.size)), basis)


def test_shift_implementer_isometric_on_interior():
    basis = _basis(4)
    g = implementer_shift(shift_operator(basis.window), basis)
    probes = truncation_safe_probes(basis, charges=(-1, 0, 1), margin=2)
    block = g.apply(probe_matrix(basis, probes))
    norms = np.linalg.norm(block, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-13


def test_rotation_covariance_of_shift_implementer():
    # U_1(omega) G U_1(omega)* = G exp(-i omega Q) as an exact identity:
    # both implementer terms change the rotation weight by exactly Q.
    basis = _basis(3)
    w = basis.window
    omega = 0.83
    g = implementer_shift(shift_operator(w), basis)
    phases = np.exp(-1j * np.arange(-w.cutoff, w.cutoff + 1) * omega)
    u1 = second_quantize_diagonal(OneParticleOperator(w, np.diag(phases)), basis)
    lhs = (u1 @ g @ u1.dagger()).to_dense()
    rhs = _shifted_implementer(basis, omega).to_dense()
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    rotation_phases = np.exp(-1j * omega * basis.theta)
    assert np.max(np.abs(np.diag(u1.to_dense()) - rotation_phases)) < 1e-12


def test_second_quantize_diagonal_rejects_offdiagonal():
    basis = _basis(2)
    w = basis.window
    with pytest.raises(NotDiagonal):
        second_quantize_diagonal(shift_operator(w), basis)


def test_constant_phase_acts_as_charge_exponential():
    basis = _basis(3)
    angle = 1.234
    u = second_quantize_diagonal(_constant_phase(basis.window, angle), basis)
    expected = np.exp(1j * angle * basis.charges.astype(float))
    assert np.max(np.abs(np.diag(u.to_dense()) - expected)) < 1e-13


def test_implementer_exp_unitary_and_hermitian_guard():
    basis = _basis(3)
    w = basis.window
    symbol = blip(standard_mollifier(0.4), w).periodic.shifted(1.1)
    a = multiplication_operator(symbol, w)
    herm = OneParticleOperator(w, 0.5 * (a.matrix + a.matrix.conj().T))
    u = implementer_exp(herm, 0.7, basis)
    dense = u.to_dense()
    assert np.max(np.abs(dense @ dense.conj().T - np.eye(basis.dim))) < 1e-10
    with pytest.raises(NotHermitian):
        implementer_exp(OneParticleOperator(w, a.matrix + 1j * np.eye(w.size)), 0.3, basis)


def test_conjugate_blocks_of_pure_shift_have_no_pair_terms():
    w = ModeWindow(4)
    z = conjugate_blocks(shift_operator(w))
    assert np.max(np.abs(z.plus_minus)) == 0.0
    assert np.max(np.abs(z.minus_plus)) == 0.0
    # Z++ = -pinv(V++*): the particle block conjugates back to a sub-shift
    assert np.max(np.abs(z.plus_plus + np.eye(w.n_plus, k=-1))) < 1e-12


def test_normal_ordered_route_matches_explicit_shift():
    basis = _basis(4)
    v = shift_operator(basis.window)
    explicit = implementer_shift(v, basis).to_dense()
    routed = ec_route_implementer(v, basis).to_dense()
    assert np.max(np.abs(explicit - routed)) < 1e-8


# ------------------------------------------------------------------- probes


def _random_block(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def _minor(block, rows_mask, cols_mask):
    rows = [j for j in range(block.shape[0]) if rows_mask >> j & 1]
    cols = [j for j in range(block.shape[1]) if cols_mask >> j & 1]
    if len(rows) != len(cols):
        return 0.0
    return np.linalg.det(block[np.ix_(rows, cols)]) if rows else 1.0


@pytest.mark.parametrize("cutoff", [2, 3])
def test_gamma_multiplicative_is_product_of_minors(cutoff):
    basis = _basis(cutoff)
    w = basis.window
    rng = np.random.default_rng(cutoff)
    plus = _random_block(rng, w.n_plus, w.n_plus)
    minus = _random_block(rng, w.n_minus, w.n_minus)
    low = (1 << w.n_minus) - 1
    expected = np.array(
        [
            [
                _minor(plus, row >> w.n_minus, col >> w.n_minus)
                * _minor(minus, row & low, col & low)
                for col in range(basis.dim)
            ]
            for row in range(basis.dim)
        ]
    )
    got = gamma_multiplicative(plus, minus, basis).to_dense()
    assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("cutoff", [2, 3])
def test_normal_ordered_pair_factors_match_expm(cutoff):
    # no shift has pair terms, so random blocks pin the finite-product
    # exponentials and their index order
    basis = _basis(cutoff)
    w = basis.window
    rng = np.random.default_rng(10 + cutoff)
    z = ConjugateBlocks(
        plus_plus=_random_block(rng, w.n_plus, w.n_plus),
        plus_minus=0.5 * _random_block(rng, w.n_plus, w.n_minus),
        minus_plus=0.5 * _random_block(rng, w.n_minus, w.n_plus),
        minus_minus=_random_block(rng, w.n_minus, w.n_minus),
    )
    ops = car_operators(basis)
    create = np.zeros((basis.dim, basis.dim), dtype=complex)
    annihilate = np.zeros((basis.dim, basis.dim), dtype=complex)
    for p in range(w.n_plus):
        for i in range(w.n_minus):
            m = i - w.n_minus
            create += z.plus_minus[p, i] * (ops[("a_dag", p)] @ ops[("b_dag", m)]).to_dense()
            annihilate += z.minus_plus[i, p] * (ops[("b", m)] @ ops[("a", p)]).to_dense()
    middle = gamma_multiplicative(z.plus_plus, z.minus_minus.T, basis).to_dense()
    expected = expm(create) @ middle @ expm(-annihilate)
    got = ec_normal_ordered(z, basis).to_dense()
    assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))


def test_truncation_safe_probes_stay_interior():
    basis = _basis(4)
    probes = truncation_safe_probes(basis, charges=(0, 1), margin=2, cap=10)
    assert len(probes) == 10
    edge_bits = (1 << basis.slot(-4)) | (1 << basis.slot(-3))
    edge_bits |= (1 << basis.slot(3)) | (1 << basis.slot(4))
    for mask in probes:
        assert mask & edge_bits == 0
    # round-robin interleave: consecutive entries alternate requested charges
    assert [basis.charges[m] for m in probes[:4]] == [0, 1, 0, 1]
    with pytest.raises(ValueError):
        truncation_safe_probes(basis, charges=(0,), margin=4)


def test_pattern_probes_are_cutoff_stable():
    slots4 = pattern_probes(ModeWindow(4), charge=0, band=2, cap=12)
    slots6 = pattern_probes(ModeWindow(6), charge=0, band=2, cap=12)

    def decode(window, slots):
        # holes are the sea slots missing from the raw set; particles the rest
        m = window.cutoff
        holes = [j - m for j in range(m) if j not in slots]
        return tuple(sorted(holes + [int(j) - m for j in slots if j >= m]))

    modes4 = [decode(ModeWindow(4), row) for row in slots4]
    assert modes4 == [decode(ModeWindow(6), row) for row in slots6]
    # charge = particles (modes >= 0) minus holes (modes < 0)
    assert all(sum(1 if n >= 0 else -1 for n in modes) == 0 for modes in modes4)


def test_theta_from_slots_matches_the_dense_basis():
    # theta is the sum of |mode| over particles and holes; from the raw
    # slots it is a slot sum, checked here against the mask bits directly
    for cutoff in (2, 3, 4, 5):
        basis = _basis(cutoff)
        w = basis.window
        masks = np.arange(basis.dim)
        occupied = (masks[:, None] >> np.arange(w.size)) & 1
        direct = occupied @ np.abs(w.modes)
        assert np.array_equal(basis.theta, direct)
        for q in range(-cutoff, cutoff + 2):
            sector = basis.sector_masks(q)
            theta = rotation_weights(basis.raw_slots(sector), w)
            assert np.array_equal(theta, direct[sector])


def test_pattern_probes_guards():
    with pytest.raises(WindowTooSmall):
        pattern_probes(ModeWindow(3), charge=0, band=2, margin=2)
    with pytest.raises(NoSignificantEntries):
        pattern_probes(ModeWindow(6), charge=5, band=2)
    assert len(pattern_probes(ModeWindow(5), charge=1, band=2, cap=3)) == 3


def test_phase_from_elements_floor_and_errors():
    fw = np.array([1j, 2j, 1e-14])
    rv = np.array([1.0, 2.0, 1e-14])
    phase, dev = phase_from_elements(fw, rv, floor=1e-10)
    assert phase == pytest.approx(1j)
    assert dev < 1e-14
    with pytest.raises(NoSignificantEntries):
        phase_from_elements(fw, np.zeros(3), floor=1e-10)


def _exchange_phase(x, y, v_slots, w_slots, basis):
    # median ratio of <w, X Y v> against <w, Y X v> over the probe pairs
    pv = probe_matrix(basis, _masks(basis, v_slots))
    rows = _masks(basis, w_slots)
    return phase_from_elements(x.apply(y.apply(pv))[rows], y.apply(x.apply(pv))[rows])


def test_measure_exchange_phase_identical_operators():
    basis = _basis(3)
    g = implementer_shift(shift_operator(basis.window), basis)
    v_masks = pattern_probes(basis.window, charge=0, band=1, cap=4)
    w_masks = pattern_probes(basis.window, charge=2, band=1, cap=4)
    phase, dev = _exchange_phase(g, g, v_masks, w_masks, basis)
    assert phase == pytest.approx(1.0)
    assert dev < 1e-13


def test_measure_exchange_phase_of_rotated_shifts():
    # G_1 G_2 = exp(-i (omega_1 - omega_2)) G_2 G_1 when G_k = G exp(
    # -i omega_k Q): commuting a charge exponential past G costs its angle.
    basis = _basis(4)
    om1, om2 = 0.9, 2.3
    x = _shifted_implementer(basis, om1)
    y = _shifted_implementer(basis, om2)
    v_masks = pattern_probes(basis.window, charge=0, band=1, cap=6)
    w_masks = pattern_probes(basis.window, charge=2, band=1, cap=6)
    phase, dev = _exchange_phase(x, y, v_masks, w_masks, basis)
    assert phase == pytest.approx(np.exp(-1j * (om1 - om2)), abs=1e-12)
    assert dev < 1e-12


def test_fock_operator_composition_tracks_charge():
    basis = _basis(2)
    g = implementer_shift(shift_operator(basis.window), basis)
    q = charge_operator(basis)
    assert (g @ g).sector_scan() == {2}
    assert (g @ q).sector_scan() == {1}
    assert g.dagger().sector_scan() == {-1}


def test_median_is_numpy_median_bit_for_bit():
    from anyoncircle.fock import _median

    rng = np.random.default_rng(4)
    for size in (1, 2, 3, 10, 11, 1000, 1001):
        values = rng.normal(size=size) * 10.0 ** rng.integers(-8, 8, size=size)
        assert _median(values) == np.median(values)
        assert _median(np.round(values)) == np.median(np.round(values))  # ties
    values[3] = np.nan
    assert np.isnan(_median(values)) and np.isnan(np.median(values))
