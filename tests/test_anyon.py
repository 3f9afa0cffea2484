"""Anyon fields: construction, rotation covariance, exchange relations."""

import math

import numpy as np
import pytest

from anyoncircle.anyon import (
    AnyonSpec,
    ExchangeContext,
    aux_predicted_phase,
    build_field,
    predicted_phase,
    blip_multiplier,
    field_elements,
    rotation_rep,
    verify_aux_commutation,
    verify_commutation,
    verify_rotation_covariance,
)
from anyoncircle.blip import standard_mollifier
from anyoncircle.covering import TWO_PI, CoveringInterval, CoveringPoint
from anyoncircle import fock
from anyoncircle.errors import OverlapError, ResourceLimit, WindowTooSmall
from anyoncircle.fock import FockBasis, implementer_exp, implementer_shift, pattern_probes
from anyoncircle.modes import ModeWindow, OneParticleOperator, shift_operator

# base geometry used throughout: projected separation well clear of both
# mollifier widths, relative winding -1 in this order
BASE1, BASE2 = 0.9, 3.9
EPS1, EPS2 = 0.65, 0.70


def _specs(spin, winding1=0, winding2=0):
    s1 = AnyonSpec(spin, CoveringPoint(BASE1 + TWO_PI * winding1), standard_mollifier(EPS1))
    s2 = AnyonSpec(spin, CoveringPoint(BASE2 + TWO_PI * winding2), standard_mollifier(EPS2))
    return s1, s2


def _masks(basis, slots):
    """Dense basis masks of raw-slot probe states, looked up through basis.raw_slots."""
    sector = basis.sector_masks(slots.shape[1] - basis.window.n_minus)
    table = basis.raw_slots(sector)
    return np.array([sector[np.all(table == row, axis=1)][0] for row in slots])


def _context(cutoff, v_cap=6, w_cap=6):
    return ExchangeContext(
        ModeWindow(cutoff),
        CoveringPoint(BASE1),
        CoveringPoint(BASE2),
        standard_mollifier(EPS1),
        standard_mollifier(EPS2),
        probe_charges=(0,),
        v_cap=v_cap,
        w_cap=w_cap,
    )


def test_spec_validation_and_coupling():
    point = CoveringPoint(1.0)
    moll = standard_mollifier(0.4)
    with pytest.raises(ValueError):
        AnyonSpec(0.51, point, moll)
    # +0.0 at and just above the endpoint: a -0.0 would print as -0 in CSV rows
    for spin in (0.5, 0.5 + 4e-15):
        assert math.copysign(1.0, AnyonSpec(spin, point, moll).coupling) == 1.0
        assert AnyonSpec(spin, point, moll).coupling == 0.0
    assert AnyonSpec(0.0, point, moll).coupling == pytest.approx(-1.0)
    with pytest.warns(UserWarning):
        AnyonSpec(-4.6, point, moll)
    spec = AnyonSpec(0.25, point, moll)
    assert spec.localization.half_width == pytest.approx(0.4)


def test_blip_multiplier_hermitian_and_mean_drop():
    w = ModeWindow(6)
    moll = standard_mollifier(0.5)
    dropped = blip_multiplier(moll, w, 1.2)
    full = blip_multiplier(moll, w, 1.2, drop_mean=False)
    assert np.max(np.abs(dropped - dropped.conj().T)) == 0.0
    assert np.max(np.abs(full - dropped - math.pi * np.eye(w.size))) < 1e-12


def test_blip_multiplier_resolvability_guard():
    w = ModeWindow(4)
    with pytest.raises(WindowTooSmall):
        blip_multiplier(standard_mollifier(0.1), w, 0.0)


def test_half_spin_field_is_phased_shift():
    # at s = 1/2 the dressing drops out and all charge phases collapse to
    # the constant exp(i omega / 2) in front of the bare implementer
    w = ModeWindow(3)
    basis = FockBasis(w)
    omega = 2.2
    field = build_field(AnyonSpec(0.5, CoveringPoint(omega), standard_mollifier(0.6)), w)
    bare = implementer_shift(shift_operator(w), basis).to_dense()
    assert np.max(np.abs(field.operator.to_dense() - np.exp(0.5j * omega) * bare)) < 1e-12
    image = field.operator.apply(basis.vacuum())
    expected = np.exp(0.5j * omega) * basis.basis_vector(basis.mask_of(plus_modes=(0,)))
    assert np.max(np.abs(image - expected)) < 1e-12


def test_field_raises_charge_and_spreads_vacuum():
    w = ModeWindow(4)
    basis = FockBasis(w)
    field = build_field(AnyonSpec(0.25, CoveringPoint(BASE1), standard_mollifier(EPS1)), w)
    assert field.operator.sector_scan(tol=1e-12) == {1}
    image = field.operator.apply(basis.vacuum())
    assert np.count_nonzero(np.abs(image) > 1e-8) > 1
    assert 0.0 < field.coefficient_tail < 0.1


def test_build_field_dense_limit():
    with pytest.raises(ValueError):
        build_field(AnyonSpec(0.25, CoveringPoint(1.0), standard_mollifier(0.5)), ModeWindow(6))


def _forbid_fock_basis(monkeypatch):
    def refuse(self, window):
        raise AssertionError(f"FockBasis built at M={window.cutoff}")

    monkeypatch.setattr(fock.FockBasis, "__init__", refuse)


def test_resource_limits_raise_before_allocating():
    # one dense limit: the Fock basis stops at dimension 2048 (M = 5), and
    # dgamma, implementer_exp and build_field all need a basis, so none of
    # them is reachable past it
    assert FockBasis(ModeWindow(5)).dim == 2048
    for cutoff in (6, 40):
        # at M = 40 any allocation of the 2^81 basis would fail otherwise
        with pytest.raises(ResourceLimit):
            FockBasis(ModeWindow(cutoff))
    spec = AnyonSpec(0.25, CoveringPoint(1.0), standard_mollifier(0.5))
    with pytest.raises(ResourceLimit):
        build_field(spec, ModeWindow(6))
    assert issubclass(ResourceLimit, ValueError)


def test_rotation_scalar_exact_at_two_pi():
    # base reduction makes the free factor of U(2 pi) the identity, so U(2 pi)
    # is the scalar exp(2 pi i s q^2) on every charge sector
    basis = FockBasis(ModeWindow(4))
    for spin in (0.5, 0.25, -0.5):
        diag = rotation_rep(TWO_PI, spin, basis).to_dense().diagonal()
        for q in (-2, 0, 3):
            block = diag[basis.sector_masks(q)]
            assert np.all(block == block[0])
            assert abs(block[0] - np.exp(2j * np.pi * spin * q * q)) < 1e-12


def test_diagonal_apply_uses_sector_theta():
    w = ModeWindow(3)
    basis = FockBasis(w)
    q, spin, omega = 1, 0.3, 0.61
    masks = basis.sector_masks(q)
    diag = np.diag(rotation_rep(omega, spin, basis).to_dense()[np.ix_(masks, masks)])
    expected = np.exp(1j * spin * omega * q * q) * np.exp(-1j * omega * basis.theta[masks])
    assert np.max(np.abs(diag - expected)) < 1e-14


def test_rotation_rep_group_law():
    basis = FockBasis(ModeWindow(3))
    spin = 0.25
    a, b = 1.3, 5.7  # sum crosses the 2 pi boundary
    ua = rotation_rep(a, spin, basis).to_dense()
    ub = rotation_rep(b, spin, basis).to_dense()
    uab = rotation_rep(a + b, spin, basis).to_dense()
    assert np.max(np.abs(ua @ ub - uab)) < 1e-10
    ident = rotation_rep(0.0, spin, basis).to_dense()
    assert np.max(np.abs(ident - np.eye(basis.dim))) == 0.0


def test_predicted_phase_special_values():
    near = CoveringInterval(BASE1, 0.3)
    far = CoveringInterval(BASE2, 0.3)
    # winding of (far, near) is 0, so the product phase is -exp(2 pi i s)
    assert predicted_phase(0.5, far, near) == pytest.approx(1.0)
    assert predicted_phase(0.0, far, near) == pytest.approx(-1.0)
    assert predicted_phase(0.25, far, near) == pytest.approx(-1j)
    assert predicted_phase(0.25, far, near, "adjoint") == pytest.approx(1j)
    # reversed order has winding -1: -exp(-2 pi i s)
    assert predicted_phase(0.25, near, far) == pytest.approx(1j)
    with pytest.raises(OverlapError):
        predicted_phase(0.25, near, CoveringInterval(BASE1 + 0.1, 0.3))


def test_staged_tables_match_dense_same_arrangement():
    # the staged tables compute the dressings-last arrangement of the field
    # products; against dense matrices of that same arrangement the minor
    # route (gauge-signed minor determinants of the one-particle maps, probe
    # indexing) must agree to rounding
    spin = 0.25
    lam = -math.sqrt(1.0 - 2.0 * spin)
    w = ModeWindow(4)
    ctx = _context(4)
    tables = ctx.measure([spin])
    basis = FockBasis(w)
    g = implementer_shift(shift_operator(w), basis).to_dense()
    b1 = implementer_exp(OneParticleOperator(w, ctx.beta1), lam, basis).to_dense()
    b2 = implementer_exp(OneParticleOperator(w, ctx.beta2), lam, basis).to_dense()
    q = 0
    restore = np.exp(2j * lam * math.pi * q)  # dropped symbol means, twice
    v = _masks(basis, ctx.v_groups[q])
    ixp = np.ix_(_masks(basis, ctx.w_product[q]), v)
    ixa = np.ix_(_masks(basis, ctx.w_adjoint[q]), v)
    entry = tables[spin][q]
    assert np.max(np.abs(entry["fw"] - restore * (g @ g @ b1 @ b2)[ixp])) < 1e-12
    assert np.max(np.abs(entry["rv"] - restore * (g @ g @ b2 @ b1)[ixp])) < 1e-12
    assert np.max(np.abs(entry["afw"] - (b1 @ b2.conj().T)[ixa])) < 1e-12
    assert np.max(np.abs(entry["arv"] - (b2.conj().T @ b1)[ixa])) < 1e-12


def test_rearrangement_defect_is_truncation_error():
    # moving the dressings past the charge shifts is exact only in the
    # untruncated algebra; against the literal composed fields the staged
    # elements differ by an edge defect that shrinks as the window grows
    spin = 0.25
    spec1, spec2 = _specs(spin)
    defects = []
    for m in (4, 5):
        w = ModeWindow(m)
        ctx = _context(m)
        tables = ctx.measure([spin])
        f1 = build_field(spec1, w).operator.to_dense()
        f2 = build_field(spec2, w).operator.to_dense()
        basis = FockBasis(w)
        rows, cols = _masks(basis, ctx.w_product[0]), _masks(basis, ctx.v_groups[0])
        fw, rv = ctx.scaled_elements(tables, spin, BASE1, BASE2, "product")
        # only the probe rows and columns of the products are needed
        worst = max(
            np.max(np.abs(fw - (f1[rows, :] @ f2[:, cols]).ravel())),
            np.max(np.abs(rv - (f2[rows, :] @ f1[:, cols]).ravel())),
        )
        defects.append(float(worst))
    assert defects[1] < defects[0]
    assert defects[0] < 0.05


def test_half_spin_exchange_exact():
    spec1, spec2 = _specs(0.5)
    report = verify_commutation(spec1, spec2, ModeWindow(4), probe_charges=(0,), v_cap=8, w_cap=8)
    assert report.winding == -1
    assert report.product.error < 1e-12
    assert report.adjoint.error < 1e-12
    assert report.product.predicted == pytest.approx(-np.exp(2j * np.pi * 0.5 * (-1)))


def test_exchange_error_decreases_with_cutoff():
    spin = 0.25
    spec1, spec2 = _specs(spin)
    errors = []
    for m in (4, 6):
        report = verify_commutation(
            spec1, spec2, ModeWindow(m), probe_charges=(0,), v_cap=6, w_cap=6
        )
        errors.append(report.product.error)
    assert errors[1] < errors[0]
    assert errors[1] < 0.02


def test_winding_sweep_shares_tables_and_error():
    # charge prefactor scalars carry the whole winding dependence, so the
    # measured-vs-predicted error is the same at every winding
    spin = 0.0
    ctx = _context(4)
    tables = ctx.measure([spin])
    errors = []
    for k in (0, 1, 2):
        omega2 = BASE2 - TWO_PI * k
        phase, _ = ctx.exchange_phase(tables, spin, BASE1, omega2)
        n_rel = k - 1
        predicted = -np.exp(2j * np.pi * spin * (2 * n_rel + 1))
        errors.append(abs(phase - predicted))
    assert max(errors) - min(errors) < 1e-12


def test_two_pi_shift_multiplies_by_spin_phase():
    spin = 0.25
    ctx = _context(4)
    tables = ctx.measure([spin])
    base_phase, _ = ctx.exchange_phase(tables, spin, BASE1, BASE2)
    lifted_phase, _ = ctx.exchange_phase(tables, spin, BASE1 + TWO_PI, BASE2)
    ratio = lifted_phase / base_phase
    assert abs(ratio - np.exp(4j * np.pi * spin)) < 1e-12


def test_aux_relation_exact_at_half_spin():
    spec1, spec2 = _specs(0.5)
    result = verify_aux_commutation(spec1, spec2, ModeWindow(4), probe_charges=(0,), v_cap=6, w_cap=6)
    assert result.error < 1e-12
    assert result.predicted == pytest.approx(
        aux_predicted_phase(0.5, BASE1, BASE2, EPS1, EPS2)
    )


def test_aux_relation_converges():
    spin = 0.25
    spec1, spec2 = _specs(spin)
    errors = []
    for m in (4, 6):
        result = verify_aux_commutation(
            spec1, spec2, ModeWindow(m), probe_charges=(0,), v_cap=6, w_cap=6
        )
        errors.append(result.error)
    assert errors[1] < errors[0]


def test_spin_recurrence_and_sector_fit():
    # the full turn: the field at omega + 2 pi is the field at omega times
    # exp(2 pi i s (2q+1)) on each charge sector q
    turns = verify_rotation_covariance(
        (0.25, 0.0), CoveringPoint(BASE1), standard_mollifier(EPS1), ModeWindow(4), (TWO_PI,)
    )
    for turn in turns:
        assert sorted(turn.fresh) == [-2, -1, 0, 1, 2]
        assert turn.error < 1e-12
        for q, fresh in turn.fresh.items():
            phase = np.exp(2j * np.pi * turn.spin * (2 * q + 1))
            assert np.max(np.abs(fresh - phase * turn.plain[q])) < 1e-12


def _probes(window, charges=(-1, 0, 1), cap=6):
    return {
        q: tuple(pattern_probes(window, c, band=2, margin=0, cap=cap) for c in (q + 1, q))
        for q in charges
    }


def test_field_elements_match_dense_field():
    # the charged minors against the materialized field: full symbol and
    # dense exp(i lambda dG) there, mean-dropped symbol and exact restore here
    w = ModeWindow(4)
    basis = FockBasis(w)
    probes = _probes(w)
    for spin, omega in ((0.25, BASE1), (-0.5, BASE1 - TWO_PI), (0.5, BASE2 + 2 * TWO_PI)):
        spec = AnyonSpec(spin, CoveringPoint(omega), standard_mollifier(EPS1))
        dense = build_field(spec, w).operator.to_dense()
        beta = blip_multiplier(spec.mollifier, w, spec.omega.base)
        minors = field_elements(spin, omega, beta, w, probes)
        for q, (rows, cols) in probes.items():
            block = dense[np.ix_(_masks(basis, rows), _masks(basis, cols))]
            assert np.max(np.abs(minors[q] - block)) < 1e-12


def test_rotation_covariance_exact_at_every_window(monkeypatch):
    # the identity needs no interior probes and no Fock basis: M = 2 is all
    # edge, M = 16 is past the dense limit
    _forbid_fock_basis(monkeypatch)
    angles = (0.37, TWO_PI, -TWO_PI + 0.37, 3 * TWO_PI - 1.1)
    for cutoff in (2, 16):
        results = verify_rotation_covariance(
            (0.5, 0.0, 0.25, -0.5, 0.37), CoveringPoint(BASE2), standard_mollifier(EPS2),
            ModeWindow(cutoff), angles,
        )
        assert len(results) == 20
        assert max(r.error for r in results) < 1e-13


def test_exchange_context_needs_no_fock_basis(monkeypatch):
    # M = 16 is past the FockBasis cap; the minors need only raw-slot probes
    _forbid_fock_basis(monkeypatch)
    ctx = _context(16, v_cap=4, w_cap=4)
    tables = ctx.measure([0.5, 0.25])
    entry = tables[0.25][0]
    assert {name: arr.shape for name, arr in entry.items()} == {
        "fw": (4, 4), "rv": (4, 4), "afw": (4, 4), "arv": (4, 4)
    }
    phase, _ = ctx.exchange_phase(tables, 0.5, BASE1, BASE2)
    predicted = predicted_phase(0.5, CoveringInterval(BASE1, EPS1), CoveringInterval(BASE2, EPS2))
    assert abs(phase - predicted) < 1e-12


def test_exchange_context_runs_past_the_old_mask_width(monkeypatch):
    # probes are raw-slot arrays, so no 64-bit occupation mask bounds the
    # window: spin 1/2 stays exact in both pairings at M = 40 and 64
    _forbid_fock_basis(monkeypatch)
    intervals = CoveringInterval(BASE1, EPS1), CoveringInterval(BASE2, EPS2)
    for cutoff in (40, 64):
        ctx = _context(cutoff, v_cap=8, w_cap=8)
        tables = ctx.measure([0.5])
        for pairing in ("product", "adjoint"):
            phase, _ = ctx.exchange_phase(tables, 0.5, BASE1, BASE2, pairing)
            assert abs(phase - predicted_phase(0.5, *intervals, pairing)) < 1e-12


def test_exchange_context_guards():
    with pytest.raises(ValueError):
        _ = ExchangeContext(
            ModeWindow(1),
            CoveringPoint(BASE1),
            CoveringPoint(BASE2),
            standard_mollifier(EPS1),
            standard_mollifier(EPS2),
        )
    ctx = _context(4)
    tables = ctx.measure([0.5])
    with pytest.raises(ValueError):
        ctx.scaled_elements(tables, 0.5, BASE1 + 0.2, BASE2)
    with pytest.raises(ValueError):
        ctx.scaled_elements(tables, 0.5, BASE1, BASE2, pairing="sideways")
    with pytest.raises(ValueError):
        verify_commutation(
            AnyonSpec(0.5, CoveringPoint(BASE1), standard_mollifier(EPS1)),
            AnyonSpec(0.25, CoveringPoint(BASE2), standard_mollifier(EPS2)),
            ModeWindow(4),
        )
