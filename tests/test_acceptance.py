"""Acceptance gate: every verified claim at its stated tolerance.

One test per claim, printing a visible pass/fail line with the numeric
margin.  The exchange sweep shared by the commutation and cone claims is
built once by the module fixture; its largest window dominates the
runtime (several minutes).
"""

import math
import tracemalloc

import numpy as np
import pytest

from anyoncircle import acceptance, anyon, cones, covering, fock
from anyoncircle.acceptance import (
    CLAIM_IDS,
    ExchangeSweep,
    check_cone_theorem,
    check_exchange_phases,
    claim_checks,
    load_calibration,
)
from anyoncircle.blip import standard_mollifier
from anyoncircle.modes import from_coefficients


@pytest.fixture(scope="module")
def results():
    out = {}
    for claim_id, runner in claim_checks():
        out[claim_id] = runner()
    return out


def _verdict(results, claim_id, capsys):
    res = results[claim_id]
    with capsys.disabled():
        status = "PASS" if res.passed else "FAIL"
        print(
            f"\n{status} {claim_id:<28} margin {res.margin:+.3e}  "
            f"cases {len(res.rows):3d}  {res.elapsed_s:7.1f}s"
        )
    assert res.passed, f"{claim_id}: margin {res.margin:+.3e}"


def test_claim_registry_complete(results):
    assert tuple(results) == CLAIM_IDS


def test_schwinger_closed_form(results, capsys):
    _verdict(results, "prop-schwinger-blip", capsys)


def test_hs_dichotomy(results, capsys):
    _verdict(results, "lemma-hs-dichotomy", capsys)


def test_implementer_algebra(results, capsys):
    _verdict(results, "lemma-implementer", capsys)


def test_implementer_crossval(results, capsys):
    _verdict(results, "eq-implementerdef-crossval", capsys)


def test_exchange_phases(results, capsys):
    _verdict(results, "lemma-commutation", capsys)


def test_two_pi_shift_rule(results, capsys):
    _verdict(results, "thm1-2pi-shift", capsys)


def test_spin_recurrence(results, capsys):
    _verdict(results, "thm1-recurrence", capsys)


def test_rotation_identities(results, capsys):
    _verdict(results, "eq-rotrep", capsys)


def test_cone_tensor_exchange(results, capsys):
    _verdict(results, "thm-cones", capsys)


def test_winding_algebra(results, capsys):
    _verdict(results, "winding-algebra", capsys)


# ------------------------------------------------------- planted defects
# Each test plants a defect in the code path a claim exists to check and
# asserts that the claim then fails on the smoke schedule (one window,
# thresholds scaled by 4), where the honest code passes.

SMOKE_CUTOFFS = (4,)
SMOKE_SCALE = 4.0


def _smoke_commutation():
    sweep = ExchangeSweep(load_calibration(), SMOKE_CUTOFFS, SMOKE_SCALE)
    return check_exchange_phases(sweep)


def _row_errors(result, pairing):
    return {r.case_id: r.abs_error for r in result.rows if f"-{pairing}-" in r.case_id}


def test_smoke_commutation_passes_without_defect():
    assert _smoke_commutation().passed


def test_commutation_fails_when_both_dressings_use_beta1(monkeypatch):
    class OneSymbol(anyon.ExchangeContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.beta2 = self.beta1

    monkeypatch.setattr(acceptance, "ExchangeContext", OneSymbol)
    assert not _smoke_commutation().passed


def test_commutation_fails_when_adjoint_core_uses_u2(monkeypatch):
    clean = _smoke_commutation()
    honest = anyon.dressing_unitary

    def without_adjoint(matrix, t, window):
        # every coupling in the tables is lambda <= 0 except the -lambda of
        # the adjoint dressing D2*, so this builds U2 where U2* belongs
        return honest(matrix, -abs(t), window)

    monkeypatch.setattr(anyon, "dressing_unitary", without_adjoint)
    planted = _smoke_commutation()
    assert not planted.passed
    assert _row_errors(planted, "product") == _row_errors(clean, "product")
    assert _row_errors(planted, "adjoint") != _row_errors(clean, "adjoint")


def _smoke_cones(scan_seed):
    sweep = ExchangeSweep(load_calibration(), SMOKE_CUTOFFS, SMOKE_SCALE)
    return check_cone_theorem(sweep, scan_seed=scan_seed)


def _scan_disagreements(result):
    return sum(r.abs_error for r in result.rows if r.case_id.startswith("cone-scan-"))


def test_cones_pass_at_scan_seed_99():
    # pairs 17 and 23 are LP overlaps that point sampling never witnessed
    result = _smoke_cones(99)
    assert result.passed
    assert _scan_disagreements(result) == 0


def test_cones_fail_when_lp_sees_one_ray(monkeypatch):
    # the meeting witness sees only the first boundary ray of each cone
    honest = cones._intersection_witness

    def first_ray_only(poly1, rays1, poly2, rays2):
        return honest(poly1, rays1[:1], poly2, rays2[:1])

    monkeypatch.setattr(cones, "_intersection_witness", first_ray_only)
    planted = _smoke_cones(acceptance.CONE_SCAN_SEED)
    assert not planted.passed
    assert _scan_disagreements(planted) > 0


# The implementer claims build their own dense window; cutoff 3 keeps it small.


def test_implementer_claims_pass_without_defect_at_cutoff_3():
    assert acceptance.check_implementer_crossval(cutoff=3).passed
    assert acceptance.check_implementer_algebra(cutoff=3).passed


def test_implementer_claims_build_no_full_fock_matrix_at_the_dense_limit():
    # at M = 5 one 2048 x 2048 complex array is 64 MiB; the matrix-free
    # claims work on probe and scan blocks of at most 2048 x 64 entries
    tracemalloc.start()
    try:
        assert acceptance.check_implementer_algebra(cutoff=5).passed
        assert acceptance.check_implementer_crossval(cutoff=5).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_crossval_fails_when_minus_block_is_untransposed(monkeypatch):
    honest = fock.gamma_multiplicative

    def untransposed(plus_block, minus_block, basis):
        # E_c takes G_-(Z--^T); undo the transpose
        return honest(plus_block, minus_block.T, basis)

    monkeypatch.setattr(fock, "gamma_multiplicative", untransposed)
    assert not acceptance.check_implementer_crossval(cutoff=3).passed


def test_implementer_algebra_fails_with_reversed_charge_rotation(monkeypatch):
    honest = acceptance._charge_rotation
    monkeypatch.setattr(acceptance, "_charge_rotation", lambda basis, omega: honest(basis, -omega))
    planted = acceptance.check_implementer_algebra(cutoff=3)
    assert not planted.passed
    assert all(
        r.abs_error > 0.1 for r in planted.rows if r.case_id.startswith("implementer-covariance")
    )


# The rotation claims at the smoke sizes: recurrence at M = 4, covariance
# at M = 3 and the group law at M = 3.


def _rotation_claims():
    return (
        acceptance.check_spin_recurrence(cutoff=4),
        acceptance.check_rotation_identities(cutoff=3, dense_cutoff=3),
    )


def test_rotation_claims_pass_without_defect():
    assert all(result.passed for result in _rotation_claims())


def test_rotation_claims_fail_on_noise_elements(monkeypatch):
    # a claim about the field must notice when its elements are noise
    rng = np.random.default_rng(11)

    def noise(matrix, rows, cols, window, creations=0):
        shape = (len(rows), len(cols))
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    monkeypatch.setattr(anyon, "wedge_elements", noise)
    assert not any(result.passed for result in _rotation_claims())


def test_rotation_claims_fail_with_moved_fresh_blip(monkeypatch):
    honest = anyon.field_elements

    def moved(spin, omega, beta, window, probes):
        if omega != acceptance.ROTATION_CENTER:
            # the side built afresh at omega1 + omega gets its blip 1e-3 off
            base = anyon.project(omega)[0] + 1e-3
            mollifier = standard_mollifier(acceptance.ROTATION_EPSILON)
            beta = anyon.blip_multiplier(mollifier, window, base)
        return honest(spin, omega, beta, window, probes)

    monkeypatch.setattr(anyon, "field_elements", moved)
    recurrence, rotation = _rotation_claims()
    assert not recurrence.passed and not rotation.passed
    # at s = 1/2 the dressing, and with it the blip, drops out
    for row in rotation.rows:
        if row.case_id.startswith("rotation-covariance-s0.25"):
            assert row.abs_error > 1e-4


def test_rotation_claims_fail_with_base_angle_prefactor(monkeypatch):
    honest = anyon.charge_prefactor
    monkeypatch.setattr(
        anyon, "charge_prefactor",
        lambda spin, omega, charge: honest(spin, anyon.project(omega)[0], charge),
    )
    recurrence, rotation = _rotation_claims()
    assert not recurrence.passed and not rotation.passed
    # the prefactor is trivial at s = 0, so those rows stay exact
    for row in rotation.rows + recurrence.rows:
        if "-s0-" in row.case_id:
            assert row.abs_error < 1e-12


def test_hs_dichotomy_fails_with_steeper_sawtooth(monkeypatch):
    assert acceptance.check_hs_dichotomy().passed
    honest = acceptance.sawtooth_coefficients

    def steeper(n_max):
        # coefficients falling as k^(-3/2) in place of 1/k
        exact = honest(n_max)
        k = np.maximum(np.abs(np.arange(-n_max, n_max + 1)), 1)
        return from_coefficients(exact.coefficients / np.sqrt(k), n_max)

    monkeypatch.setattr(acceptance, "sawtooth_coefficients", steeper)
    planted = acceptance.check_hs_dichotomy()
    assert not planted.passed and planted.margin < 0


def test_winding_algebra_fails_when_negative_separations_are_off_by_one(monkeypatch):
    assert acceptance.check_winding_algebra().passed
    honest = covering.winding_number
    monkeypatch.setattr(
        covering, "winding_number", lambda omega: honest(omega) + np.where(omega < 0, 1, 0)
    )
    planted = acceptance.check_winding_algebra()
    assert not planted.passed and planted.margin < 0


# ------------------------------------------------------------ gate soundness


def test_gate_fails_on_nan_slack():
    gate = acceptance._Gate()
    gate.below(0.0, 1.0)
    gate.below(math.nan, 1e-9)
    assert not gate.passed
    assert gate.margin == -math.inf
    gate = acceptance._Gate()
    gate.decrease(math.nan, 0.0)
    assert not gate.passed
