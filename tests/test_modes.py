"""Mode windows, Fourier analysis, and one-particle operators."""

import math

import numpy as np
import pytest

from anyoncircle.blip import blip, standard_mollifier
from anyoncircle.covering import TWO_PI
from anyoncircle.errors import GridTooCoarse, ResourceLimit, WindowMismatch
from anyoncircle.modes import (
    ModeWindow,
    OneParticleOperator,
    PeriodicFunction,
    analyze,
    from_coefficients,
    grid_points,
    hs_offdiag_norm_sq,
    multiplication_operator,
    sawtooth_coefficients,
    shift_operator,
)

SQRT_TWO_PI = math.sqrt(TWO_PI)


def test_window_layout():
    w = ModeWindow(3)
    assert w.size == 7
    assert w.n_minus == 3
    assert w.n_plus == 4
    assert w.slot(-3) == 0
    assert w.slot(0) == 3
    assert w.slot(3) == 6
    with pytest.raises(ValueError):
        w.slot(4)
    with pytest.raises(ValueError):
        ModeWindow(0)


def test_analyze_constant_and_single_mode():
    w = ModeWindow(4)
    const = analyze(lambda x: np.ones_like(x), w)
    assert const.coefficient(0) == pytest.approx(SQRT_TWO_PI, abs=1e-12)
    assert abs(const.coefficient(2)) < 1e-12

    mode3 = analyze(lambda x: np.exp(3j * x), w)
    assert mode3.coefficient(3) == pytest.approx(SQRT_TWO_PI, abs=1e-12)
    assert abs(mode3.coefficient(-3)) < 1e-12
    assert abs(mode3.coefficient(0)) < 1e-12


def test_analyze_rejects_coarse_grid():
    with pytest.raises(GridTooCoarse):
        analyze(lambda x: np.cos(x), ModeWindow(8), grid_size=16)


def test_evaluate_matches_samples():
    w = ModeWindow(5)
    f = analyze(lambda x: np.cos(2.0 * x) + 0.5 * np.sin(x), w)
    xs = grid_points(f.grid_size)
    recon = np.asarray(f.evaluate(xs))
    assert np.max(np.abs(recon - f.samples)) < 1e-10


def test_derivative_and_shift_spectral():
    w = ModeWindow(6)
    f = analyze(lambda x: np.cos(3.0 * x), w)
    df = f.derivative()
    xs = grid_points(f.grid_size)
    assert np.max(np.abs(df.samples - (-3.0 * np.sin(3.0 * xs)))) < 1e-10
    g = f.shifted(0.7)
    assert np.max(np.abs(g.samples - np.cos(3.0 * (xs - 0.7)))) < 1e-10


def test_multiplication_operator_entries():
    w = ModeWindow(3)
    f = analyze(lambda x: np.exp(1j * x), w)
    op = multiplication_operator(f, w)
    expected = np.eye(w.size, k=-1)
    assert np.max(np.abs(op.matrix - expected)) < 1e-12

    const = analyze(lambda x: np.ones_like(x), w)
    ident = multiplication_operator(const, w)
    assert np.max(np.abs(ident.matrix - np.eye(w.size))) < 1e-12


def test_multiplication_operator_hermitian_for_real_symbol():
    w = ModeWindow(8)
    alpha = blip(standard_mollifier(0.4), w)
    op = multiplication_operator(alpha.periodic, w)
    assert np.max(np.abs(op.matrix - op.matrix.conj().T)) < 1e-10


def test_multiplication_needs_enough_coefficients():
    w = ModeWindow(5)
    f = analyze(lambda x: np.cos(x), ModeWindow(1))
    with pytest.raises(WindowMismatch):
        multiplication_operator(f, w)


def test_multiplication_operator_checks_the_byte_budget_first():
    # 2895^2 complex entries are 127.9 MiB, the last window under 128 MiB
    ModeWindow(1447).require_matrix_budget()
    w = ModeWindow(1448)
    n_max = 2 * w.cutoff
    f = PeriodicFunction(np.zeros(16), np.zeros(2 * n_max + 1), n_max)
    with pytest.raises(ResourceLimit, match="M=1448 needs 128.1 MiB"):
        multiplication_operator(f, w)


def test_block_views_partition_matrix():
    w = ModeWindow(2)
    mat = np.arange(25, dtype=float).reshape(5, 5)
    op = OneParticleOperator(w, mat)
    top = np.hstack([op.minus_minus, op.minus_plus])
    bottom = np.hstack([op.plus_minus, op.plus_plus])
    assert np.array_equal(np.vstack([top, bottom]), mat)
    assert op.matrix[w.slot(-2), w.slot(-2)] == 0.0
    assert op.matrix[w.slot(2), w.slot(2)] == 24.0


def _rotated(op, omega):
    # conjugation by the one-particle rotation U(omega) = diag(exp(-i n omega))
    phases = np.exp(-1j * op.window.modes * omega)
    return OneParticleOperator(op.window, op.matrix * np.outer(phases, phases.conj()))


def test_rotate_one_particle():
    w = ModeWindow(4)
    v = shift_operator(w)
    rot = _rotated(v, 0.9)
    assert np.max(np.abs(rot.matrix - np.exp(-0.9j) * v.matrix)) < 1e-12

    diag = OneParticleOperator(w, np.diag(np.arange(w.size, dtype=complex)))
    assert np.max(np.abs(_rotated(diag, 1.3).matrix - diag.matrix)) < 1e-12

    # rotating a multiplier equals multiplying by the shifted symbol
    alpha = blip(standard_mollifier(0.5), w)
    mult = multiplication_operator(alpha.periodic, w)
    direct = multiplication_operator(alpha.periodic.shifted(1.1), w)
    assert np.max(np.abs(_rotated(mult, 1.1).matrix - direct.matrix)) < 1e-10


def test_rotation_composes_exactly():
    # two symbol rotations give the multiplier of the combined rotation
    w = ModeWindow(3)
    alpha = blip(standard_mollifier(0.4), w).periodic
    once = multiplication_operator(alpha.shifted(0.4).shifted(0.8), w)
    combined = multiplication_operator(alpha.shifted(1.2), w)
    assert np.max(np.abs(once.matrix - combined.matrix)) < 1e-12


def test_hs_norm_identity_zero():
    w = ModeWindow(4)
    ident = OneParticleOperator(w, np.eye(w.size, dtype=complex))
    assert hs_offdiag_norm_sq(ident) == 0.0


def test_hs_norm_matches_windowed_mode_sum():
    # for multiplication by f the off-diagonal HS mass is the w(k)-weighted
    # coefficient series; check the two routes agree on a smooth profile
    w = ModeWindow(12)
    alpha = blip(standard_mollifier(0.5), w)
    op = multiplication_operator(alpha.periodic, w)
    direct = hs_offdiag_norm_sq(op)
    f = alpha.periodic.coefficient
    series = sum(
        min(k, 2 * w.cutoff + 1 - k) * (abs(f(k)) ** 2 + abs(f(-k)) ** 2)
        for k in range(1, 2 * w.cutoff + 1)
    ) / TWO_PI
    assert direct == pytest.approx(series, rel=1e-10)


def test_sawtooth_coefficients_exact():
    f = sawtooth_coefficients(6)
    assert f.mean() == pytest.approx(math.pi, abs=1e-12)
    assert f.coefficient(3) == pytest.approx(1j * SQRT_TWO_PI / 3, abs=1e-12)
    assert f.coefficient(-3) == pytest.approx(-1j * SQRT_TWO_PI / 3, abs=1e-12)


@pytest.mark.parametrize("n_max", [1, 3, 16, 129])
def test_from_coefficients_samples_are_the_retained_mode_synthesis(n_max):
    # one inverse FFT on the grid max(4n + 4, 16) against the direct sum
    # sum_n c_n exp(i n x_j) / sqrt(2 pi)
    rng = np.random.default_rng(n_max)
    coeffs = rng.normal(size=2 * n_max + 1) + 1j * rng.normal(size=2 * n_max + 1)
    ns = np.arange(-n_max, n_max + 1)
    for f in (from_coefficients(coeffs, n_max), sawtooth_coefficients(n_max)):
        xs = grid_points(max(4 * n_max + 4, 16))
        direct = np.exp(1j * np.outer(xs, ns)) @ f.coefficients / SQRT_TWO_PI
        assert f.samples.shape == direct.shape
        assert np.max(np.abs(f.samples - direct)) < 1e-13 * max(1.0, np.max(np.abs(direct)))
