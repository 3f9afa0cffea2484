"""Mollifiers and the smeared sawtooth profile."""

import importlib
import math

import numpy as np
import pytest
from scipy.integrate import quad

from anyoncircle.blip import blip, blip_derivative, standard_mollifier
from anyoncircle.covering import TWO_PI
from anyoncircle.errors import EpsilonOutOfRange
from anyoncircle.modes import ModeWindow, grid_points

# the package exports the function blip under the module's name
blip_module = importlib.import_module("anyoncircle.blip")


def test_mollifier_unit_mass_and_symmetry():
    chi = standard_mollifier(0.3)
    mass, _ = quad(lambda t: float(chi(t)), -0.3, 0.3, epsabs=1e-13)
    assert mass == pytest.approx(1.0, abs=1e-10)
    assert float(chi(0.15)) == pytest.approx(float(chi(-0.15)), abs=1e-14)
    assert float(chi(0.31)) == 0.0
    assert float(chi(-0.31)) == 0.0


def test_bump_mass_matches_high_precision_reference():
    # the normaliser is eps independent and computed once at import
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = mpmath.quad(lambda t: mpmath.exp(-1 / (1 - t * t)), [-1, 0, 1])
        err = abs(mpmath.mpf(blip_module._BUMP_MASS) - ref)
    assert float(err) < 3e-17


def test_mollifier_epsilon_range():
    with pytest.raises(EpsilonOutOfRange):
        standard_mollifier(0.0)
    with pytest.raises(EpsilonOutOfRange):
        standard_mollifier(math.pi / 2)


TAIL_EPSILONS = (0.3, 0.35, 0.45, 0.65, 0.70)


def _tail_points(eps):
    # interior spread plus points within 1e-3 of both support ends; 0.2107
    # at eps = 0.35 is where adaptive quad was furthest off (3e-13)
    edges = [eps - 1e-3, eps - 1e-4, -eps + 1e-3, -eps + 1e-4, 0.2107]
    return np.concatenate([np.linspace(-eps, eps, 19)[1:-1], edges])


@pytest.mark.parametrize("eps", TAIL_EPSILONS)
def test_tail_integral_matches_high_precision_reference(eps):
    mpmath = pytest.importorskip("mpmath")
    chi = standard_mollifier(eps)
    points = _tail_points(eps)
    got = chi.tail_integral(points)
    with mpmath.workdps(30):
        e = mpmath.mpf(eps)
        norm = mpmath.quad(lambda t: mpmath.exp(-1 / (1 - t * t)), [-1, 0, 1])

        def bump(x):
            return mpmath.exp(-1 / (1 - (x / e) ** 2)) / (norm * e)

        ref = [float(mpmath.quad(bump, [mpmath.mpf(float(a)), e])) for a in points]
    assert np.max(np.abs(got - np.array(ref))) < 1e-14


@pytest.mark.parametrize("eps", TAIL_EPSILONS)
def test_tail_integral_symmetry_clamps_and_scalar(eps):
    chi = standard_mollifier(eps)
    points = _tail_points(eps)
    assert np.max(np.abs(chi.tail_integral(points) + chi.tail_integral(-points) - 1.0)) < 1e-14
    assert chi.tail_integral(np.array([-2 * eps, -eps, eps, 2 * eps])).tolist() == [1, 1, 0, 0]
    for a in (-eps, 0.5 * eps, eps):
        assert type(chi.tail_integral(a)) is float


def test_tail_integral_blocks_match_single_points():
    # more interior points than one block holds: every block boundary must
    # give what the point gives on its own
    chi = standard_mollifier(0.4)
    points = np.linspace(-0.5, 0.5, 3001)
    whole = chi.tail_integral(points)
    for idx in (0, 301, 1324, 1325, 2348, 2349, 2699, 3000):
        assert whole[idx] == pytest.approx(chi.tail_integral(float(points[idx])), abs=1e-15)


def test_blip_linear_away_from_jump():
    chi = standard_mollifier(0.4)
    b = blip(chi, ModeWindow(8))
    xs = np.linspace(0.5, TWO_PI - 0.5, 17)
    assert np.max(np.abs(np.asarray(b.evaluate(xs)) - xs)) < 1e-10
    assert float(b.evaluate(math.pi)) == pytest.approx(math.pi, abs=1e-12)


def test_blip_value_at_jump_is_pi():
    # chi is even, so the smeared jump passes through the midpoint
    b = blip(standard_mollifier(0.3), ModeWindow(8))
    assert float(b.evaluate(0.0)) == pytest.approx(math.pi, abs=1e-10)


def test_blip_mean_and_range():
    b = blip(standard_mollifier(0.5), ModeWindow(16))
    assert b.periodic.mean().real == pytest.approx(math.pi, abs=1e-10)
    vals = np.real(b.periodic.samples)
    assert np.all(vals > 0.0)
    assert np.all(vals < TWO_PI)


def test_blip_odd_symmetry_about_pi():
    b = blip(standard_mollifier(0.35), ModeWindow(8))
    xs = np.linspace(0.01, TWO_PI - 0.01, 23)
    left = np.asarray(b.evaluate(xs))
    right = np.asarray(b.evaluate(TWO_PI - xs))
    assert np.max(np.abs(left + right - TWO_PI)) < 1e-10


def test_blip_derivative_closed_form():
    chi = standard_mollifier(0.4)
    b = blip(chi, ModeWindow(8))
    d = blip_derivative(b)
    xs = grid_points(d.grid_size)
    base = np.mod(xs, TWO_PI)
    expected = 1.0 - TWO_PI * (np.asarray(chi(base)) + np.asarray(chi(base - TWO_PI)))
    assert np.max(np.abs(d.samples - expected)) < 1e-12
    # interior: derivative is exactly 1; at the jump it dips by 2*pi*chi(0)
    assert float(np.real(d.samples[d.grid_size // 2])) == pytest.approx(1.0, abs=1e-12)
    assert float(np.real(d.samples[0])) == pytest.approx(
        1.0 - TWO_PI * float(chi(0.0)), abs=1e-12
    )


def test_blip_derivative_matches_spectral_derivative():
    # retained-coefficient comparison: closed form analyzed on the grid
    # against i*n times the profile coefficients
    b = blip(standard_mollifier(0.45), ModeWindow(32), 2048)
    closed = blip_derivative(b)
    spectral = b.periodic.derivative()
    assert np.max(np.abs(closed.coefficients - spectral.coefficients)) < 1e-8


def test_blip_derivative_has_zero_mean():
    b = blip(standard_mollifier(0.3), ModeWindow(32), 2048)
    d = blip_derivative(b)
    assert abs(d.mean()) < 1e-10


def test_blip_coefficients_decay_fast():
    # the bump transform oscillates through zeros, so compare dyadic-block
    # envelopes rather than single coefficients
    b = blip(standard_mollifier(0.5), ModeWindow(32), 4096)
    coeffs = b.periodic.coefficients
    n_max = b.periodic.n_max

    def envelope(lo, hi):
        return max(abs(coeffs[n_max + k]) for k in range(lo, min(hi, n_max + 1)))

    for n in (8, 16, 32):
        assert envelope(2 * n, 4 * n) < envelope(n, 2 * n) / 4.0
