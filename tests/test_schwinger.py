"""Central term of the current algebra, three routes cross-checked."""

import math

import numpy as np
import pytest

from anyoncircle.blip import blip, standard_mollifier
from anyoncircle.errors import SeparationViolation, WindowMismatch
from anyoncircle.modes import ModeWindow, analyze, multiplication_operator
from anyoncircle.schwinger import (
    schwinger_blip_closed_form,
    schwinger_quadrature,
    schwinger_trace,
)


def _rotated_blip(eps, center, window, grid=4096):
    return blip(standard_mollifier(eps), window, grid).periodic.shifted(center)


def test_sin_cos_frozen_value():
    # S(sin, cos) = (1/2 pi) * integral sin * (cos)' = -1/2
    w = ModeWindow(4)
    alpha = analyze(np.sin, w)
    beta = analyze(np.cos, w)
    assert schwinger_quadrature(alpha, beta).real == pytest.approx(-0.5, abs=1e-12)
    assert schwinger_quadrature(beta, alpha).real == pytest.approx(0.5, abs=1e-12)

    a_op = multiplication_operator(alpha, w)
    b_op = multiplication_operator(beta, w)
    assert schwinger_trace(a_op, b_op).real == pytest.approx(-0.5, abs=1e-12)
    assert abs(schwinger_trace(a_op, b_op).imag) < 1e-12


def test_antisymmetrized_route_agrees():
    w = ModeWindow(8)
    alpha = _rotated_blip(0.3, 1.0, w)
    beta = _rotated_blip(0.3, 4.0, w)
    plain = schwinger_quadrature(alpha, beta)
    # (1/4 pi) integral (alpha beta' - alpha' beta), equal by periodicity
    integrand = (
        alpha.samples * beta.derivative().samples - alpha.derivative().samples * beta.samples
    )
    anti = np.mean(integrand) / 2.0
    assert plain == pytest.approx(anti, abs=1e-10)


def test_closed_form_is_projected_distance_minus_pi():
    # base(0.9 - 3.9) - pi = (2 pi - 3) - pi = pi - 3, frozen by hand
    val = schwinger_blip_closed_form(0.9, 3.9, 0.3, 0.3)
    assert val == pytest.approx(math.pi - 3.0, abs=1e-14)
    # windings of the inputs are irrelevant
    shifted = schwinger_blip_closed_form(0.9 + 4 * math.pi, 3.9, 0.3, 0.3)
    assert shifted == pytest.approx(val, abs=1e-14)


def test_closed_form_rejects_touching_arcs():
    with pytest.raises(SeparationViolation):
        schwinger_blip_closed_form(0.0, 0.5, 0.3, 0.3)
    with pytest.raises(SeparationViolation):
        schwinger_blip_closed_form(0.0, 2.0 * math.pi - 0.5, 0.3, 0.3)


def test_quadrature_matches_closed_form():
    w = ModeWindow(32)
    alpha = _rotated_blip(0.3, 2.2, w)
    beta = _rotated_blip(0.35, 5.6, w)
    closed = schwinger_blip_closed_form(2.2, 5.6, 0.3, 0.35)
    assert schwinger_quadrature(alpha, beta).real == pytest.approx(closed, abs=1e-8)


def test_trace_route_converges_to_quadrature():
    errors = []
    for cutoff in (8, 16, 32, 64):
        w = ModeWindow(cutoff)
        alpha = _rotated_blip(0.3, 1.2, w)
        beta = _rotated_blip(0.3, 4.4, w)
        a_op = multiplication_operator(alpha, w)
        b_op = multiplication_operator(beta, w)
        trace_val = schwinger_trace(a_op, b_op)
        quad_val = schwinger_quadrature(alpha, beta)
        errors.append(abs(trace_val - quad_val))
    assert errors == sorted(errors, reverse=True)
    assert errors[-1] < 1e-6


def test_window_mismatch_raises():
    w8, w16 = ModeWindow(8), ModeWindow(16)
    a = multiplication_operator(_rotated_blip(0.3, 1.0, w8), w8)
    b = multiplication_operator(_rotated_blip(0.3, 4.0, w16), w16)
    with pytest.raises(WindowMismatch):
        schwinger_trace(a, b)
    with pytest.raises(WindowMismatch):
        schwinger_quadrature(
            _rotated_blip(0.3, 1.0, w8, grid=512), _rotated_blip(0.3, 4.0, w8, grid=1024)
        )
