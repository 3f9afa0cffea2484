"""Covering-circle arithmetic: projection, intervals, relative winding."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anyoncircle.covering import (
    TWO_PI,
    CoveringInterval,
    CoveringPoint,
    fractional_part,
    project,
    projections_disjoint,
    relative_winding,
    winding_number,
)
from anyoncircle.errors import OverlapError


def test_project_known_values():
    assert project(0.0) == (0.0, 0)
    base, winding = project(3.0 + 4.0 * TWO_PI)
    assert winding == 4
    assert base == pytest.approx(3.0, abs=1e-12)
    base, winding = project(-0.5)
    assert winding == -1
    assert base == pytest.approx(TWO_PI - 0.5, abs=1e-12)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_project_roundtrip(omega):
    base, winding = project(omega)
    assert 0.0 <= base < TWO_PI
    assert base + TWO_PI * winding == pytest.approx(omega, abs=1e-9 * max(1.0, abs(omega)))
    assert winding_number(omega) == winding
    assert fractional_part(omega) == base


def _boundary_values():
    """Multiples of 2*pi and their float neighbours, signed zeros,
    subnormals, and random values."""
    turns = np.arange(-5000, 5001) * TWO_PI
    tiny = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308]
    rng = np.random.default_rng(0)
    return np.concatenate([
        turns, np.nextafter(turns, np.inf), np.nextafter(turns, -np.inf), tiny,
        rng.uniform(-1e6, 1e6, 50_000), rng.normal(scale=10.0, size=50_000),
    ])


def test_array_project_matches_scalar_calls():
    values = _boundary_values()
    base, winding = project(values)
    assert base.dtype == np.float64 and winding.dtype == np.int64
    for omega, b, w in zip(values.tolist(), base.tolist(), winding.tolist()):
        scalar_base, scalar_winding = project(omega)
        assert type(scalar_base) is float and type(scalar_winding) is int
        # bitwise: the sign of a zero base must agree too
        assert math.copysign(1.0, scalar_base) == math.copysign(1.0, b)
        assert (scalar_base, scalar_winding) == (b, w)
        assert 0.0 <= b < TWO_PI
    assert np.array_equal(winding_number(values), winding)
    assert np.array_equal(fractional_part(values), base)


def test_interval_batches_match_single_intervals():
    rng = np.random.default_rng(3)
    centers = rng.uniform(-20.0, 20.0, size=(2, 400))
    widths = rng.uniform(0.05, 1.5, size=(2, 400))
    first = CoveringInterval(centers[0], widths[0])
    second = CoveringInterval(centers[1], widths[1])
    disjoint = projections_disjoint(first, second)
    assert disjoint.dtype == bool and 0 < disjoint.sum() < 400
    singles = [
        (CoveringInterval(float(c1), float(h1)), CoveringInterval(float(c2), float(h2)))
        for c1, c2, h1, h2 in zip(centers[0], centers[1], widths[0], widths[1])
    ]
    assert disjoint.tolist() == [projections_disjoint(a, b) for a, b in singles]
    with pytest.raises(OverlapError):
        relative_winding(first, second)
    keep = np.flatnonzero(disjoint)
    batch = relative_winding(
        CoveringInterval(centers[0, keep], widths[0, keep]),
        CoveringInterval(centers[1, keep], widths[1, keep]),
    )
    assert batch.tolist() == [relative_winding(*singles[i]) for i in keep]
    with pytest.raises(ValueError):
        CoveringInterval(centers[0], np.where(disjoint, widths[0], math.pi))


def test_covering_point_properties():
    p = CoveringPoint(7.0)
    assert p.winding == 1
    assert p.base == pytest.approx(7.0 - TWO_PI)
    assert CoveringPoint(p.omega + TWO_PI).winding == 2


def test_interval_coerces_float_center():
    iv = CoveringInterval(1.5, 0.3)
    assert isinstance(iv.center, CoveringPoint)
    assert iv.lower == pytest.approx(1.2)
    assert iv.upper == pytest.approx(1.8)


def test_interval_rejects_bad_half_width():
    with pytest.raises(ValueError):
        CoveringInterval(0.0, 0.0)
    with pytest.raises(ValueError):
        CoveringInterval(0.0, math.pi)


def test_projections_disjoint_cases():
    a = CoveringInterval(0.0, 0.3)
    b = CoveringInterval(1.0, 0.3)
    assert projections_disjoint(a, b)
    # open intervals: arcs separated by any positive gap are disjoint
    # (exact touching sits on a float boundary, so give it one nanoradian)
    c = CoveringInterval(0.6 + 1e-9, 0.3)
    assert projections_disjoint(a, c)
    d = CoveringInterval(0.5, 0.3)
    assert not projections_disjoint(a, d)
    # the same arc one sheet up overlaps itself
    assert not projections_disjoint(a, CoveringInterval(a.center.omega + TWO_PI, a.half_width))


def test_relative_winding_requires_disjoint():
    a = CoveringInterval(0.0, 0.4)
    with pytest.raises(OverlapError):
        relative_winding(a, CoveringInterval(0.1, 0.4))


def test_relative_winding_known():
    a = CoveringInterval(0.9, 0.65)
    b = CoveringInterval(3.9, 0.70)
    assert relative_winding(a, b) == -1
    assert relative_winding(b, a) == 0


disjoint_pairs = st.tuples(
    st.floats(min_value=-20.0, max_value=20.0),
    st.floats(min_value=0.05, max_value=0.7),
    st.floats(min_value=0.05, max_value=0.7),
    st.floats(min_value=0.02, max_value=1.0),
    st.integers(min_value=-3, max_value=3),
)


@given(disjoint_pairs)
@settings(max_examples=1000, deadline=None)
def test_winding_antisymmetry_and_shift(params):
    """N(I2, I1) = -N(I1, I2) - 1 and N(I1 + 2*pi*k, I2) = N + k."""
    center2, hw1, hw2, slack, k = params
    gap = hw1 + hw2 + slack
    first = CoveringInterval(center2 + gap, hw1)
    second = CoveringInterval(center2, hw2)
    if not projections_disjoint(first, second):
        return  # slack pushed the far endpoints back together around the circle
    n = relative_winding(first, second)
    assert relative_winding(second, first) == -n - 1
    lifted = CoveringInterval(first.center.omega + TWO_PI * k, hw1)
    assert relative_winding(lifted, second) == n + k
