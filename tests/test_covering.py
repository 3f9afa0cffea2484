"""Covering-circle arithmetic: projection, intervals, relative winding."""

import math

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
