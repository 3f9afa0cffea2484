"""Plane cones, the local Fermi factor, and tensor exchange phases."""

import numpy as np
import pytest
import scipy.sparse as sp

from anyoncircle import cones
from anyoncircle.acceptance import cone_scan
from anyoncircle.cones import (
    GeneralizedCone,
    cones_disjoint,
    cones_separated,
    direction_vector,
    fermi_exchange_elements,
    fermi_field,
    polygons_disjoint,
    tensor_exchange_from_parts,
)
from anyoncircle.cones import TestFunctionSpace as FunctionSpace
from anyoncircle.covering import TWO_PI, CoveringInterval, relative_winding
from anyoncircle.errors import DegenerateGeometry

ORIGIN = np.array([[0.0, 0.0]])


def _cone(apex_x, apex_y, center, half_width=0.3):
    return GeneralizedCone(np.array([[apex_x, apex_y]]), CoveringInterval(center, half_width))


def _random_cone(rng):
    k = int(rng.integers(1, 4))
    poly = rng.normal(scale=2.5, size=(k, 2))
    return GeneralizedCone(
        poly, CoveringInterval(rng.uniform(0, TWO_PI), rng.uniform(0.06, 1.0))
    )


def _turn(omega):
    # the plane rotation R(-omega) that shifts every direction label by +omega
    c, s = np.cos(omega), np.sin(omega)
    return np.array([[c, s], [-s, c]])


def _moved(cone, translation, rotation):
    """The cone under the plane motion x -> R(-rotation) x + translation."""
    interval = CoveringInterval(cone.directions.center.omega + rotation, cone.directions.half_width)
    return GeneralizedCone(cone.polygon @ _turn(rotation).T + translation, interval)


def test_direction_vector_convention():
    assert np.allclose(direction_vector(0.0), [0.0, 1.0])
    assert np.allclose(direction_vector(np.pi / 2), [1.0, 0.0])
    # labels are clockwise from north: R(-mu) e_y
    mu = 1.234
    assert np.allclose(_turn(mu) @ np.array([0.0, 1.0]), direction_vector(mu))


def test_cone_validation():
    with pytest.raises(DegenerateGeometry):
        GeneralizedCone(ORIGIN, CoveringInterval(0.0, np.pi / 2))
    with pytest.raises(DegenerateGeometry):
        GeneralizedCone(np.zeros((0, 2)), CoveringInterval(0.0, 0.3))
    with pytest.raises(DegenerateGeometry):
        GeneralizedCone(np.array([[np.inf, 0.0]]), CoveringInterval(0.0, 0.3))


def _contains(cone, point):
    # exact membership: the point projects into the region's interval on
    # each of the region's own axes, the normals of its edges
    axes = cones._axes(cone)
    lo, hi = cones._projection(cone, axes)
    x = cones._dot(np.asarray(point, dtype=float)[None, :], axes)[0]
    return bool(np.all((lo <= x) & (x <= hi)))


def test_point_membership():
    cone = _cone(0.0, 0.0, 0.3, 0.2)
    assert _contains(cone, np.zeros(2))
    assert _contains(cone, 5.0 * direction_vector(0.3))
    assert _contains(cone, 2.0 * direction_vector(0.45))
    assert not _contains(cone, 2.0 * direction_vector(0.3 + np.pi))
    assert not _contains(cone, 2.0 * direction_vector(1.2))


def test_disjointness_known_cases():
    back_to_back = (_cone(1.0, 0.0, np.pi / 2), _cone(-1.0, 0.0, 3 * np.pi / 2))
    assert cones_disjoint(*back_to_back)
    facing = (_cone(1.0, 0.0, 3 * np.pi / 2), _cone(-1.0, 0.0, np.pi / 2))
    assert not cones_disjoint(*facing)
    shared_apex = (_cone(0.0, 0.0, 0.0), _cone(0.0, 0.0, 1.0))
    assert not cones_disjoint(*shared_apex)
    assert polygons_disjoint(ORIGIN, ORIGIN + 1.0)
    assert not polygons_disjoint(
        np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]),
        np.array([[0.5, 0.5], [3.0, 3.0]]),
    )


def _polygon_cone(polygon, center, half_width=0.3):
    return GeneralizedCone(np.asarray(polygon, dtype=float), CoveringInterval(center, half_width))


SEGMENT = [[-1.0, 0.0], [1.0, 0.0]]
COLLINEAR = [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
# (first, second, disjoint); the lower ray of CoveringInterval(0.3, 0.3) and
# the upper ray of CoveringInterval(-0.3, 0.3) are exactly (0, 1)
DEGENERATE_CASES = {
    "one-vertex": (_cone(0.0, 0.0, 0.0), _cone(1.0, 0.0, np.pi / 2), True),
    "segment": (_polygon_cone(SEGMENT, 0.0), _cone(0.0, 3.0, np.pi), False),
    "collinear": (_polygon_cone(COLLINEAR, 0.0), _cone(2.5, 0.0, np.pi / 2), True),
    "collinear-overlap": (_polygon_cone(COLLINEAR, 0.0), _cone(0.0, -1.0, 0.0), False),
    "shared-ray": (_cone(0.0, 0.0, 0.3), _cone(0.0, 2.0, -0.3), False),
    "apex-on-ray": (_cone(0.0, 0.0, 0.3), _cone(0.0, 4.0, 1.5 * np.pi), False),
    "point-off-segment": (_polygon_cone(SEGMENT, 0.0), _cone(0.0, -1e-3, np.pi), True),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE_CASES))
def test_separating_axis_matches_lp_on_degenerate_geometry(case):
    first, second, disjoint = DEGENERATE_CASES[case]
    assert cones_disjoint(first, second) is disjoint
    assert cones_separated(first, second) is disjoint
    assert cones_separated(second, first) is disjoint


@pytest.mark.parametrize("scan_seed", [1234, 99, *range(1, 21)])
def test_separating_axis_matches_lp_on_scan(scan_seed):
    # seed 99 holds LP overlaps (pairs 17 and 23) that point sampling missed
    for first, second in cone_scan(100, scan_seed):
        assert cones_separated(first, second) == cones_disjoint(first, second)


def test_motion_equivariance_of_disjointness():
    rng = np.random.default_rng(78)
    for _ in range(30):
        c1, c2 = _random_cone(rng), _random_cone(rng)
        a, omega = rng.normal(scale=5.0, size=2), rng.uniform(-6, 6)
        m1, m2 = _moved(c1, a, omega), _moved(c2, a, omega)
        assert cones_disjoint(c1, c2) == cones_disjoint(m1, m2) == cones_separated(m1, m2)


def test_motion_moves_points_with_cones():
    cone = _cone(0.4, -0.2, 0.7, 0.25)
    a, omega = np.array([1.5, -0.7]), 0.9
    for radius in (0.0, 2.0, 7.0):
        x = np.array([0.4, -0.2]) + radius * direction_vector(0.7)
        assert _contains(_moved(cone, a, omega), _turn(omega) @ x + a)


def test_full_turn_lifts_direction_winding():
    cone = _cone(0.0, 0.0, 1.0, 0.2)
    turned = _moved(cone, np.zeros(2), TWO_PI)
    assert np.max(np.abs(turned.polygon - cone.polygon)) < 1e-12
    assert turned.directions.center.base == pytest.approx(cone.directions.center.base)
    other = CoveringInterval(4.0, 0.2)
    assert (
        relative_winding(turned.directions, other)
        == relative_winding(cone.directions, other) + 1
    )


def _two_function_space():
    # orthogonal pair with disjoint triangular supports
    polys = [
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[4.0, 0.0], [5.0, 0.0], [4.0, 1.0]]),
    ]
    return FunctionSpace(["f1", "f2"], np.eye(2), polys)


def test_space_validation():
    polys = [ORIGIN, ORIGIN + 3.0]
    with pytest.raises(ValueError):
        FunctionSpace(["f1", "f2"], np.array([[1.0, 1j], [1j, 1.0]]), polys)
    with pytest.raises(ValueError):
        FunctionSpace(["f1", "f2"], np.array([[1.0, 2.0], [2.0, 1.0]]), polys)
    with pytest.raises(ValueError):
        # disjoint supports with a nonzero overlap entry
        FunctionSpace(["f1", "f2"], np.array([[1.0, 0.5], [0.5, 1.0]]), polys)


def test_fermi_car_reproduces_gram():
    gram = np.array([[1.0, 0.3], [0.3, 2.0]])
    polys = [
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0.2, 0.2], [1.2, 0.2], [0.2, 1.2]]),
    ]  # overlapping supports, so the Gram entry may be nonzero
    space = FunctionSpace(["f1", "f2"], gram, polys)
    eye = np.eye(space.fock_dim)
    for i in range(2):
        for j in range(2):
            ann, cre = space.annihilator(i), space.creator(j)
            anti = (ann @ cre + cre @ ann).toarray()
            assert np.max(np.abs(anti - gram[i, j] * eye)) < 1e-12
            both = space.annihilator(i) @ space.annihilator(j)
            assert np.max(np.abs((both + space.annihilator(j) @ space.annihilator(i)).toarray())) < 1e-12
    psi = [fermi_field(i, space).toarray() for i in range(2)]
    for i in range(2):
        for j in range(2):
            anti = psi[i] @ psi[j] + psi[j] @ psi[i]
            assert np.max(np.abs(anti - 2.0 * gram[i, j] * eye)) < 1e-12


def test_disjoint_fermi_fields_anticommute_exactly():
    space = _two_function_space()
    fw, rv = fermi_exchange_elements(space, 0, 1)
    assert np.max(np.abs(fw + rv)) < 1e-12
    # real test functions: each field is self-adjoint, so the adjoint
    # pairing is the same anticommutator
    psi = fermi_field(0, space)
    assert np.max(np.abs((psi - psi.conj().T).toarray())) == 0.0


def test_tensor_exchange_factorizes():
    space = _two_function_space()
    rng = np.random.default_rng(5)
    c1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    c2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    fermi_fw, fermi_rv = fermi_exchange_elements(space, 0, 1)
    phase, dev = tensor_exchange_from_parts(fermi_fw, fermi_rv, c1 @ c2, c2 @ c1)
    t1 = sp.kron(fermi_field(0, space), sp.csr_matrix(c1)).toarray()
    t2 = sp.kron(fermi_field(1, space), sp.csr_matrix(c2)).toarray()
    from anyoncircle.fock import phase_from_elements

    direct, direct_dev = phase_from_elements((t1 @ t2).ravel(), (t2 @ t1).ravel())
    assert abs(phase - direct) < 1e-12
    assert dev == pytest.approx(direct_dev, abs=1e-12)
