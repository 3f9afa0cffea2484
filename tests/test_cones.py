"""Plane cones, the local Fermi factor, and tensor exchange phases."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

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
from anyoncircle.errors import DegenerateGeometry, ResourceLimit

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


def _lp_disjoint(poly1, rays1, poly2, rays2):
    """Reference verdict: infeasibility of the HiGHS feasibility LP for a
    point of conv(poly1) + cone(rays1) in conv(poly2) + cone(rays2)."""
    n1, n2 = len(poly1), len(poly2)
    off = n1 + len(rays1)
    a_eq = np.zeros((4, off + n2 + len(rays2)))
    a_eq[:2, :n1] = poly1.T
    a_eq[:2, n1:off] = np.reshape(rays1, (-1, 2)).T
    a_eq[:2, off:off + n2] = -poly2.T
    a_eq[:2, off + n2:] = -np.reshape(rays2, (-1, 2)).T
    a_eq[2, :n1] = 1.0
    a_eq[3, off:off + n2] = 1.0
    res = linprog(np.zeros(a_eq.shape[1]), A_eq=a_eq, b_eq=[0.0, 0.0, 1.0, 1.0],
                  bounds=(0, None), method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 2


def _lp_cones_disjoint(first, second):
    return _lp_disjoint(first.polygon, first.boundary_rays(), second.polygon, second.boundary_rays())


@pytest.mark.parametrize("case", sorted(DEGENERATE_CASES))
def test_separating_axis_matches_lp_on_degenerate_geometry(case):
    first, second, disjoint = DEGENERATE_CASES[case]
    assert _lp_cones_disjoint(first, second) is disjoint
    assert cones_disjoint(first, second) is disjoint
    assert cones_disjoint(second, first) is disjoint
    assert cones_separated(first, second) is disjoint
    assert cones_separated(second, first) is disjoint


@pytest.mark.parametrize("scan_seed", [1234, 99, *range(1, 41)])
def test_separating_axis_matches_lp_on_scan(scan_seed):
    # seed 99 holds LP overlaps (pairs 17 and 23) that point sampling missed;
    # the meeting witness and the separating axis are the two Farkas
    # alternatives, so exactly one holds, in either order of the pair
    for first, second in cone_scan(100, scan_seed):
        disjoint = _lp_cones_disjoint(first, second)
        assert cones_disjoint(first, second) == cones_disjoint(second, first) == disjoint
        assert cones_separated(first, second) == disjoint


def test_polygon_witness_matches_lp_on_random_pairs():
    rng = np.random.default_rng(2024)
    verdicts = []
    for _ in range(500):
        poly1 = rng.normal(size=(int(rng.integers(1, 5)), 2))
        poly2 = rng.normal(size=(int(rng.integers(1, 5)), 2)) + rng.normal(scale=0.5, size=2)
        disjoint = _lp_disjoint(poly1, (), poly2, ())
        assert polygons_disjoint(poly1, poly2) == polygons_disjoint(poly2, poly1) == disjoint
        verdicts.append(disjoint)
    # both verdicts occur often enough to pin the witness either way
    assert 100 < sum(verdicts) < 400


def _ngon(count, center, phase=0.0):
    turns = phase + np.linspace(0.0, 2 * np.pi, count, endpoint=False)
    return np.column_stack([np.cos(turns), np.sin(turns)]) + np.asarray(center)


def test_witness_runs_on_the_hull_of_the_polygon_difference():
    # 1,600 vertex differences, of which the 80 hull vertices are generators;
    # the turned second polygon reaches 0.99875 to the left of its centre
    first = _ngon(40, (0.0, 0.0))
    for gap in (-1e-2, 1e-2):
        second = _ngon(40, (2.0 + gap, 0.0), phase=0.05)
        disjoint = _lp_disjoint(first, (), second, ())
        assert disjoint is (gap > 0)
        assert polygons_disjoint(first, second) is disjoint
    # 140 hull vertices pass the generator limit, before any subset is solved
    with pytest.raises(ResourceLimit):
        polygons_disjoint(_ngon(70, (0.0, 0.0)), _ngon(70, (3.0, 0.0), phase=0.01))


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
