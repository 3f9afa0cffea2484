"""Cone-localized plane extension: convex geometry, a finite local Fermi
field, and the tensor combination with the circle field.

A generalized cone is a convex support polygon together with a covering
interval of asymptotic directions of opening below pi; its projection to the
plane is the Minkowski sum of the polygon with the closed ray cone spanned
by the two boundary directions.  Disjointness of two such regions is the
pair of alternatives of Farkas' lemma, and both are computed: a meeting
witness, a nonnegative combination of the lifted generators found among
their subsets of one to three (conic Caratheodory), and a separating axis
among the normals of both regions' hull edges and boundary rays.  Neither
needs a linear-programming solver.

Test functions on the plane enter only through their Gram matrix and their
support polygons, so the Fermi factor is represented exactly on a small
fermionic Fock space whose ladder operators reproduce the Gram-modified
anticommutation relations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .covering import CoveringInterval
from .errors import DegenerateGeometry, ResourceLimit
from .fock import phase_from_elements
from .modes import ARRAY_BUDGET_BYTES


def direction_vector(mu: float) -> np.ndarray:
    """Unit direction n_mu = R(-mu) (0, 1) = (sin mu, cos mu)."""
    return np.array([np.sin(mu), np.cos(mu)])


def _validate_polygon(polygon: np.ndarray) -> np.ndarray:
    poly = np.asarray(polygon, dtype=float)
    if poly.ndim != 2 or poly.shape[1] != 2 or poly.shape[0] == 0:
        raise DegenerateGeometry("support polygon must be a nonempty list of plane points")
    if not np.all(np.isfinite(poly)):
        raise DegenerateGeometry("support polygon has non-finite vertices")
    return poly


@dataclass(frozen=True)
class GeneralizedCone:
    polygon: np.ndarray
    directions: CoveringInterval

    def __post_init__(self):
        object.__setattr__(self, "polygon", _validate_polygon(self.polygon))
        if self.directions.half_width >= np.pi / 2:
            raise DegenerateGeometry("direction interval must have opening below pi")

    def boundary_rays(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            direction_vector(self.directions.lower),
            direction_vector(self.directions.upper),
        )


# generators the meeting witness accepts: C(128, 3) = 341,376 subsets of
# three, a 25 MB stack of 3x3 systems
_WITNESS_MAX_GENERATORS = 128


@lru_cache(maxsize=16)
def _subsets(count: int) -> tuple[np.ndarray, ...]:
    """Index arrays of every subset of 1, 2 and 3 of ``count`` generators."""
    return tuple(
        np.array(list(combinations(range(count), k)), dtype=np.intp)
        for k in range(1, min(count, 3) + 1)
    )


def _hull(points: np.ndarray) -> np.ndarray:
    """Vertices of the convex hull of plane points (Andrew's monotone chain),
    without repeated or collinear points."""
    pts = sorted(set(map(tuple, points.tolist())))
    if len(pts) < 3:
        return np.array(pts)

    def chain(seq):
        out = []
        for x, y in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (y - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (x - out[-2][0])
            ) <= 0:
                out.pop()
            out.append((x, y))
        return out[:-1]

    return np.array(chain(pts) + chain(pts[::-1]))


def _intersection_witness(
    poly1: np.ndarray, rays1: tuple[np.ndarray, ...], poly2: np.ndarray, rays2: tuple[np.ndarray, ...]
) -> bool:
    """Whether conv(poly1) + cone(rays1) meets conv(poly2) + cone(rays2).

    The regions meet exactly when (0, 0, 1) is a nonnegative combination of
    the lifted generators (d, 1), d a vertex of conv(poly1 - poly2), and
    (r, 0), r in rays1 and -rays2; by conic Caratheodory some one to three
    linearly independent generators then suffice, so one batched
    least-squares solve per subset size decides it.  A subset witnesses the
    meeting when it reproduces (0, 0, 1) to 1e-9 of the generator scale with
    coefficients no lower than -1e-9.
    """
    diffs = _hull((poly1[:, None, :] - poly2[None, :, :]).reshape(-1, 2))
    rays = np.array([*rays1, *(-r for r in rays2)]).reshape(-1, 2)
    gens = np.vstack([
        np.column_stack([diffs, np.ones(len(diffs))]),
        np.column_stack([rays, np.zeros(len(rays))]),
    ])
    if len(gens) > _WITNESS_MAX_GENERATORS:
        raise ResourceLimit(
            f"the meeting witness needs {len(gens)} generators (hull vertices of "
            f"the polygon difference and rays); the limit is {_WITNESS_MAX_GENERATORS}"
        )
    target = np.array([0.0, 0.0, 1.0])
    tol = 1e-9 * np.max(np.abs(gens))
    for subset in _subsets(len(gens)):
        cols = gens[subset].transpose(0, 2, 1)
        coef = np.linalg.pinv(cols) @ target
        residual = np.linalg.norm((cols @ coef[:, :, None])[:, :, 0] - target, axis=1)
        if np.any((residual <= tol) & (coef >= -1e-9).all(axis=1)):
            return True
    return False


def cones_disjoint(cone1: GeneralizedCone, cone2: GeneralizedCone) -> bool:
    """Exact disjointness of the two projected cone regions."""
    return not _intersection_witness(
        cone1.polygon, cone1.boundary_rays(), cone2.polygon, cone2.boundary_rays()
    )


def polygons_disjoint(poly1: np.ndarray, poly2: np.ndarray) -> bool:
    return not _intersection_witness(_validate_polygon(poly1), (), _validate_polygon(poly2), ())


def _dot(vectors: np.ndarray, axes: np.ndarray) -> np.ndarray:
    # elementwise, so that a ray against its own normal (-d_y, d_x) gives
    # exactly 0, where a fused multiply-add would leave a rounding residue
    return vectors[:, None, 0] * axes[None, :, 0] + vectors[:, None, 1] * axes[None, :, 1]


def _axes(cone: GeneralizedCone) -> np.ndarray:
    """Unnormalised normals of every vertex-pair edge and both boundary rays."""
    poly = cone.polygon
    i, j = np.triu_indices(poly.shape[0], 1)
    edges = np.vstack([poly[j] - poly[i], *cone.boundary_rays()])
    return np.column_stack([-edges[:, 1], edges[:, 0]])


def _projection(cone: GeneralizedCone, axes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interval [lo, hi] of the region on each axis, infinite where a ray points."""
    support = _dot(cone.polygon, axes)
    reach = _dot(np.array(cone.boundary_rays()), axes)
    lo = np.where((reach < 0).any(axis=0), -np.inf, support.min(axis=0))
    hi = np.where((reach > 0).any(axis=0), np.inf, support.max(axis=0))
    return lo, hi


def cones_separated(cone1: GeneralizedCone, cone2: GeneralizedCone) -> bool:
    """Separating-axis disjointness of the two closed cone regions, without an LP.

    Two closed convex polyhedra in the plane are disjoint exactly when their
    projections on the normal of some edge of one of them are disjoint
    intervals; the edges are hull edges and boundary rays, so the vertex-pair
    and ray normals of both cones cover every candidate.
    """
    axes = np.vstack([_axes(cone1), _axes(cone2)])
    lo1, hi1 = _projection(cone1, axes)
    lo2, hi2 = _projection(cone2, axes)
    return bool(np.any((hi1 < lo2) | (hi2 < lo1)))


@dataclass
class TestFunctionSpace:
    """Abstract real plane test functions: labels, Gram matrix, supports."""

    labels: list[str]
    gram: np.ndarray
    polygons: list[np.ndarray]
    _mode_vectors: np.ndarray = field(init=False, repr=False)
    _ladders: dict | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        k = len(self.labels)
        # the Fock operators are dense complex (2^k, 2^k) arrays
        need = 16 << (2 * k)
        if need > ARRAY_BUDGET_BYTES:
            raise ResourceLimit(
                f"{k} test functions need a {need / 2**20:.0f} MiB Fock operator; "
                f"the budget is {ARRAY_BUDGET_BYTES >> 20} MiB"
            )
        self.gram = np.asarray(self.gram, dtype=complex)
        if self.gram.shape != (k, k):
            raise ValueError("Gram matrix shape does not match the label count")
        if np.max(np.abs(self.gram - self.gram.conj().T)) > 1e-12:
            raise ValueError("Gram matrix must be Hermitian")
        eigvals, eigvecs = np.linalg.eigh(self.gram)
        if eigvals[0] < -1e-10 * max(1.0, eigvals[-1]):
            raise ValueError("Gram matrix must be positive semidefinite")
        self.polygons = [_validate_polygon(p) for p in self.polygons]
        if len(self.polygons) != k:
            raise ValueError("one support polygon per test function required")
        for i in range(k):
            for j in range(i + 1, k):
                if polygons_disjoint(self.polygons[i], self.polygons[j]):
                    if abs(self.gram[i, j]) > 1e-12:
                        raise ValueError(
                            f"disjoint supports {self.labels[i]}, {self.labels[j]} "
                            "require a vanishing Gram entry"
                        )
        clipped = np.clip(eigvals, 0.0, None)
        self._mode_vectors = np.sqrt(clipped)[:, None] * eigvecs.conj().T

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def fock_dim(self) -> int:
        return 1 << self.size

    def _ladder(self, k: int) -> np.ndarray:
        """Annihilator of orthonormal mode k on the 2^size-dimensional space."""
        if self._ladders is None:
            self._ladders = {}
        if k not in self._ladders:
            dim = self.fock_dim
            masks = np.arange(dim, dtype=np.int64)
            bit = np.int64(1) << k
            src = masks[(masks & bit) != 0]
            signs = 1.0 - 2.0 * (np.bitwise_count(src & (bit - 1)).astype(np.int64) & 1)
            ladder = np.zeros((dim, dim), dtype=complex)
            ladder[src ^ bit, src] = signs
            self._ladders[k] = ladder
        return self._ladders[k]

    def creator(self, i: int) -> np.ndarray:
        """c*(f_i) as a sum of orthonormal-mode creators."""
        total = np.zeros((self.fock_dim, self.fock_dim), dtype=complex)
        for k in range(self.size):
            coeff = self._mode_vectors[k, i]
            if coeff != 0:
                total = total + coeff * self._ladder(k).conj().T
        return total

    def annihilator(self, i: int) -> np.ndarray:
        return self.creator(i).conj().T


def fermi_field(i: int, space: TestFunctionSpace) -> np.ndarray:
    """Psi(f_i) = c*(f_i) + c(f_i), self-adjoint since f_i is real."""
    return space.creator(i) + space.annihilator(i)


def fermi_exchange_elements(
    space: TestFunctionSpace, i: int, j: int
) -> tuple[np.ndarray, np.ndarray]:
    """Dense element tables of Psi_i Psi_j against Psi_j Psi_i."""
    psi_i = fermi_field(i, space)
    psi_j = fermi_field(j, space)
    return psi_i @ psi_j, psi_j @ psi_i


def tensor_exchange_from_parts(
    fermi_forward: np.ndarray,
    fermi_reversed: np.ndarray,
    circle_forward: np.ndarray,
    circle_reversed: np.ndarray,
    floor: float = 1e-10,
) -> tuple[complex, float]:
    """Exchange phase of the tensor fields from factor element tables.

    Matrix elements of a Kronecker product factorize exactly, so the tensor
    tables are the outer products of the factor tables.
    """
    fw = np.kron(fermi_forward.ravel(), circle_forward.ravel())
    rv = np.kron(fermi_reversed.ravel(), circle_reversed.ravel())
    return phase_from_elements(fw, rv, floor=floor)
