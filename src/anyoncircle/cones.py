"""Cone-localized plane extension: convex geometry, a finite local Fermi
field, and the tensor combination with the circle field.

A generalized cone is a convex support polygon together with a covering
interval of asymptotic directions of opening below pi; its projection to the
plane is the Minkowski sum of the polygon with the closed ray cone spanned
by the two boundary directions.  Disjointness of two such regions is an
exact convex feasibility question, decided by linear programming, and
cross-checked by an exact separating-axis predicate that projects both
regions on the normals of their hull edges and boundary rays.

Test functions on the plane enter only through their Gram matrix and their
support polygons, so the Fermi factor is represented exactly on a small
fermionic Fock space whose ladder operators reproduce the Gram-modified
anticommutation relations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .covering import CoveringInterval
from .errors import DegenerateGeometry
from .fock import phase_from_elements


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


def _intersection_lp(
    poly1: np.ndarray, rays1: tuple[np.ndarray, ...], poly2: np.ndarray, rays2: tuple[np.ndarray, ...]
) -> bool:
    """Feasibility of conv(poly1) + cone(rays1) meeting conv(poly2) + cone(rays2)."""
    n1, n2 = poly1.shape[0], poly2.shape[0]
    r1, r2 = len(rays1), len(rays2)
    n_var = n1 + r1 + n2 + r2
    a_eq = np.zeros((4, n_var))
    b_eq = np.array([0.0, 0.0, 1.0, 1.0])
    a_eq[0, :n1] = poly1[:, 0]
    a_eq[1, :n1] = poly1[:, 1]
    for k, d in enumerate(rays1):
        a_eq[0, n1 + k] = d[0]
        a_eq[1, n1 + k] = d[1]
    off = n1 + r1
    a_eq[0, off : off + n2] = -poly2[:, 0]
    a_eq[1, off : off + n2] = -poly2[:, 1]
    for k, d in enumerate(rays2):
        a_eq[0, off + n2 + k] = -d[0]
        a_eq[1, off + n2 + k] = -d[1]
    a_eq[2, :n1] = 1.0
    a_eq[3, off : off + n2] = 1.0
    res = linprog(np.zeros(n_var), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status == 0:
        return True
    if res.status == 2:
        return False
    raise DegenerateGeometry(f"intersection feasibility solver returned status {res.status}")


def cones_disjoint(cone1: GeneralizedCone, cone2: GeneralizedCone) -> bool:
    """Exact disjointness of the two projected cone regions."""
    return not _intersection_lp(
        cone1.polygon, cone1.boundary_rays(), cone2.polygon, cone2.boundary_rays()
    )


def polygons_disjoint(poly1: np.ndarray, poly2: np.ndarray) -> bool:
    return not _intersection_lp(_validate_polygon(poly1), (), _validate_polygon(poly2), ())


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

    def _ladder(self, k: int) -> sp.csr_matrix:
        if self._ladders is None:
            self._ladders = {}
        if k not in self._ladders:
            dim = self.fock_dim
            masks = np.arange(dim, dtype=np.int64)
            bit = np.int64(1) << k
            occupied = (masks & bit) != 0
            src = masks[occupied]
            dst = src ^ bit
            signs = 1.0 - 2.0 * (np.bitwise_count(src & (bit - 1)).astype(np.int64) & 1)
            self._ladders[k] = sp.csr_matrix(
                (signs.astype(complex), (dst, src)), shape=(dim, dim)
            )
        return self._ladders[k]

    def creator(self, i: int) -> sp.csr_matrix:
        """c*(f_i) as a sum of orthonormal-mode creators."""
        total = sp.csr_matrix((self.fock_dim, self.fock_dim), dtype=complex)
        for k in range(self.size):
            coeff = self._mode_vectors[k, i]
            if coeff != 0:
                total = total + coeff * self._ladder(k).conj().T
        return total.tocsr()

    def annihilator(self, i: int) -> sp.csr_matrix:
        return self.creator(i).conj().T.tocsr()


def fermi_field(i: int, space: TestFunctionSpace) -> sp.csr_matrix:
    """Psi(f_i) = c*(f_i) + c(f_i), self-adjoint since f_i is real."""
    return (space.creator(i) + space.annihilator(i)).tocsr()


def fermi_exchange_elements(
    space: TestFunctionSpace, i: int, j: int
) -> tuple[np.ndarray, np.ndarray]:
    """Dense element tables of Psi_i Psi_j against Psi_j Psi_i."""
    psi_i = fermi_field(i, space)
    psi_j = fermi_field(j, space)
    return (psi_i @ psi_j).toarray(), (psi_j @ psi_i).toarray()


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
