"""Anyon fields on the covering of the circle and their exchange relations.

A field at covering point omega with spin s and smearing scale epsilon is

    Phi = exp(i s omega (2Q - 1)) G(V_omega) G(exp(i lambda alpha_omega))

with lambda^2 = 1 - 2s, V_omega the rotated mode shift, and alpha_omega the
smeared sawtooth recentered at omega.  The charge prefactor carries the full
covering coordinate; the two implementers depend on it only through the base
projection (exp(-i omega Q) is 2 pi periodic on integer charge spectra).

Exchange phases are measured as median matrix-element ratios between the two
operator orderings over deterministic truncation-safe probes.  Every
element is a minor determinant (see ``exterior``): the dressings and the
shift implementer are second quantizations of one-particle maps, so a
product of them is one exterior power times exact scalar phases, and no
Fock basis is enumerated; the dense ``build_field`` is the small-M oracle.  Winding numbers enter the measured
elements only through the charge prefactor, so a single computation serves
every relative winding of the same base geometry.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .blip import Mollifier, blip
from .covering import TWO_PI, CoveringInterval, CoveringPoint, project, relative_winding
from .errors import WindowTooSmall
from .exterior import dressing_unitary, require_minor_budget, shift_sign, wedge_elements
from .fock import (
    FockBasis,
    FockOperator,
    implementer_exp,
    implementer_shift,
    phase_from_elements,
    pattern_probes,
    rotation_weights,
)
from .modes import ModeWindow, OneParticleOperator, multiplication_operator, shift_operator
from .schwinger import schwinger_blip_closed_form

import scipy.sparse as sp


@dataclass(frozen=True)
class AnyonSpec:
    """Parameters of one anyon field: spin, covering point, smearing."""

    spin: float
    omega: CoveringPoint
    mollifier: Mollifier

    def __post_init__(self):
        if self.spin > 0.5 + 1e-14:
            raise ValueError("spin must satisfy s <= 1/2")
        if 1.0 - 2.0 * self.spin > 10.0:
            warnings.warn(
                "coupling squared exceeds 10; truncation error grows with |lambda|",
                stacklevel=2,
            )

    @property
    def coupling(self) -> float:
        """lambda with lambda^2 = 1 - 2s; zero at the endpoint s = 1/2."""
        return _coupling(self.spin)

    @property
    def localization(self) -> CoveringInterval:
        return CoveringInterval(self.omega, self.mollifier.epsilon)


@dataclass
class AnyonField:
    spec: AnyonSpec
    operator: FockOperator
    localization: CoveringInterval
    coefficient_tail: float


def _resolvability_guard(epsilon: float, window: ModeWindow) -> None:
    grid = window.default_grid()
    threshold = max(TWO_PI / grid, 1.0 / window.size)
    if epsilon < threshold:
        raise WindowTooSmall(
            f"mollifier scale {epsilon:.4g} below the resolvable scale "
            f"{threshold:.4g} for M={window.cutoff}, grid {grid}"
        )


def blip_multiplier(
    mollifier: Mollifier,
    window: ModeWindow,
    center_base: float,
    drop_mean: bool = True,
) -> np.ndarray:
    """Window matrix of multiplication by the recentered smeared sawtooth.

    With drop_mean the constant pi is removed from the symbol; the dropped
    part second-quantizes to the charge phase exp(i lambda pi Q) and is
    restored exactly by the callers.
    """
    _resolvability_guard(mollifier.epsilon, window)
    alpha = blip(mollifier, window, window.default_grid())
    shifted = alpha.periodic.shifted(center_base)
    mat = multiplication_operator(shifted, window).matrix.copy()
    if drop_mean:
        mat -= math.pi * np.eye(window.size)
    # real symbol, so the matrix is Hermitian up to quadrature rounding
    return 0.5 * (mat + mat.conj().T)


def coefficient_tail(mollifier: Mollifier, window: ModeWindow, grid_size: int | None = None) -> float:
    """Relative size of the last retained Fourier coefficients; diagnostic only."""
    alpha = blip(mollifier, window, window.default_grid() if grid_size is None else grid_size)
    n_max = 2 * window.cutoff + 1
    edge = max(abs(alpha.periodic.coefficient(n_max)), abs(alpha.periodic.coefficient(-n_max)))
    scale = max(abs(alpha.periodic.coefficient(0)), 1e-300)
    return float(edge / scale)


def charge_prefactor(spin: float, omega: float, charge) -> np.ndarray:
    """exp(i s omega (2q - 1)) on charge q, at the full covering angle omega."""
    q = np.asarray(charge, dtype=float)
    return np.exp(1j * spin * omega * (2.0 * q - 1.0))


def build_field(spec: AnyonSpec, window: ModeWindow) -> AnyonField:
    """Materialized field operator; dense construction, small windows only."""
    basis = FockBasis(window)
    _resolvability_guard(spec.mollifier.epsilon, window)
    omega = spec.omega.omega
    base = spec.omega.base

    shift_impl = implementer_shift(shift_operator(window), basis)
    u0q = sp.diags(np.exp(-1j * omega * basis.charges.astype(float))).tocsr()
    pre = sp.diags(charge_prefactor(spec.spin, omega, basis.charges)).tocsr()
    coupling = spec.coupling
    if coupling == 0.0:
        dressing_mat: np.ndarray | sp.spmatrix = sp.identity(basis.dim, dtype=complex, format="csr")
    else:
        full_symbol = blip_multiplier(spec.mollifier, window, base, drop_mean=False)
        dressing = implementer_exp(OneParticleOperator(window, full_symbol), coupling, basis)
        dressing_mat = dressing.matrix
    mat = pre @ (shift_impl.matrix @ (u0q @ dressing_mat))
    operator = FockOperator(basis, mat)
    tail = coefficient_tail(spec.mollifier, window)
    return AnyonField(spec, operator, spec.localization, tail)


def rotation_rep(omega: float, spin: float, basis: FockBasis) -> FockOperator:
    """U(omega) = exp(i s omega Q^2) U0(base(omega)).

    The free rotation factor uses the base projection, making U exactly
    2 pi periodic up to the quadratic charge phases: U(2 pi) is the diagonal
    exp(2 pi i s q^2) on the charge-q sector by construction.
    """
    diag = rotation_phases(omega, spin, basis.charges.astype(float), basis.theta)
    return FockOperator(basis, sp.diags(diag).tocsr())


def rotation_phases(omega: float, spin: float, charge, theta: np.ndarray) -> np.ndarray:
    """Diagonal of U(omega) on states of the given charges and rotation weights."""
    base, _ = project(omega)
    return np.exp(1j * spin * omega * charge * charge) * np.exp(-1j * base * theta)


def predicted_phase(
    spin: float,
    interval1: CoveringInterval,
    interval2: CoveringInterval,
    pairing: str = "product",
) -> complex:
    """Exchange phase mandated by the relative winding of the two intervals."""
    n_rel = relative_winding(interval1, interval2)
    sign = +1.0 if pairing == "product" else -1.0
    return -np.exp(sign * 2j * np.pi * spin * (2 * n_rel + 1))


def aux_predicted_phase(
    spin: float, base1: float, base2: float, eps1: float, eps2: float
) -> complex:
    """Exchange phase of the auxiliary (prefactor-free) fields.

    Depends only on the projected distance: -exp(-2is [hat(w1-w2) - pi]),
    the minus branch.  Inherits the separation precondition of the
    Schwinger closed form.
    """
    s_term = schwinger_blip_closed_form(base1, base2, eps1, eps2)
    return -np.exp(-2j * spin * s_term)


def _coupling(spin: float) -> float:
    """lambda = -sqrt(1 - 2s), clamped to +0.0 from s = 1/2 up.

    AnyonSpec admits spins up to 1e-14 above 1/2; they take the spin-1/2
    coupling, and a -0.0 would print as -0 in spin-1/2 CSV rows.
    """
    square = 1.0 - 2.0 * spin
    return -math.sqrt(square) if square > 0.0 else 0.0


def _require_stacks(window: ModeWindow, stacks) -> None:
    # every (rows, cols) probe pair is one stack of minors of order rows.shape[1]
    for rows, cols in stacks:
        require_minor_budget(window, len(rows) * len(cols), rows.shape[1])


def exchange_probes(
    window: ModeWindow,
    probe_charges: tuple[int, ...] = (-1, 0, 1),
    v_cap: int = 64,
    w_cap: int = 64,
    band: int = 2,
) -> tuple[dict, dict, dict]:
    """Probes of the exchange tables per charge q: the columns V(q) and the
    rows W(q+2) of the product and W(q) of the adjoint pairing.

    Raises ``ResourceLimit`` when one of their minor stacks would pass the
    budget, so a window too large for the tables fails here, before any
    blip symbol or one-particle matrix of it is built.
    """
    v_groups = {q: pattern_probes(window, q, band=band, cap=v_cap) for q in probe_charges}
    w_product = {q: pattern_probes(window, q + 2, band=band, cap=w_cap) for q in probe_charges}
    w_adjoint = {q: pattern_probes(window, q, band=band, cap=w_cap) for q in probe_charges}
    _require_stacks(
        window, [(w[q], v) for q, v in v_groups.items() for w in (w_product, w_adjoint)]
    )
    return v_groups, w_product, w_adjoint


class ExchangeContext:
    """Exchange measurement for one base geometry on one window.

    Holds the two mean-dropped dressing symbols and the probe states as
    raw-slot arrays; `measure` produces element tables for a list of spins
    as minor determinants, and the phase extractors rescale those tables by
    the exact charge-prefactor scalars, so winding sweeps and both pairings
    reuse one table.  No Fock basis is built, so the window is limited only
    by the byte budget of the minors (see ``exterior``).
    """

    def __init__(
        self,
        window: ModeWindow,
        point1: CoveringPoint,
        point2: CoveringPoint,
        mollifier1: Mollifier,
        mollifier2: Mollifier,
        probe_charges: tuple[int, ...] = (-1, 0, 1),
        v_cap: int = 64,
        w_cap: int = 64,
        band: int = 2,
        floor: float = 1e-10,
    ):
        if not window.size >= 5:
            raise ValueError("exchange measurements need cutoff M >= 2")
        self.window = window
        self.base1 = point1.base
        self.base2 = point2.base
        self.eps1 = mollifier1.epsilon
        self.eps2 = mollifier2.epsilon
        self.floor = floor
        # pattern probes keep the same physical states at every cutoff, so
        # error-vs-M curves track element convergence, not probe churn; they
        # come first, so a window past the minor budget allocates nothing
        self.v_groups, self.w_product, self.w_adjoint = exchange_probes(
            window, probe_charges, v_cap, w_cap, band
        )
        self.beta1 = blip_multiplier(mollifier1, window, self.base1)
        self.beta2 = blip_multiplier(mollifier2, window, self.base2)

    def measure(self, spins: list[float]) -> dict:
        """Element tables for every spin and probe charge.

        Each field is split as prefactor * shift * mean-dropped dressing.
        Mean-dropped dressings commute with the shift implementer exactly
        (the crossing anomaly is the symbol mean, which is zero), so both
        pairings reduce to canonical cores with every shift moved to the
        left: fw/rv hold rows W(q+2) of G^2 D1 D2 and G^2 D2 D1, afw/arv
        hold rows W(q) of D1 D2* and D2* D1, where the adjoint's G G* pair
        has cancelled outright.  Keeping the shifts adjacent means their
        window-edge defects hit both operator orders identically instead
        of opposite edges, which is what makes the error-vs-M curves of
        the phase ratios decay cleanly.

        With D = c Lambda(U) and G = (-1)^(M+q) c*_(-M) Lambda(V), the
        product cores are G^2 = -c*_(-M) c*_(-M+1) Lambda(V^2) times the
        one-particle products V^2 U1 U2 and V^2 U2 U1, and the adjoint cores
        are Lambda(U1 U2*) and Lambda(U2* U1): every element is one minor.
        All remaining prefactor scalars are applied later, in
        scaled_elements and aux_exchange_phase.
        """
        w = self.window
        v2 = np.eye(w.size, k=-2, dtype=complex)
        tables: dict = {s: {} for s in spins}
        for s in spins:
            lam = _coupling(s)
            c1, u1 = dressing_unitary(self.beta1, lam, w)
            c2, u2 = dressing_unitary(self.beta2, lam, w)
            c2_adj, u2_adj = dressing_unitary(self.beta2, -lam, w)
            product_core = (v2 @ u1 @ u2, v2 @ u2 @ u1)
            adjoint_core = (u1 @ u2_adj, u2_adj @ u1)
            adjoint_scalar = c1 * c2_adj
            for q, v in self.v_groups.items():
                # both shift gauges, both dressing scalars, and the dropped
                # symbol means exp(i lam pi q) restored on both dressings
                product_scalar = shift_sign(w, q) * shift_sign(w, q + 1) * c1 * c2
                product_scalar *= np.exp(2j * lam * math.pi * q)
                rows_fw, rows_adj = self.w_product[q], self.w_adjoint[q]
                fw, rv = (wedge_elements(x, rows_fw, v, w, creations=2) for x in product_core)
                afw, arv = (wedge_elements(x, rows_adj, v, w) for x in adjoint_core)
                tables[s][q] = {
                    "fw": product_scalar * fw,
                    "rv": product_scalar * rv,
                    "afw": adjoint_scalar * afw,
                    "arv": adjoint_scalar * arv,
                }
        return tables

    def scaled_elements(
        self,
        tables: dict,
        spin: float,
        omega1: float,
        omega2: float,
        pairing: str = "product",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Forward and reversed element tables with charge prefactors applied.

        omega1, omega2 are full covering coordinates; their bases must match
        the context geometry.  Charge prefactor scalars are applied here, so
        the same tables serve every winding.
        """
        if abs(project(omega1)[0] - self.base1) > 1e-9 or abs(project(omega2)[0] - self.base2) > 1e-9:
            raise ValueError("covering points do not project onto the context geometry")
        lam = _coupling(spin)
        forward: list[np.ndarray] = []
        reversed_: list[np.ndarray] = []
        for q, entry in tables[spin].items():
            if pairing == "product":
                # raw tables carry exp(2 i lam pi q) from the mean restores;
                # the full chain wants exp(i lam pi (2q+1)) plus the charge
                # prefactors A1(q+2) R1(q+1) A2(q+1) R2(q)
                f_scalar = np.exp(
                    1j * lam * math.pi
                    + 1j * spin * (omega1 * (2 * q + 3) + omega2 * (2 * q + 1))
                    - 1j * (omega1 * (q + 1) + omega2 * q)
                )
                r_scalar = np.exp(
                    1j * lam * math.pi
                    + 1j * spin * (omega2 * (2 * q + 3) + omega1 * (2 * q + 1))
                    - 1j * (omega2 * (q + 1) + omega1 * q)
                )
                fw, rv = entry["fw"], entry["rv"]
            elif pairing == "adjoint":
                delta = omega1 - omega2
                f_scalar = np.exp(1j * spin * (2 * q - 1) * delta - 1j * (q - 1) * delta)
                r_scalar = np.exp(1j * spin * (2 * q + 1) * delta - 1j * q * delta)
                fw, rv = entry["afw"], entry["arv"]
            else:
                raise ValueError(f"unknown pairing {pairing!r}")
            forward.append((f_scalar * fw).ravel())
            reversed_.append((r_scalar * rv).ravel())
        return np.concatenate(forward), np.concatenate(reversed_)

    def exchange_phase(
        self,
        tables: dict,
        spin: float,
        omega1: float,
        omega2: float,
        pairing: str = "product",
    ) -> tuple[complex, float]:
        """Phase of field1 field2 against field2 field1 (or the adjoint pairing)."""
        forward, reversed_ = self.scaled_elements(tables, spin, omega1, omega2, pairing)
        return phase_from_elements(forward, reversed_, floor=self.floor)

    def aux_exchange_phase(self, tables: dict, spin: float) -> tuple[complex, float]:
        """Exchange phase of the prefactor-free auxiliary fields.

        The auxiliary field at base angle w is shift * rotation * dressing
        without the charge prefactor, so the product cores only need the
        base rotation scalars exp(-i w_hat (q+1)) exp(-i w_hat' q).
        """
        forward: list[np.ndarray] = []
        reversed_: list[np.ndarray] = []
        for q, entry in tables[spin].items():
            f_scalar = np.exp(-1j * (self.base1 * (q + 1) + self.base2 * q))
            r_scalar = np.exp(-1j * (self.base2 * (q + 1) + self.base1 * q))
            forward.append((f_scalar * entry["fw"]).ravel())
            reversed_.append((r_scalar * entry["rv"]).ravel())
        return phase_from_elements(
            np.concatenate(forward), np.concatenate(reversed_), floor=self.floor
        )


@dataclass
class PairingResult:
    measured: complex
    predicted: complex
    deviation: float

    @property
    def error(self) -> float:
        return float(abs(self.measured - self.predicted))


@dataclass
class CommutationReport:
    cutoff: int
    spin: float
    winding: int
    product: PairingResult
    adjoint: PairingResult


def verify_commutation(
    spec1: AnyonSpec,
    spec2: AnyonSpec,
    window: ModeWindow,
    probe_charges: tuple[int, ...] = (-1, 0, 1),
    v_cap: int = 64,
    w_cap: int = 64,
) -> CommutationReport:
    """Measure both exchange pairings of two fields and compare to prediction."""
    if abs(spec1.spin - spec2.spin) > 1e-14:
        raise ValueError("exchange relations are stated for equal spins")
    spin = spec1.spin
    n_rel = relative_winding(spec1.localization, spec2.localization)
    context = ExchangeContext(
        window, spec1.omega, spec2.omega, spec1.mollifier, spec2.mollifier,
        probe_charges=probe_charges, v_cap=v_cap, w_cap=w_cap,
    )
    tables = context.measure([spin])
    w1, w2 = spec1.omega.omega, spec2.omega.omega
    prod_phase, prod_dev = context.exchange_phase(tables, spin, w1, w2, "product")
    adj_phase, adj_dev = context.exchange_phase(tables, spin, w1, w2, "adjoint")
    product = PairingResult(
        prod_phase,
        predicted_phase(spin, spec1.localization, spec2.localization, "product"),
        prod_dev,
    )
    adjoint = PairingResult(
        adj_phase,
        predicted_phase(spin, spec1.localization, spec2.localization, "adjoint"),
        adj_dev,
    )
    return CommutationReport(window.cutoff, spin, n_rel, product, adjoint)


def verify_aux_commutation(
    spec1: AnyonSpec,
    spec2: AnyonSpec,
    window: ModeWindow,
    probe_charges: tuple[int, ...] = (-1, 0, 1),
    v_cap: int = 64,
    w_cap: int = 64,
) -> PairingResult:
    """Exchange relation of the auxiliary fields, before charge dressing."""
    spin = spec1.spin
    context = ExchangeContext(
        window, spec1.omega, spec2.omega, spec1.mollifier, spec2.mollifier,
        probe_charges=probe_charges, v_cap=v_cap, w_cap=w_cap,
    )
    tables = context.measure([spin])
    measured, dev = context.aux_exchange_phase(tables, spin)
    predicted = aux_predicted_phase(
        spin, spec1.omega.base, spec2.omega.base, context.eps1, context.eps2
    )
    return PairingResult(measured, predicted, dev)


def field_elements(
    spin: float,
    omega: float,
    beta: np.ndarray,
    window: ModeWindow,
    probes: dict[int, tuple[np.ndarray, np.ndarray]],
) -> dict[int, np.ndarray]:
    """<w|Phi_(s,omega)|v> per charge q, for probes[q] = (w of charge q+1, v of charge q).

    ``beta`` is the mean-dropped blip multiplier recentred at base(omega).
    On sector q the field is one charged minor of V exp(i lambda beta) times
    the shift gauge, the dressing scalar, the restored mean exp(i lambda pi q),
    exp(-i omega q) and the prefactor at the covering angle.
    """
    lam = _coupling(spin)
    dress_scalar, unitary = dressing_unitary(beta, lam, window)
    core = np.eye(window.size, k=-1, dtype=complex) @ unitary
    return {
        q: charge_prefactor(spin, omega, q + 1)
        * np.exp(1j * (lam * math.pi - omega) * q)
        * dress_scalar
        * shift_sign(window, q)
        * wedge_elements(core, rows, cols, window, creations=1)
        for q, (rows, cols) in probes.items()
    }


@dataclass
class RotationCovariance:
    """Largest gap |U(omega) Phi_(s,omega1) U(omega)* - Phi_(s,omega1+omega)|
    over the probes, and both fields' elements per charge."""

    spin: float
    omega: float
    error: float
    plain: dict[int, np.ndarray]
    fresh: dict[int, np.ndarray]


def rotation_probes(window: ModeWindow) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Probes of the rotation check per charge q = -2..2: 32 rows of charge
    q + 1 and 8 columns of charge q, band 2 with no margin.  Raises
    ``ResourceLimit`` when a minor stack would pass the budget."""
    probes = {
        q: tuple(
            pattern_probes(window, c, band=2, margin=0, cap=cap) for c, cap in ((q + 1, 32), (q, 8))
        )
        for q in range(-2, 3)
    }
    _require_stacks(window, probes.values())
    return probes


def verify_rotation_covariance(
    spins: tuple[float, ...],
    point: CoveringPoint,
    mollifier: Mollifier,
    window: ModeWindow,
    omegas: tuple[float, ...],
) -> list[RotationCovariance]:
    """Check U(omega) Phi_(s,omega1) U(omega)* = Phi_(s,omega1+omega) on probe minors.

    The left side applies U(omega) = exp(i s omega Q^2) exp(-i omega theta)
    as diagonal phases on the probe states; the right side is built afresh
    from a blip recentred at base(omega1 + omega) and the prefactor at
    omega1 + omega.  The identity is exact at every window, so the probes
    of charges -2..2 (``rotation_probes``) may touch the edges.
    """
    probes = rotation_probes(window)
    weights = {q: [rotation_weights(slots, window) for slots in pair] for q, pair in probes.items()}
    omega1 = point.omega
    plain_beta = blip_multiplier(mollifier, window, point.base)
    fresh_betas = {w: blip_multiplier(mollifier, window, project(omega1 + w)[0]) for w in omegas}
    results: list[RotationCovariance] = []
    for spin in spins:
        plain = field_elements(spin, omega1, plain_beta, window, probes)
        for w in omegas:
            fresh = field_elements(spin, omega1 + w, fresh_betas[w], window, probes)
            error = 0.0
            for q, (theta_out, theta_in) in weights.items():
                u_out = rotation_phases(w, spin, q + 1, theta_out)
                u_in = rotation_phases(w, spin, q, theta_in)
                rotated = u_out[:, None] * plain[q] * np.conj(u_in)
                error = max(error, float(np.max(np.abs(rotated - fresh[q]))))
            results.append(RotationCovariance(spin, w, error, plain, fresh))
    return results
