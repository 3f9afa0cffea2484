"""Claim-level verification runners shared by the test suite and the CLI.

Each runner checks one verified claim end to end and returns a
:class:`CriterionResult` with per-case rows, a pass flag, and the numeric
margin, defined as the smallest slack across every enforced bound (negative
means at least one bound failed).  Boolean requirements contribute a slack
of plus or minus one.

The exchange tables dominate the runtime of the whole suite, so the three
claims that consume them share one lazily built :class:`ExchangeSweep`.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Sequence

import numpy as np

from .anyon import (
    ExchangeContext,
    exchange_probes,
    predicted_phase,
    rotation_rep,
    verify_rotation_covariance,
)
from .blip import blip, standard_mollifier
from .cones import (
    GeneralizedCone,
    TestFunctionSpace,
    cones_disjoint,
    cones_separated,
    direction_vector,
    fermi_exchange_elements,
    polygons_disjoint,
)
from .covering import (
    TWO_PI,
    CoveringInterval,
    CoveringPoint,
    fractional_part,
    projections_disjoint,
    relative_winding,
)
from .fock import (
    FockBasis,
    ec_route_implementer,
    implementer_shift,
    phase_from_elements,
    probe_matrix,
    second_quantize_diagonal,
    truncation_safe_probes,
)
from .modes import (
    ModeWindow,
    OneParticleOperator,
    hs_offdiag_norm_sq,
    multiplication_operator,
    sawtooth_coefficients,
    shift_operator,
)
from .schwinger import (
    schwinger_blip_closed_form,
    schwinger_quadrature,
    schwinger_trace,
)

CLAIM_IDS = (
    "prop-schwinger-blip",
    "lemma-hs-dichotomy",
    "lemma-implementer",
    "eq-implementerdef-crossval",
    "lemma-commutation",
    "thm1-2pi-shift",
    "thm1-recurrence",
    "eq-rotrep",
    "thm-cones",
    "winding-algebra",
)

CSV_SCHEMA_VERSION = 1

DEFAULT_SEED = 20260816
CONE_SCAN_SEED = 1234


def load_calibration() -> dict:
    """Packaged geometry, probe policy, anchors, and error thresholds."""
    text = resources.files("anyoncircle").joinpath("data/acceptance_fixtures.json").read_text()
    return json.loads(text)


@dataclass
class CaseRow:
    case_id: str
    cutoff: int
    params: str
    measured: complex
    predicted: complex
    abs_error: float
    elapsed_ms: float = 0.0


@dataclass
class CriterionResult:
    claim_id: str
    label: str
    passed: bool
    margin: float
    rows: list[CaseRow]
    elapsed_s: float
    note: str = ""


class _Gate:
    """Smallest slack across every enforced bound.

    A gate that enforced no bound has checked nothing: it fails, and its
    margin stays +inf, which the summary writes as null.  A NaN slack is a
    bound that could not be checked; it fails with margin -inf.
    """

    def __init__(self) -> None:
        self.margin = math.inf
        self.bounds = 0

    def _slack(self, slack: float) -> None:
        self.margin = min(self.margin, -math.inf if math.isnan(slack) else slack)
        self.bounds += 1

    def below(self, value: float, bound: float) -> None:
        self._slack(bound - value)

    def decrease(self, prev: float, nxt: float) -> None:
        self._slack(prev - nxt)

    def require(self, flag: bool) -> None:
        self._slack(1.0 if flag else -1.0)

    @property
    def passed(self) -> bool:
        return self.bounds > 0 and self.margin > 0.0


def _params(**kw) -> str:
    parts = []
    for key, val in kw.items():
        if isinstance(val, float):
            parts.append(f"{key}={val:.12g}")
        else:
            parts.append(f"{key}={val}")
    return ";".join(parts)


# ------------------------------------------------------- shared sweep


class ExchangeSweep:
    """Per-window exchange tables for the frozen verification geometry.

    One table set serves every spin, both pairings, and every winding:
    winding and pairing enter only through exact prefactor scalars applied
    in ``scaled_elements``.  The windows are built once, on first use.
    """

    def __init__(
        self,
        calibration: dict,
        cutoffs: Sequence[int] | None = None,
        threshold_scale: float = 1.0,
    ):
        self.calibration = calibration
        geo = calibration["geometry"]
        pol = calibration["probe_policy"]
        self.base1 = float(geo["base1"])
        self.base2 = float(geo["base2"])
        self.eps1 = float(geo["eps1"])
        self.eps2 = float(geo["eps2"])
        self.spins = tuple(float(s) for s in calibration["spins"])
        self.cutoffs = tuple(int(m) for m in (cutoffs or calibration["cutoff_schedule"]))
        # calibrated thresholds assume the full window schedule; shortened
        # smoke schedules must say so explicitly through the scale
        self.threshold_scale = float(threshold_scale)
        self._floor = float(pol["floor"])
        self._probes = {
            "probe_charges": tuple(pol["charges"]),
            "v_cap": int(pol["v_cap"]),
            "w_cap": int(pol["w_cap"]),
            "band": int(pol["band"]),
        }
        self._built: dict[int, tuple[ExchangeContext, dict]] = {}

    def interval1(self, shift: int = 0) -> CoveringInterval:
        return CoveringInterval(CoveringPoint(self.base1 + TWO_PI * shift), self.eps1)

    def interval2(self, shift: int = 0) -> CoveringInterval:
        return CoveringInterval(CoveringPoint(self.base2 + TWO_PI * shift), self.eps2)

    def anchors(self, spin: float, pairing: str) -> np.ndarray:
        rec = self.calibration["exchange"][f"{spin:g}"][pairing]
        return np.asarray(rec["anchors"], dtype=np.int64)

    def threshold(self, spin: float, pairing: str) -> tuple[float, bool]:
        rec = self.calibration["exchange"][f"{spin:g}"][pairing]
        exact = bool(rec.get("exact", False))
        bound = float(rec["threshold"])
        if not exact:
            bound *= self.threshold_scale
        return bound, exact

    def require_budget(self) -> None:
        """Raise ``ResourceLimit``, building no window, when the probes of a
        cutoff would need minors past the budget."""
        for m in self.cutoffs:
            exchange_probes(ModeWindow(m), **self._probes)

    def tables(self) -> dict[int, tuple[ExchangeContext, dict]]:
        for m in self.cutoffs:
            if m in self._built:
                continue
            ctx = ExchangeContext(
                ModeWindow(m),
                CoveringPoint(self.base1),
                CoveringPoint(self.base2),
                standard_mollifier(self.eps1),
                standard_mollifier(self.eps2),
                floor=self._floor,
                **self._probes,
            )
            tbl = ctx.measure(list(self.spins))
            self._built[m] = (ctx, tbl)
        return dict(self._built)


def _anchored_error(
    fw: np.ndarray, rv: np.ndarray, predicted: complex, floor: float
) -> tuple[complex, float]:
    """Median phase and the worst unit-ratio error of anchored elements.

    The anchors are the largest reversed-order elements of the coarsest
    window, frozen at calibration time; tracking the same elements at every
    window keeps the error curve a statement about element convergence.
    """
    keep = np.abs(rv) > floor
    ratios = fw[keep] / rv[keep]
    units = ratios / np.abs(ratios)
    err = float(np.max(np.abs(units - predicted)))
    phase, _ = phase_from_elements(fw, rv, floor=floor)
    return phase, err


# ------------------------------------------------------- claim runners


SCHWINGER_QUAD_TOL = 1e-8
SCHWINGER_TRACE_TOL = 1e-6


def check_schwinger_closed_form(
    samples: int = 20,
    grid: int = 4096,
    cutoffs: tuple[int, ...] = (8, 16, 32, 64),
    seed: int = DEFAULT_SEED,
) -> CriterionResult:
    """Quadrature equals the closed form; the windowed trace converges to it.

    Separated dressing profiles are drawn at random; each one is analyzed
    once at the largest window and the retained coefficients serve every
    smaller trace window.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    gate = _Gate()
    rows: list[CaseRow] = []
    top = ModeWindow(max(cutoffs))
    for case in range(samples):
        t0 = time.perf_counter()
        eps1, eps2 = (float(e) for e in rng.uniform(0.3, 0.45, size=2))
        base1 = float(rng.uniform(0.0, TWO_PI))
        sep = float(rng.uniform(eps1 + eps2 + 0.05, TWO_PI - (eps1 + eps2) - 0.05))
        base2 = fractional_part(base1 + sep)
        w1 = base1 + TWO_PI * int(rng.integers(-1, 2))
        w2 = base2 + TWO_PI * int(rng.integers(-1, 2))
        closed = schwinger_blip_closed_form(w1, w2, eps1, eps2)
        a1 = blip(standard_mollifier(eps1), top, grid).periodic.shifted(base1)
        a2 = blip(standard_mollifier(eps2), top, grid).periodic.shifted(base2)
        quad = schwinger_quadrature(a1, a2)
        qerr = abs(quad - closed)
        gate.below(qerr, SCHWINGER_QUAD_TOL)
        rows.append(
            CaseRow(
                f"schwinger-quad-{case:02d}",
                max(cutoffs),
                _params(omega1=w1, omega2=w2, eps1=eps1, eps2=eps2, grid=grid),
                quad,
                complex(closed),
                qerr,
                (time.perf_counter() - t0) * 1e3,
            )
        )
        errs = []
        for m in cutoffs:
            t1 = time.perf_counter()
            w = ModeWindow(m)
            tr = schwinger_trace(
                multiplication_operator(a1, w), multiplication_operator(a2, w)
            )
            terr = abs(tr - closed)
            errs.append(terr)
            rows.append(
                CaseRow(
                    f"schwinger-trace-{case:02d}-M{m}",
                    m,
                    _params(omega1=w1, omega2=w2, eps1=eps1, eps2=eps2),
                    tr,
                    complex(closed),
                    terr,
                    (time.perf_counter() - t1) * 1e3,
                )
            )
        for prev, nxt in zip(errs, errs[1:]):
            gate.decrease(prev, nxt)
        gate.below(errs[-1], SCHWINGER_TRACE_TOL)
    return CriterionResult(
        "prop-schwinger-blip",
        "dressing pairing closed form",
        gate.passed,
        gate.margin,
        rows,
        time.perf_counter() - start,
    )


# the blip's center and the allowed relative error of the sawtooth slope
HS_CENTER = 0.9
HS_SLOPE_TOL = 0.05


def check_hs_dichotomy(
    epsilon: float = 0.3,
    cutoffs: tuple[int, ...] = (8, 16, 32, 64),
) -> CriterionResult:
    """Windowed off-diagonal sums converge for the mollified profile and
    grow logarithmically for the raw sawtooth.

    The sawtooth growth is checked against the independent series oracle
    sum_k 2 min(k, 2M+1-k) / k^2, which counts window pairs at coefficient
    distance k with the exact squared coefficient 2 pi / k^2.
    """
    start = time.perf_counter()
    gate = _Gate()
    rows: list[CaseRow] = []
    smooth = []
    raw = []
    oracle = []
    for m in cutoffs:
        ModeWindow(m).require_matrix_budget()  # before any synthesis
    for m in cutoffs:
        w = ModeWindow(m)
        b = blip(standard_mollifier(epsilon), w).periodic.shifted(HS_CENTER)
        smooth.append(hs_offdiag_norm_sq(multiplication_operator(b, w)))
        raw.append(hs_offdiag_norm_sq(multiplication_operator(sawtooth_coefficients(2 * m), w)))
        oracle.append(
            sum(2.0 * min(k, 2 * m + 1 - k) / k**2 for k in range(1, 2 * m + 1))
        )
        rows.append(
            CaseRow(
                f"hs-blip-M{m}", m, _params(epsilon=epsilon), complex(smooth[-1]),
                complex(smooth[-1]), 0.0,
            )
        )
        rows.append(
            CaseRow(
                f"hs-sawtooth-M{m}", m, _params(), complex(raw[-1]),
                complex(oracle[-1]), abs(raw[-1] - oracle[-1]),
            )
        )
    diffs = [b - a for a, b in zip(smooth, smooth[1:])]
    for d in diffs:
        gate.require(d > 0.0)
    for prev, nxt in zip(diffs, diffs[1:]):
        gate.below(nxt, prev / 4.0)
    span = math.log(cutoffs[-1] / cutoffs[0])
    slope = (raw[-1] - raw[0]) / span
    oracle_slope = (oracle[-1] - oracle[0]) / span
    rel = abs(slope / oracle_slope - 1.0)
    gate.below(rel, HS_SLOPE_TOL)
    rows.append(
        CaseRow(
            "hs-sawtooth-slope", cutoffs[-1], _params(),
            complex(slope), complex(oracle_slope), rel,
        )
    )
    return CriterionResult(
        "lemma-hs-dichotomy",
        "implementability dichotomy",
        gate.passed,
        gate.margin,
        rows,
        time.perf_counter() - start,
    )


def _free_rotation(basis: FockBasis, omega: float):
    w = basis.window
    phases = np.exp(-1j * np.arange(-w.cutoff, w.cutoff + 1) * omega)
    return second_quantize_diagonal(OneParticleOperator(w, np.diag(phases)), basis)


def _charge_rotation(basis: FockBasis, omega: float):
    w = basis.window
    mat = np.exp(-1j * omega) * np.eye(w.size)
    return second_quantize_diagonal(OneParticleOperator(w, mat), basis)


IMPLEMENTER_ANGLES = (0.7, 2.9, 5.3)


def check_implementer_algebra(
    cutoff: int = 4,
    vac_tol: float = 1e-12,
    cov_tol: float = 1e-9,
) -> CriterionResult:
    """Vacuum image, charge grading, and rotation covariance of the shift
    implementer on a dense window."""
    start = time.perf_counter()
    gate = _Gate()
    rows: list[CaseRow] = []
    basis = FockBasis(ModeWindow(cutoff))
    g = implementer_shift(shift_operator(basis.window), basis)

    image = g.apply(basis.vacuum())
    expected = basis.basis_vector(basis.mask_of(plus_modes=(0,)))
    vac_err = float(np.max(np.abs(image - expected)))
    gate.below(vac_err, vac_tol)
    rows.append(CaseRow("implementer-vacuum", cutoff, _params(), 1.0 + 0j, 1.0 + 0j, vac_err))

    scan = g.sector_scan()
    gate.require(scan == {1})
    rows.append(
        CaseRow(
            "implementer-grading", cutoff, _params(),
            complex(min(scan)), 1.0 + 0j, float(scan != {1}),
        )
    )

    probes = probe_matrix(basis, truncation_safe_probes(basis, (-1, 0, 1), margin=2))
    for omega in IMPLEMENTER_ANGLES:
        u1 = _free_rotation(basis, omega)
        lhs = u1 @ g @ u1.dagger()
        rhs = g @ _charge_rotation(basis, omega)
        cov_err = float(np.max(np.abs((lhs.matrix - rhs.matrix) @ probes)))
        gate.below(cov_err, cov_tol)
        rows.append(
            CaseRow(
                f"implementer-covariance-w{omega:g}", cutoff,
                _params(omega=omega), 1.0 + 0j, 1.0 + 0j, cov_err,
            )
        )
    return CriterionResult(
        "lemma-implementer",
        "shift implementer algebra",
        gate.passed,
        gate.margin,
        rows,
        time.perf_counter() - start,
    )


def check_implementer_crossval(cutoff: int = 4, tol: float = 1e-8) -> CriterionResult:
    """Normal-ordered route against the explicit product implementer."""
    start = time.perf_counter()
    gate = _Gate()
    basis = FockBasis(ModeWindow(cutoff))
    v = shift_operator(basis.window)
    g = implementer_shift(v, basis)
    e = ec_route_implementer(v, basis)
    probes = probe_matrix(basis, truncation_safe_probes(basis, (-1, 0, 1), margin=2))
    err = float(np.max(np.abs((e.matrix - g.matrix) @ probes)))
    gate.below(err, tol)
    rows = [CaseRow("crossval-probe-block", cutoff, _params(), 1.0 + 0j, 1.0 + 0j, err)]
    return CriterionResult(
        "eq-implementerdef-crossval",
        "normal-ordered route agreement",
        gate.passed,
        gate.margin,
        rows,
        time.perf_counter() - start,
    )


def check_exchange_phases(sweep: ExchangeSweep) -> CriterionResult:
    """Exchange phase of both pairings against the winding prediction.

    For each spin the worst anchored element error must decrease strictly
    in the window size and land below the calibrated threshold at the
    largest window; the half-integer spin is exact at every window.  The
    relative winding enters the measurement only through exact scalars, so
    every winding is checked against its own prediction at full strength.
    """
    start = time.perf_counter()
    gate = _Gate()
    rows: list[CaseRow] = []
    built = sweep.tables()
    cutoffs = sweep.cutoffs
    for spin in sweep.spins:
        for pairing in ("product", "adjoint"):
            anchors = sweep.anchors(spin, pairing)
            threshold, exact = sweep.threshold(spin, pairing)
            for k in (0, 1, 2):
                int2 = sweep.interval2(-k)
                n_rel = relative_winding(sweep.interval1(), int2)
                pred = predicted_phase(spin, sweep.interval1(), int2, pairing)
                omega2 = sweep.base2 - TWO_PI * k
                errs = []
                for m in cutoffs:
                    t0 = time.perf_counter()
                    ctx, tbl = built[m]
                    fw, rv = ctx.scaled_elements(tbl, spin, sweep.base1, omega2, pairing)
                    phase, err = _anchored_error(fw[anchors], rv[anchors], pred, ctx.floor)
                    errs.append(err)
                    rows.append(
                        CaseRow(
                            f"exchange-s{spin:g}-{pairing}-N{n_rel}-M{m}",
                            m,
                            _params(spin=spin, pairing=pairing, winding=n_rel),
                            phase,
                            pred,
                            err,
                            (time.perf_counter() - t0) * 1e3,
                        )
                    )
                if exact:
                    for err in errs:
                        gate.below(err, threshold)
                else:
                    for prev, nxt in zip(errs, errs[1:]):
                        gate.decrease(prev, nxt)
                    gate.below(errs[-1], threshold)
    return CriterionResult(
        "lemma-commutation",
        "exchange phases",
        gate.passed,
        gate.margin,
        rows,
        time.perf_counter() - start,
    )


SHIFT_TOL = 1e-9


def check_two_pi_shift(sweep: ExchangeSweep) -> CriterionResult:
    """A full covering shift of the first argument multiplies the product
    exchange phase by exp(4 pi i s), at every window."""
    start = time.perf_counter()
    gate = _Gate()
    rows: list[CaseRow] = []
    built = sweep.tables()
    for spin in sweep.spins:
        anchors = sweep.anchors(spin, "product")
        factor = complex(np.exp(4j * np.pi * spin))
        pred0 = predicted_phase(spin, sweep.interval1(), sweep.interval2(), "product")
        pred1 = predicted_phase(spin, sweep.interval1(1), sweep.interval2(), "product")
        for m in sweep.cutoffs:
            t0 = time.perf_counter()
            ctx, tbl = built[m]
            fw, rv = ctx.scaled_elements(tbl, spin, sweep.base1, sweep.base2, "product")
            base_phase, base_err = _anchored_error(fw[anchors], rv[anchors], pred0, ctx.floor)
            fw, rv = ctx.scaled_elements(
                tbl, spin, sweep.base1 + TWO_PI, sweep.base2, "product"
            )
            shift_phase, shift_err = _anchored_error(fw[anchors], rv[anchors], pred1, ctx.floor)
            ratio = shift_phase / base_phase
            err = abs(ratio - factor)
            gate.below(err, SHIFT_TOL)
            # the shifted scalars have unit modulus, so both windows carry
            # the same anchored error up to rounding
            gate.below(abs(shift_err - base_err), 1e-12)
            rows.append(
                CaseRow(
                    f"shift-s{spin:g}-M{m}",
                    m,
                    _params(spin=spin),
                    ratio,
                    factor,
                    err,
                    (time.perf_counter() - t0) * 1e3,
                )
            )
    return CriterionResult(
        "thm1-2pi-shift",
        "covering shift rule",
        gate.passed,
        gate.margin,
        rows,
        time.perf_counter() - start,
    )


# the rotated field and the covariance gate of both rotation claims
ROTATION_SPINS = (0.5, 0.0, 0.25, -0.5)
ROTATION_CENTER, ROTATION_EPSILON = 0.9, 0.65
ROTATION_ANGLES = (0.37, -TWO_PI + 0.37, 3 * TWO_PI - 1.1)
COVARIANCE_TOL = 1e-12
# random angle pairs per spin and the tolerance of the dense group law
GROUP_LAW_PAIRS = 5
GROUP_LAW_TOL = 1e-10


def check_spin_recurrence(
    cutoff: int = 6,
    spins: tuple[float, ...] = ROTATION_SPINS,
    center: float = ROTATION_CENTER,
    epsilon: float = ROTATION_EPSILON,
    tol: float = 1e-8,
) -> CriterionResult:
    """The 2 pi rows of rotation covariance.  The sector phases d_q, the
    ratios of the field at omega + 2 pi to the field at omega on charge-q
    probes, equal exp(2 pi i s (2q+1)), and their second difference
    d_(q+1) conj(d_q) equals exp(4 pi i s) on the unit circle (branch free)."""
    start = time.perf_counter()
    gate = _Gate()
    rows: list[CaseRow] = []
    turns = verify_rotation_covariance(
        spins, CoveringPoint(center), standard_mollifier(epsilon), ModeWindow(cutoff),
        (TWO_PI,),
    )
    for turn in turns:
        spin = turn.spin
        charges = sorted(turn.fresh)
        d = {q: phase_from_elements(turn.fresh[q], turn.plain[q])[0] for q in charges}
        for q in charges:
            predicted = complex(np.exp(2j * np.pi * spin * (2 * q + 1)))
            err = abs(d[q] - predicted)
            gate.below(err, tol)
            rows.append(
                CaseRow(
                    f"recurrence-s{spin:g}-q{q}", cutoff, _params(spin=spin, charge=q),
                    d[q], predicted, err,
                )
            )
        second = max(
            float(abs(d[q + 1] * np.conj(d[q]) - np.exp(4j * np.pi * spin))) for q in charges[:-1]
        )
        gate.below(second, tol)
        gate.below(turn.error, COVARIANCE_TOL)
        for name, value in (("second-difference", second), ("covariance", turn.error)):
            rows.append(
                CaseRow(
                    f"recurrence-s{spin:g}-{name}", cutoff, _params(spin=spin),
                    complex(value), 0j, value,
                )
            )
    return CriterionResult(
        "thm1-recurrence",
        "rotation second difference",
        gate.passed,
        gate.margin,
        rows,
        time.perf_counter() - start,
    )


def check_rotation_identities(
    cutoff: int = 6,
    dense_cutoff: int = 3,
    seed: int = DEFAULT_SEED,
) -> CriterionResult:
    """Rotation covariance of the field at generic angles, on probe minors,
    and the group law of the rotation family on a dense window."""
    start = time.perf_counter()
    gate = _Gate()
    rows: list[CaseRow] = []
    covariance = verify_rotation_covariance(
        ROTATION_SPINS, CoveringPoint(ROTATION_CENTER), standard_mollifier(ROTATION_EPSILON),
        ModeWindow(cutoff), ROTATION_ANGLES,
    )
    for res in covariance:
        gate.below(res.error, COVARIANCE_TOL)
        rows.append(
            CaseRow(
                f"rotation-covariance-s{res.spin:g}-w{res.omega:g}", cutoff,
                _params(spin=res.spin, omega=res.omega),
                complex(res.error), 0j, res.error,
            )
        )
    basis = FockBasis(ModeWindow(dense_cutoff))
    probes = probe_matrix(basis, truncation_safe_probes(basis, (-1, 0, 1), margin=2))
    rng = np.random.default_rng(seed)
    for spin in ROTATION_SPINS:
        worst = 0.0
        for _ in range(GROUP_LAW_PAIRS):
            a, b = (float(x) for x in rng.uniform(-10.0, 10.0, size=2))
            lhs = rotation_rep(a, spin, basis) @ rotation_rep(b, spin, basis)
            rhs = rotation_rep(a + b, spin, basis)
            worst = max(worst, float(np.max(np.abs((lhs.matrix - rhs.matrix) @ probes))))
        gate.below(worst, GROUP_LAW_TOL)
        rows.append(
            CaseRow(
                f"rotation-group-law-s{spin:g}", dense_cutoff, _params(spin=spin),
                1.0 + 0j, 1.0 + 0j, worst,
            )
        )
    return CriterionResult(
        "eq-rotrep",
        "rotation representation identities",
        gate.passed,
        gate.margin,
        rows,
        time.perf_counter() - start,
    )


CONE_CONFIGS = ((0.5, 0), (0.5, 1), (0.5, 2), (0.0, 0), (0.0, 2),
                (0.25, 1), (0.25, 2), (-0.5, 0), (-0.5, 1), (-0.5, 2))
# the tensor phase is minus the circle phase to this tolerance
CONE_RATIO_TOL = 1e-9


def cone_scan(scan_pairs: int, scan_seed: int) -> list[tuple[GeneralizedCone, GeneralizedCone]]:
    """Randomized cone pairs of the thm-cones scan, 1 to 3 support vertices each."""
    rng = np.random.default_rng(scan_seed)

    def draw() -> GeneralizedCone:
        poly = rng.normal(scale=2.5, size=(int(rng.integers(1, 4)), 2))
        center = float(rng.uniform(0.0, TWO_PI))
        hw = float(rng.uniform(0.06, 1.0))
        return GeneralizedCone(poly, CoveringInterval(CoveringPoint(center), hw))

    return [(draw(), draw()) for _ in range(scan_pairs)]


def check_cone_theorem(
    sweep: ExchangeSweep,
    scan_pairs: int = 100,
    scan_seed: int = CONE_SCAN_SEED,
) -> CriterionResult:
    """Exchange phases of cone-localized tensor fields, plus geometry checks.

    Ten disjoint-cone configurations cover every calibrated spin and the
    windings minus one to one.  The tensor tables factorize over the plane
    and circle parts, so the anchored error schedule of the circle claim
    carries over verbatim with the sign of the prediction flipped by the
    plane fermion.  On a randomized ensemble exactly one of the two Farkas
    alternatives must hold for each pair: a nonnegative combination of the
    generators that meets (``cones_disjoint`` false) or a separating axis
    (``cones_separated``); both or neither fails the claim.
    """
    start = time.perf_counter()
    gate = _Gate()
    rows: list[CaseRow] = []
    built = sweep.tables()
    poly1 = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.9]])
    axis = direction_vector(sweep.base1)
    perp = np.array([-axis[1], axis[0]])
    int1 = sweep.interval1()
    for idx, (spin, k) in enumerate(CONE_CONFIGS):
        apex = -(6.0 + 0.3 * idx) * axis + (0.4 * (idx % 3) - 0.4) * perp
        poly2 = poly1 * 0.8 + apex
        int2 = sweep.interval2(-k)
        cone1 = GeneralizedCone(poly1, int1)
        cone2 = GeneralizedCone(poly2, int2)
        disjoint = cones_disjoint(cone1, cone2)
        gate.require(disjoint)
        # disjoint cones must have disjoint supports and direction arcs
        gate.require(not disjoint or polygons_disjoint(poly1, poly2))
        gate.require(not disjoint or projections_disjoint(int1, int2))
        space = TestFunctionSpace(["left", "right"], np.eye(2), [poly1, poly2])
        f_fw, f_rv = fermi_exchange_elements(space, 0, 1)
        n_rel = relative_winding(int1, int2)
        pred_circle = predicted_phase(spin, int1, int2, "product")
        pred = -pred_circle
        anchors = sweep.anchors(spin, "product")
        threshold, exact = sweep.threshold(spin, "product")
        omega2 = sweep.base2 - TWO_PI * k
        errs = []
        for m in sweep.cutoffs:
            t0 = time.perf_counter()
            ctx, tbl = built[m]
            fw, rv = ctx.scaled_elements(tbl, spin, sweep.base1, omega2, "product")
            fa, ra = fw[anchors], rv[anchors]
            t_phase, err = _anchored_error(
                np.kron(f_fw.ravel(), fa), np.kron(f_rv.ravel(), ra), pred, ctx.floor
            )
            errs.append(err)
            rows.append(
                CaseRow(
                    f"cone-{idx:02d}-s{spin:g}-N{n_rel}-M{m}",
                    m,
                    _params(spin=spin, winding=n_rel),
                    t_phase,
                    pred,
                    err,
                    (time.perf_counter() - t0) * 1e3,
                )
            )
            if m == sweep.cutoffs[-1]:
                c_phase, _ = phase_from_elements(fa, ra, floor=ctx.floor)
                gate.below(abs(t_phase / c_phase + 1.0), CONE_RATIO_TOL)
        if exact:
            for err in errs:
                gate.below(err, threshold)
        else:
            for prev, nxt in zip(errs, errs[1:]):
                gate.decrease(prev, nxt)
            gate.below(errs[-1], threshold)

    disagreements = 0
    for pair, (cone1, cone2) in enumerate(cone_scan(scan_pairs, scan_seed)):
        disjoint = cones_disjoint(cone1, cone2)
        separated = cones_separated(cone1, cone2)
        disagreements += int(separated != disjoint)
        rows.append(
            CaseRow(
                f"cone-scan-{pair:03d}", 0, _params(seed=scan_seed),
                complex(float(separated)), complex(float(disjoint)),
                float(separated != disjoint),
            )
        )
    gate.require(disagreements == 0)
    return CriterionResult(
        "thm-cones",
        "cone-localized tensor exchange",
        gate.passed,
        gate.margin,
        rows,
        time.perf_counter() - start,
        note=f"{scan_pairs} randomized cone pairs, {disagreements} oracle disagreements",
    )


def check_winding_algebra(pairs: int = 1000, seed: int = DEFAULT_SEED) -> CriterionResult:
    """Antisymmetry and shift covariance of the relative winding on random
    disjoint interval pairs, drawn and checked as one batch."""
    start = time.perf_counter()
    gate = _Gate()
    rng = np.random.default_rng(seed)
    hw1 = rng.uniform(0.05, 0.7, size=pairs)
    hw2 = rng.uniform(0.05, 0.7, size=pairs)
    c2 = rng.uniform(-20.0, 20.0, size=pairs)
    gap = rng.uniform(0.02, 1.0, size=pairs)
    c1 = c2 + hw1 + hw2 + gap + TWO_PI * rng.integers(-3, 4, size=pairs)
    k = rng.integers(-2, 3, size=pairs)
    first = CoveringInterval(c1, hw1)
    second = CoveringInterval(c2, hw2)
    n = relative_winding(first, second)
    anti_fail = int(np.count_nonzero(relative_winding(second, first) != -n - 1))
    shifted = CoveringInterval(c1 + TWO_PI * k, hw1)
    shift_fail = int(np.count_nonzero(relative_winding(shifted, second) != n + k))
    if pairs:
        gate.require(anti_fail == 0)
        gate.require(shift_fail == 0)
    rows = [
        CaseRow("winding-antisymmetry", 0, _params(pairs=pairs, seed=seed),
                complex(anti_fail), 0j, float(anti_fail)),
        CaseRow("winding-shift-rule", 0, _params(pairs=pairs, seed=seed),
                complex(shift_fail), 0j, float(shift_fail)),
    ]
    return CriterionResult(
        "winding-algebra",
        "winding pair algebra",
        gate.passed,
        gate.margin,
        rows,
        time.perf_counter() - start,
    )


# ------------------------------------------------------- suite assembly


@dataclass
class SuiteSettings:
    """Knobs the campaign config may override; defaults are the shipped
    acceptance schedule."""

    exchange_cutoffs: tuple[int, ...] | None = None
    exchange_threshold_scale: float = 1.0
    schwinger_samples: int = 20
    schwinger_grid: int = 4096
    schwinger_cutoffs: tuple[int, ...] = (8, 16, 32, 64)
    hs_epsilon: float = 0.3
    hs_cutoffs: tuple[int, ...] = (8, 16, 32, 64)
    implementer_cutoff: int = 4
    recurrence_cutoff: int = 6
    rotation_cutoff: int = 6
    rotation_dense_cutoff: int = 3
    cone_scan_pairs: int = 100
    cone_scan_seed: int = CONE_SCAN_SEED
    winding_pairs: int = 1000
    seed: int = DEFAULT_SEED


def claim_checks(
    settings: SuiteSettings | None = None,
) -> list[tuple[str, Callable[[], CriterionResult]]]:
    """Claim id and runner for every verified claim, sharing one sweep."""
    cfg = settings or SuiteSettings()
    sweep = ExchangeSweep(
        load_calibration(), cfg.exchange_cutoffs, cfg.exchange_threshold_scale
    )
    return [
        ("prop-schwinger-blip", lambda: check_schwinger_closed_form(
            cfg.schwinger_samples, cfg.schwinger_grid, cfg.schwinger_cutoffs, cfg.seed)),
        ("lemma-hs-dichotomy", lambda: check_hs_dichotomy(
            cfg.hs_epsilon, cutoffs=cfg.hs_cutoffs)),
        ("lemma-implementer", lambda: check_implementer_algebra(cfg.implementer_cutoff)),
        ("eq-implementerdef-crossval", lambda: check_implementer_crossval(
            cfg.implementer_cutoff)),
        ("lemma-commutation", lambda: check_exchange_phases(sweep)),
        ("thm1-2pi-shift", lambda: check_two_pi_shift(sweep)),
        ("thm1-recurrence", lambda: check_spin_recurrence(cfg.recurrence_cutoff)),
        ("eq-rotrep", lambda: check_rotation_identities(
            cfg.rotation_cutoff, cfg.rotation_dense_cutoff, seed=cfg.seed)),
        ("thm-cones", lambda: check_cone_theorem(
            sweep, cfg.cone_scan_pairs, cfg.cone_scan_seed)),
        ("winding-algebra", lambda: check_winding_algebra(cfg.winding_pairs, cfg.seed)),
    ]
