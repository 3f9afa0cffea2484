"""Command-line verification tools.

``report`` runs the full claim suite from an INI campaign config, writing
one CSV of case rows per claim plus a machine-readable summary; the other
subcommands are focused single-claim probes.  All tabular output is plain
CSV so plotting stays external.

Exit codes: 0 when every requested check passed, 1 when a verification
failed, 2 on malformed configuration or usage.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .acceptance import (
    CSV_SCHEMA_VERSION,
    CaseRow,
    CriterionResult,
    ExchangeSweep,
    SuiteSettings,
    check_hs_dichotomy,
    check_implementer_algebra,
    check_implementer_crossval,
    check_spin_recurrence,
    claim_checks,
    load_calibration,
)
from .anyon import (
    AnyonSpec,
    ExchangeContext,
    coefficient_tail,
    predicted_phase,
    rotation_probes,
    verify_aux_commutation,
    verify_commutation,
)
from .blip import blip, standard_mollifier
from .cones import (
    GeneralizedCone,
    TestFunctionSpace,
    cones_disjoint,
    cones_separated,
    fermi_exchange_elements,
    tensor_exchange_from_parts,
)
from .covering import CoveringInterval, CoveringPoint, projections_disjoint, relative_winding
from .errors import AnyonCircleError, GridTooCoarse
from .fock import FockBasis, truncation_safe_probes
from .modes import ModeWindow, hs_offdiag_norm_sq, multiplication_operator
from .schwinger import schwinger_blip_closed_form, schwinger_quadrature

SUMMARY_SCHEMA_VERSION = 1

CSV_HEADER = (
    "schema_version,case_id,M,params,measured_re,measured_im,"
    "predicted_re,predicted_im,abs_error,elapsed_ms"
)


# --------------------------------------------------------------- output


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_rows_csv(path: Path, rows: Sequence[CaseRow], stable: bool) -> None:
    """One CSV per claim; rows sorted by case id for reproducible bytes.

    Timing is diagnostic and varies run to run, so byte reproducibility is
    guaranteed for every column except elapsed_ms; the stable flag zeroes it.
    """
    lines = [CSV_HEADER]
    for row in sorted(rows, key=lambda r: r.case_id):
        measured = complex(row.measured)
        predicted = complex(row.predicted)
        elapsed = 0.0 if stable else row.elapsed_ms
        lines.append(
            ",".join(
                (
                    str(CSV_SCHEMA_VERSION),
                    row.case_id,
                    str(row.cutoff),
                    row.params.replace(",", ";"),
                    _fmt(measured.real),
                    _fmt(measured.imag),
                    _fmt(predicted.real),
                    _fmt(predicted.imag),
                    _fmt(row.abs_error),
                    f"{elapsed:.3f}",
                )
            )
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_summary(path: Path, results: Sequence[CriterionResult], seed: int, stable: bool) -> dict:
    """Strict JSON: a margin with no finite value (an empty or crashed claim) is null."""
    payload = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "seed": seed,
        "all_passed": all(r.passed for r in results),
        "claims": [
            {
                "claim_id": r.claim_id,
                "label": r.label,
                "status": "pass" if r.passed else "fail",
                "margin": r.margin if math.isfinite(r.margin) else None,
                "cases": len(r.rows),
                "elapsed_s": 0.0 if stable else round(r.elapsed_s, 3),
                "note": r.note,
            }
            for r in results
        ],
    }
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return payload


def _print_result(res: CriterionResult) -> None:
    status = "PASS" if res.passed else "FAIL"
    line = f"{status} {res.claim_id:<28} margin {res.margin:+.3e}  cases {len(res.rows)}"
    if res.note:
        line += f"  ({res.note})"
    print(line)


# ------------------------------------------------------------- campaign


class CampaignConfigError(Exception):
    pass


@dataclass
class Campaign:
    output_dir: str
    seed: int
    settings: SuiteSettings


_SECTION_FIELDS = {
    "campaign": {"output_dir", "seed"},
    "exchange": {"cutoffs", "threshold_scale"},
    "schwinger": {"samples", "grid", "cutoffs"},
    "hs": {"epsilon", "cutoffs"},
    "implementer": {"cutoff"},
    "recurrence": {"cutoff"},
    "rotation": {"cutoff", "dense_cutoff"},
    "cones": {"scan_pairs", "scan_seed"},
    "winding": {"pairs"},
}


def _parse_int_tuple(text: str, where: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise CampaignConfigError(f"{where}: expected comma-separated integers") from exc
    if not values:
        raise CampaignConfigError(f"{where}: empty list")
    return values


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"expected a count >= 0, got {value}")
    return value


def _epsilon(text: str) -> float:
    value = float(text)
    standard_mollifier(value)  # raises outside (0, pi/2)
    return value


def _matrix_windows(cutoffs: Sequence[int]) -> tuple[int, ...]:
    for m in cutoffs:
        ModeWindow(m).require_matrix_budget()  # raises below 1 or past the budget
    return tuple(cutoffs)


def _dense_cutoff(text: str) -> int:
    value = int(text)
    # FockBasis raises before allocating past the dense limit, and the
    # dense claims' probes need modes inside the margin
    truncation_safe_probes(FockBasis(ModeWindow(value)), (-1, 0, 1), margin=2)
    return value


def _exchange_cutoffs(text: str) -> tuple[int, ...]:
    cutoffs = _parse_int_tuple(text, "[exchange] cutoffs")
    ExchangeSweep(load_calibration(), cutoffs).require_budget()
    return cutoffs


def _rotation_cutoff(text: str) -> int:
    value = int(text)
    rotation_probes(ModeWindow(value))  # raises past the minor budget
    return value


def _hs_cutoffs(text: str) -> list[int]:
    values = _int_list(text)
    if not values or values[0] == values[-1]:
        raise ValueError("the sawtooth slope needs a first and a last cutoff that differ")
    return values


def _scale(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"expected a finite scale > 0, got {value}")
    # two unit phases are at most 2 apart: once every calibrated bound is
    # that large, only the exact spin-1/2 rows are left checked
    exchange = load_calibration()["exchange"].values()
    smallest = min(r["threshold"] for rows in exchange for r in rows.values() if not r.get("exact"))
    if value * smallest >= 2.0:
        raise ValueError(f"{value:g} lifts every calibrated exchange threshold to 2 or more")
    return value


def load_campaign(path: Path) -> Campaign:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise CampaignConfigError(str(exc)) from exc
    if not read:
        raise CampaignConfigError(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in _SECTION_FIELDS:
            raise CampaignConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _SECTION_FIELDS[section]:
                raise CampaignConfigError(f"unknown key {key!r} in [{section}]")

    def get(section: str, key: str, cast, default):
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                return cast(raw)
            except (ValueError, AnyonCircleError, CampaignConfigError) as exc:
                raise CampaignConfigError(f"[{section}] {key}: {exc}") from exc
        return default

    base = SuiteSettings()
    settings = replace(
        base,
        seed=get("campaign", "seed", _count, base.seed),
        exchange_cutoffs=get("exchange", "cutoffs", _exchange_cutoffs, base.exchange_cutoffs),
        exchange_threshold_scale=get(
            "exchange", "threshold_scale", _scale, base.exchange_threshold_scale
        ),
        schwinger_samples=get("schwinger", "samples", _count, base.schwinger_samples),
        schwinger_grid=get("schwinger", "grid", int, base.schwinger_grid),
        schwinger_cutoffs=get(
            "schwinger", "cutoffs",
            lambda t: _matrix_windows(_parse_int_tuple(t, "[schwinger] cutoffs")),
            base.schwinger_cutoffs,
        ),
        hs_epsilon=get("hs", "epsilon", _epsilon, base.hs_epsilon),
        hs_cutoffs=get(
            "hs", "cutoffs", lambda t: _matrix_windows(_hs_cutoffs(t)), base.hs_cutoffs
        ),
        implementer_cutoff=get("implementer", "cutoff", _dense_cutoff, base.implementer_cutoff),
        recurrence_cutoff=get("recurrence", "cutoff", _rotation_cutoff, base.recurrence_cutoff),
        rotation_cutoff=get("rotation", "cutoff", _rotation_cutoff, base.rotation_cutoff),
        rotation_dense_cutoff=get(
            "rotation", "dense_cutoff", _dense_cutoff, base.rotation_dense_cutoff
        ),
        cone_scan_pairs=get("cones", "scan_pairs", _count, base.cone_scan_pairs),
        cone_scan_seed=get("cones", "scan_seed", _count, base.cone_scan_seed),
        winding_pairs=get("winding", "pairs", _count, base.winding_pairs),
    )
    try:
        ModeWindow(max(settings.schwinger_cutoffs)).require_grid(settings.schwinger_grid)
    except GridTooCoarse as exc:
        raise CampaignConfigError(f"[schwinger] grid: {exc}") from exc
    return Campaign(
        output_dir=get("campaign", "output_dir", str, "verification_out"),
        seed=settings.seed,
        settings=settings,
    )


def packaged_suite_path() -> Path:
    from importlib import resources

    return Path(str(resources.files("anyoncircle").joinpath("data/suite.cfg")))


def cmd_report(args) -> int:
    config_path = Path(args.config) if args.config else packaged_suite_path()
    try:
        campaign = load_campaign(config_path)
    except CampaignConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.output_dir or campaign.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return 2
    stable = args.stable_timings
    results = []
    for claim_id, runner in claim_checks(campaign.settings):
        # a crashed claim fails on its own; the others still run
        try:
            result = runner()
        except Exception as exc:
            result = CriterionResult(
                claim_id, "runner crashed", False, float("-inf"), [], 0.0,
                note=f"error: {exc!r}",
            )
        write_rows_csv(out_dir / f"{claim_id}.csv", result.rows, stable)
        results.append(result)
    payload = write_summary(out_dir / "summary.json", results, campaign.seed, stable)
    for res in results:
        _print_result(res)
    print(f"summary written to {out_dir / 'summary.json'}")
    return 0 if payload["all_passed"] else 1


# ------------------------------------------------------- simple probes


def cmd_blip(args) -> int:
    moll = standard_mollifier(args.epsilon)
    window = ModeWindow(args.cutoff)
    window.require_matrix_budget()  # before any synthesis
    b = blip(moll, window, args.grid)
    shifted = b.periodic.shifted(args.center)
    tail = coefficient_tail(moll, window, args.grid)
    hs = hs_offdiag_norm_sq(multiplication_operator(shifted, window))
    print(f"epsilon {args.epsilon:g}  center {args.center:g}  cutoff {window.cutoff}")
    print(f"retained coefficient tail fraction {tail:.6e}")
    print(f"windowed off-diagonal HS norm squared {hs:.12f}")
    return 0


def cmd_hs_norm(args) -> int:
    cutoffs = tuple(args.cutoffs)
    result = check_hs_dichotomy(args.epsilon, cutoffs=cutoffs)
    print("# M,blip_hs,sawtooth_hs,sawtooth_oracle")
    by_m: dict[int, dict[str, float]] = {}
    for row in result.rows:
        if row.case_id.startswith("hs-blip-M"):
            by_m.setdefault(row.cutoff, {})["blip"] = row.measured.real
        elif row.case_id.startswith("hs-sawtooth-M"):
            by_m.setdefault(row.cutoff, {})["saw"] = row.measured.real
            by_m[row.cutoff]["oracle"] = row.predicted.real
    for m in cutoffs:
        vals = by_m[m]
        print(f"{m},{_fmt(vals['blip'])},{_fmt(vals['saw'])},{_fmt(vals['oracle'])}")
    _print_result(result)
    return 0 if result.passed else 1


def cmd_schwinger(args) -> int:
    closed = schwinger_blip_closed_form(args.omega, 0.0, args.eps1, args.eps2)
    top = ModeWindow(64)
    a1 = blip(standard_mollifier(args.eps1), top, args.grid).periodic.shifted(args.omega)
    a2 = blip(standard_mollifier(args.eps2), top, args.grid).periodic.shifted(0.0)
    quad = schwinger_quadrature(a1, a2)
    err = abs(quad - closed)
    print(f"quadrature  {quad.real:+.12f}{quad.imag:+.3e}j")
    print(f"closed form {closed:+.12f}")
    print(f"abs diff    {err:.3e}  (tol {args.tol:g})")
    return 0 if err < args.tol else 1


def cmd_implementer_check(args) -> int:
    algebra = check_implementer_algebra(
        args.cutoff, vac_tol=args.vac_tol, cov_tol=args.cov_tol
    )
    crossval = check_implementer_crossval(args.cutoff, tol=args.crossval_tol)
    for row in algebra.rows + crossval.rows:
        print(f"{row.case_id:<32} abs_error {row.abs_error:.3e}")
    _print_result(algebra)
    _print_result(crossval)
    return 0 if algebra.passed and crossval.passed else 1


def _pair_specs(args) -> tuple[AnyonSpec, AnyonSpec]:
    moll = standard_mollifier(args.eps)
    return (
        AnyonSpec(args.spin, CoveringPoint(args.omega1), moll),
        AnyonSpec(args.spin, CoveringPoint(args.omega2), moll),
    )


# errors at this level count as converged, so a later window may match them
_MONOTONE_FLOOR = 1e-12


def _monotone(errors: Sequence[float]) -> bool:
    return all(nxt <= max(prev, _MONOTONE_FLOOR) for prev, nxt in zip(errors, errors[1:]))


def cmd_commutation(args) -> int:
    spec1, spec2 = _pair_specs(args)
    print("# M,pairing,measured_re,measured_im,predicted_re,predicted_im,abs_error")
    prod_errors = []
    adj_errors = []
    for m in args.cutoffs:
        report = verify_commutation(
            spec1, spec2, ModeWindow(m),
            probe_charges=tuple(args.probe_charges),
            v_cap=args.v_cap, w_cap=args.w_cap,
        )
        for pairing, res in (("product", report.product), ("adjoint", report.adjoint)):
            print(
                f"{m},{pairing},{_fmt(res.measured.real)},{_fmt(res.measured.imag)},"
                f"{_fmt(res.predicted.real)},{_fmt(res.predicted.imag)},{_fmt(res.error)}"
            )
        prod_errors.append(report.product.error)
        adj_errors.append(report.adjoint.error)
    ok = _monotone(prod_errors) and _monotone(adj_errors)
    print(f"error decrease over windows: {'ok' if ok else 'VIOLATED'}")
    return 0 if ok else 1


def cmd_aux_commutation(args) -> int:
    spec1, spec2 = _pair_specs(args)
    print("# M,measured_re,measured_im,predicted_re,predicted_im,abs_error")
    errors = []
    for m in args.cutoffs:
        res = verify_aux_commutation(
            spec1, spec2, ModeWindow(m),
            probe_charges=tuple(args.probe_charges),
            v_cap=args.v_cap, w_cap=args.w_cap,
        )
        print(
            f"{m},{_fmt(res.measured.real)},{_fmt(res.measured.imag)},"
            f"{_fmt(res.predicted.real)},{_fmt(res.predicted.imag)},{_fmt(res.error)}"
        )
        errors.append(res.error)
    ok = _monotone(errors)
    print(f"error decrease over windows: {'ok' if ok else 'VIOLATED'}")
    return 0 if ok else 1


def cmd_spin_statistics(args) -> int:
    result = check_spin_recurrence(
        args.cutoff, spins=(args.spin,), center=args.center,
        epsilon=args.epsilon, tol=args.tol,
    )
    for row in result.rows:
        print(f"{row.case_id:<40} abs_error {row.abs_error:.3e}")
    _print_result(result)
    return 0 if result.passed else 1


def cmd_special_cases(args) -> int:
    ctx = ExchangeContext(
        ModeWindow(args.cutoff),
        CoveringPoint(0.9), CoveringPoint(3.9),
        standard_mollifier(0.65), standard_mollifier(0.70),
        probe_charges=(0,), v_cap=12, w_cap=12,
    )
    int1 = CoveringInterval(CoveringPoint(0.9), 0.65)
    int2 = CoveringInterval(CoveringPoint(3.9), 0.70)
    tables = ctx.measure([0.5, 0.0])
    failures = 0
    for spin, tol, tag in ((0.5, args.exact_tol, "half"), (0.0, args.zero_tol, "zero")):
        for pairing in ("product", "adjoint"):
            measured, _ = ctx.exchange_phase(tables, spin, 0.9, 3.9, pairing)
            pred = predicted_phase(spin, int1, int2, pairing)
            err = abs(measured - pred)
            ok = err < tol
            failures += int(not ok)
            print(
                f"s={spin:<4g} {pairing:<8} measured {measured.real:+.9f}{measured.imag:+.9f}j  "
                f"predicted {pred.real:+.9f}{pred.imag:+.9f}j  err {err:.3e}  "
                f"{'ok' if ok else 'FAIL'}"
            )
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------- cones


def _parse_polygon(text: str) -> np.ndarray:
    points = []
    for token in text.split():
        parts = token.split(",")
        if len(parts) != 2:
            raise CampaignConfigError(f"bad polygon vertex {token!r}; expected x,y")
        points.append((float(parts[0]), float(parts[1])))
    if not points:
        raise CampaignConfigError("polygon needs at least one vertex")
    return np.asarray(points)


def _load_cone_config(path: Path) -> list[dict]:
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise CampaignConfigError(f"cannot read config file {path}")
    cones: dict[str, GeneralizedCone] = {}
    pairs: list[dict] = []
    for section in parser.sections():
        if section.startswith("cone:"):
            name = section.split(":", 1)[1]
            polygon = _parse_polygon(parser.get(section, "polygon"))
            center = parser.getfloat(section, "center")
            half_width = parser.getfloat(section, "half_width")
            cones[name] = GeneralizedCone(
                polygon, CoveringInterval(CoveringPoint(center), half_width)
            )
        elif section.startswith("pair:"):
            pairs.append(
                {
                    "name": section.split(":", 1)[1],
                    "first": parser.get(section, "first"),
                    "second": parser.get(section, "second"),
                    "spin": parser.getfloat(section, "spin"),
                    "expect": parser.get(section, "expect", fallback="disjoint"),
                }
            )
        else:
            raise CampaignConfigError(f"unknown section [{section}]")
    resolved = []
    for pair in pairs:
        for side in ("first", "second"):
            if pair[side] not in cones:
                raise CampaignConfigError(f"pair {pair['name']}: unknown cone {pair[side]!r}")
        if pair["expect"] not in ("disjoint", "overlap"):
            raise CampaignConfigError(f"pair {pair['name']}: expect must be disjoint or overlap")
        if not -0.5 - 1e-12 <= pair["spin"] <= 0.5 + 1e-12:
            raise CampaignConfigError(f"pair {pair['name']}: spin outside [-1/2, 1/2]")
        resolved.append({**pair, "cone1": cones[pair["first"]], "cone2": cones[pair["second"]]})
    if not resolved:
        raise CampaignConfigError("config defines no [pair:*] sections")
    return resolved


def _measure_pair(pair: dict, cutoff: int) -> tuple[complex, complex, float]:
    cone1, cone2 = pair["cone1"], pair["cone2"]
    spin = pair["spin"]
    ctx = ExchangeContext(
        ModeWindow(cutoff),
        cone1.directions.center, cone2.directions.center,
        standard_mollifier(cone1.directions.half_width),
        standard_mollifier(cone2.directions.half_width),
        probe_charges=(0,), v_cap=12, w_cap=12,
    )
    tables = ctx.measure([spin])
    fw, rv = ctx.scaled_elements(
        tables, spin, cone1.directions.center.omega, cone2.directions.center.omega, "product"
    )
    space = TestFunctionSpace(["first", "second"], np.eye(2), [cone1.polygon, cone2.polygon])
    f_fw, f_rv = fermi_exchange_elements(space, 0, 1)
    measured, _ = tensor_exchange_from_parts(f_fw, f_rv, fw, rv, floor=ctx.floor)
    predicted = -predicted_phase(spin, cone1.directions, cone2.directions, "product")
    return measured, predicted, abs(measured - predicted)


def cmd_cones(args) -> int:
    try:
        pairs = _load_cone_config(Path(args.config))
    except (CampaignConfigError, configparser.Error, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    failures = 0
    for pair in pairs:
        cone1, cone2 = pair["cone1"], pair["cone2"]
        disjoint = cones_disjoint(cone1, cone2)
        expected = pair["expect"] == "disjoint"
        # exactly one Farkas alternative must hold: the regions meet
        # (a nonnegative witness) or a separating axis exists
        ok = disjoint == expected and disjoint == cones_separated(cone1, cone2)
        parts = [f"pair {pair['name']:<16} disjoint={disjoint} expected={expected}"]
        if disjoint and projections_disjoint(cone1.directions, cone2.directions):
            n_rel = relative_winding(cone1.directions, cone2.directions)
            pred = -predicted_phase(pair["spin"], cone1.directions, cone2.directions, "product")
            parts.append(f"winding {n_rel} predicted {pred.real:+.6f}{pred.imag:+.6f}j")
            if args.measure_cutoff:
                measured, _, err = _measure_pair(pair, args.measure_cutoff)
                ok = ok and err < args.tol
                parts.append(
                    f"measured {measured.real:+.6f}{measured.imag:+.6f}j err {err:.3e}"
                )
        failures += int(not ok)
        parts.append("ok" if ok else "FAIL")
        print("  ".join(parts))
    return 0 if failures == 0 else 1


# ----------------------------------------------------------------- main


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anyon-circle",
        description="Verification tools for anyon fields on the covering of the circle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("blip", help="mollified winding profile diagnostics")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--center", type=float, default=0.0)
    p.add_argument("--cutoff", type=int, default=16)
    p.add_argument("--grid", type=int, default=None)
    p.set_defaults(handler=cmd_blip)

    p = sub.add_parser("hs-norm", help="windowed HS dichotomy: mollified vs raw sawtooth")
    p.add_argument("--epsilon", type=float, default=0.3)
    p.add_argument("--cutoffs", type=_hs_cutoffs, default=[8, 16, 32, 64])
    p.set_defaults(handler=cmd_hs_norm)

    p = sub.add_parser("schwinger", help="pairing quadrature against the closed form")
    p.add_argument("--omega", type=float, required=True, help="base separation of the two profiles")
    p.add_argument("--eps1", type=float, required=True)
    p.add_argument("--eps2", type=float, required=True)
    p.add_argument("--grid", type=int, default=4096)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(handler=cmd_schwinger)

    p = sub.add_parser("implementer-check", help="shift implementer algebra on a dense window")
    p.add_argument("--cutoff", type=int, default=4)
    p.add_argument("--vac-tol", type=float, default=1e-12)
    p.add_argument("--cov-tol", type=float, default=1e-9)
    p.add_argument("--crossval-tol", type=float, default=1e-8)
    p.set_defaults(handler=cmd_implementer_check)

    for name, handler, helptext in (
        ("commutation", cmd_commutation, "exchange phases of two equal-spin fields"),
        ("aux-commutation", cmd_aux_commutation, "exchange phase of the undressed fields"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--spin", type=float, required=True)
        p.add_argument("--omega1", type=float, required=True)
        p.add_argument("--omega2", type=float, required=True)
        p.add_argument("--eps", type=float, default=0.3)
        p.add_argument("--cutoffs", type=_int_list, default=[4, 6])
        p.add_argument("--v-cap", type=int, default=12)
        p.add_argument("--w-cap", type=int, default=12)
        p.add_argument("--probe-charges", type=_int_list, default=[0])
        p.set_defaults(handler=handler)

    p = sub.add_parser("spin-statistics", help="rotation conjugation second difference")
    p.add_argument("--spin", type=float, required=True)
    p.add_argument("--cutoff", type=int, default=6)
    p.add_argument("--center", type=float, default=0.9)
    p.add_argument("--epsilon", type=float, default=0.65)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(handler=cmd_spin_statistics)

    p = sub.add_parser("special-cases", help="endpoint spins: fermionic and bosonic limits")
    p.add_argument("--cutoff", type=int, default=6)
    p.add_argument("--exact-tol", type=float, default=1e-9)
    p.add_argument("--zero-tol", type=float, default=0.05)
    p.set_defaults(handler=cmd_special_cases)

    p = sub.add_parser("cones", help="verify configured cone pairs")
    p.add_argument("--config", required=True, help="INI file with [cone:*] and [pair:*] sections")
    p.add_argument("--measure-cutoff", type=int, default=None,
                   help="also measure the tensor exchange phase at this window")
    p.add_argument("--tol", type=float, default=0.1,
                   help="median phase tolerance for the measured tensor exchange")
    p.set_defaults(handler=cmd_cones)

    p = sub.add_parser("report", help="run a verification campaign from an INI config")
    p.add_argument("--config", default=None, help="campaign config; defaults to the shipped suite")
    p.add_argument("--output-dir", default=None)
    p.add_argument("--stable-timings", action="store_true",
                   help="zero the timing columns for byte-reproducible output")
    p.set_defaults(handler=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except AnyonCircleError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
