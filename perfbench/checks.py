"""Checks of a campaign's outputs, computed apart from the program.

Every expected value here comes from the paper's formulas evaluated on the
parameters printed in each CSV row, never from the program's own
``predicted`` column.  ``check_campaign`` returns, per claim, the reasons
that claim counts as failed.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
from pathlib import Path

CLAIMS = (
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

TWO_PI = 2.0 * math.pi
PHASE_TOL = 1e-9
SCHWINGER_QUAD_TOL = 1e-8
SCHWINGER_TRACE_TOL = 1e-6
SERIES_TOL = 1e-9
RECURRENCE_TOL = 1e-8


def read_rows(path: Path) -> list[dict]:
    rows = []
    with open(path, newline="") as fh:
        for raw in csv.DictReader(fh):
            params = dict(kv.split("=", 1) for kv in raw["params"].split(";") if kv)
            rows.append({
                "case_id": raw["case_id"],
                "M": int(raw["M"]),
                "params": params,
                "measured": complex(float(raw["measured_re"]), float(raw["measured_im"])),
                "predicted": complex(float(raw["predicted_re"]), float(raw["predicted_im"])),
            })
    return rows


def paper_phase(spin: float, winding: int, pairing: str) -> complex:
    """-exp(+-2 pi i s (2N + 1)), plus for the product pairing."""
    sign = 1.0 if pairing == "product" else -1.0
    return -cmath.exp(sign * 2j * math.pi * spin * (2 * winding + 1))


def sawtooth_series(cutoff: int) -> float:
    return sum(2.0 * min(k, 2 * cutoff + 1 - k) / k**2 for k in range(1, 2 * cutoff + 1))


def _exchange(rows, bad):
    by_key: dict[tuple, dict[int, complex]] = {}
    for r in rows:
        p = r["params"]
        spin, pairing, n = float(p["spin"]), p["pairing"], int(p["winding"])
        expect = paper_phase(spin, n, pairing)
        if abs(r["predicted"] - expect) > PHASE_TOL:
            bad.append(f"{r['case_id']}: predicted column is not the paper's phase")
        if spin == 0.5 and abs(r["measured"] - expect) > PHASE_TOL:
            bad.append(f"{r['case_id']}: spin-1/2 phase {r['measured']} != {expect}")
        by_key.setdefault((spin, pairing, r["M"]), {})[n] = r["measured"]
    for (spin, pairing, m), phases in by_key.items():
        sign = 1.0 if pairing == "product" else -1.0
        step = cmath.exp(sign * 4j * math.pi * spin)
        for n in sorted(phases):
            if n + 1 in phases and abs(phases[n + 1] - phases[n] * step) > PHASE_TOL:
                bad.append(f"s={spin} {pairing} M={m}: windings {n}, {n + 1} "
                           f"not related by exp(+-4 pi i s)")


def _cones(rows, bad, scan_pairs):
    scan = [r for r in rows if r["case_id"].startswith("cone-scan-")]
    if len(scan) != scan_pairs:
        bad.append(f"{len(scan)} cone-scan rows, config asks for {scan_pairs}")
    for r in scan:
        # measured = sampling found no witness, predicted = LP disjoint;
        # sampling certifies overlap only, so silence on an LP overlap is no contradiction
        if r["predicted"] == 1 and r["measured"] == 0:
            bad.append(f"{r['case_id']}: LP says disjoint, sampling found an overlap")
    for r in rows:
        if r["case_id"].startswith("cone-scan-"):
            continue
        p = r["params"]
        spin, n = float(p["spin"]), int(p["winding"])
        expect = -paper_phase(spin, n, "product")
        if abs(r["predicted"] - expect) > PHASE_TOL:
            bad.append(f"{r['case_id']}: predicted column is not the paper's phase")
        if spin == 0.5 and abs(r["measured"] - expect) > PHASE_TOL:
            bad.append(f"{r['case_id']}: spin-1/2 phase {r['measured']} != {expect}")


def _shift(rows, bad):
    for r in rows:
        expect = cmath.exp(4j * math.pi * float(r["params"]["spin"]))
        if abs(r["measured"] - expect) > PHASE_TOL:
            bad.append(f"{r['case_id']}: ratio {r['measured']} != exp(4 pi i s)")


def _schwinger(rows, bad, samples, cutoffs):
    quad = [r for r in rows if r["case_id"].startswith("schwinger-quad-")]
    if len(quad) != samples:
        bad.append(f"{len(quad)} quadrature rows, config asks for {samples}")
    top: dict[str, dict] = {}
    for r in rows:
        p = r["params"]
        closed = (float(p["omega1"]) - float(p["omega2"])) % TWO_PI - math.pi
        if r["case_id"].startswith("schwinger-quad-"):
            if abs(r["measured"] - closed) > SCHWINGER_QUAD_TOL:
                bad.append(f"{r['case_id']}: {r['measured']} != base(w1-w2)-pi = {closed}")
        else:
            case = r["case_id"].split("-")[2]
            if case not in top or r["M"] > top[case]["M"]:
                top[case] = {**r, "closed": closed}
    for case, r in top.items():
        if r["M"] != max(cutoffs):
            bad.append(f"schwinger case {case}: largest window {r['M']}, "
                       f"config asks for {max(cutoffs)}")
        if abs(r["measured"] - r["closed"]) > SCHWINGER_TRACE_TOL:
            bad.append(f"{r['case_id']}: {r['measured']} != base(w1-w2)-pi = {r['closed']}")


def _hs(rows, bad):
    for r in rows:
        if r["case_id"].startswith("hs-sawtooth-M"):
            series = sawtooth_series(r["M"])
            if abs(r["measured"].real - series) > SERIES_TOL:
                bad.append(f"{r['case_id']}: {r['measured'].real} != series {series}")


def _recurrence(rows, bad):
    for r in rows:
        if "charge" not in r["params"]:
            continue
        spin, q = float(r["params"]["spin"]), int(r["params"]["charge"])
        expect = cmath.exp(2j * math.pi * spin * (2 * q + 1))
        if abs(r["measured"] - expect) > RECURRENCE_TOL:
            bad.append(f"{r['case_id']}: {r['measured']} != exp(2 pi i s (2q+1))")


def check_campaign(out_dir: Path, settings: dict) -> tuple[dict[str, list[str]], bool]:
    """Failure reasons per claim and whether every claim passed by verdict.

    ``settings`` holds the generated config's sizes the rows must reflect.
    Raises ``ValueError`` when the outputs are missing or malformed.
    """
    # lenient parser on purpose: a crashed claim's margin is -Infinity
    summary = json.loads((out_dir / "summary.json").read_text())
    verdicts = {c["claim_id"]: c for c in summary["claims"]}
    if sorted(verdicts) != sorted(CLAIMS):
        raise ValueError(f"summary lists claims {sorted(verdicts)}")
    failures: dict[str, list[str]] = {}
    for claim in CLAIMS:
        bad: list[str] = []
        verdict = verdicts[claim]
        if verdict["status"] != "pass":
            bad.append(f"verdict {verdict['status']} {verdict['note']}".strip())
        rows = read_rows(out_dir / f"{claim}.csv")
        if len(rows) != verdict["cases"]:
            bad.append(f"{len(rows)} CSV rows, summary says {verdict['cases']}")
        if claim == "lemma-commutation":
            _exchange(rows, bad)
            if sorted({r["M"] for r in rows}) != sorted(settings["exchange_cutoffs"]):
                bad.append("exchange windows differ from the config's cutoffs")
        elif claim == "thm-cones":
            _cones(rows, bad, settings["scan_pairs"])
        elif claim == "thm1-2pi-shift":
            _shift(rows, bad)
        elif claim == "prop-schwinger-blip":
            _schwinger(rows, bad, settings["schwinger_samples"], settings["schwinger_cutoffs"])
        elif claim == "lemma-hs-dichotomy":
            _hs(rows, bad)
        elif claim == "thm1-recurrence":
            _recurrence(rows, bad)
        if bad:
            failures[claim] = bad
    return failures, bool(summary["all_passed"])
