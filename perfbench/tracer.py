"""Span tracing of the package's public functions, from outside the package.

``install`` wraps every target in ``TARGETS`` so that each call records a
span (name, start, end, parent) in memory, plus optional work counts taken
from the call's arguments and result.  A module-level function is patched
in every ``anyoncircle`` module namespace that imported it by name; a
method is patched on its class.  A target whose module or attribute does
not exist is reported as absent and skipped.

``per_layer_metrics`` turns the span list into the benchmark's per-layer
metrics: self times (a span minus the time its child spans cover), call
and work counts, and one inclusive wall time per claim runner.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

PACKAGE = "anyoncircle"


# ------------------------------------------------------- work counters


def _tail_points(args, kwargs, result, before):
    moll, a = args[0], args[1] if len(args) > 1 else kwargs["a"]
    arr = np.atleast_1d(np.asarray(a, dtype=float))
    return {"tail_points": int(np.count_nonzero((arr > -moll.epsilon) & (arr < moll.epsilon)))}


def _table_elements(args, kwargs, result, before):
    total = 0
    for per_charge in result.values():
        for entry in per_charge.values():
            total += sum(int(np.size(x)) for x in entry.values())
    return {"table_elements": total}


def _csr_nnz(args, kwargs, result, before):
    return {"dgamma_csr_nnz": int(result.nnz)}


def _cache_state(args, kwargs):
    cache = args[0]
    return cache.hits, cache.misses


def _cache_counts(args, kwargs, result, before):
    cache = args[0]
    return {"cache_hits": cache.hits - before[0], "cache_misses": cache.misses - before[1]}


def _phase_pairs(args, kwargs, result, before):
    rv = np.asarray(args[1] if len(args) > 1 else kwargs["reversed_"]).ravel()
    floor = args[2] if len(args) > 2 else kwargs.get("floor", 1e-10)
    return {
        "phase_pairs": int(rv.size),
        "phase_pairs_kept": int(np.count_nonzero(np.abs(rv) > floor)),
    }


# (span name, module, attribute path, counter, pre-call state)
TARGETS = [
    ("blip.synth", "blip", "blip", None, None),
    ("blip.tail_integral", "blip", "Mollifier.tail_integral", _tail_points, None),
    ("modes.analyze", "modes", "analyze", None, None),
    ("modes.multiplication_operator", "modes", "multiplication_operator", None, None),
    ("schwinger.trace", "schwinger", "schwinger_trace", None, None),
    ("schwinger.quadrature", "schwinger", "schwinger_quadrature", None, None),
    ("anyon.context_init", "anyon", "ExchangeContext.__init__", None, None),
    ("anyon.blip_multiplier", "anyon", "blip_multiplier", None, None),
    ("anyon.measure", "anyon", "ExchangeContext.measure", _table_elements, None),
    ("anyon.scaled_elements", "anyon", "ExchangeContext.scaled_elements", None, None),
    ("anyon.spin_recurrence", "anyon", "verify_spin_recurrence", None, None),
    ("sector.engine_init", "sector", "SectorEngine.__init__", None, None),
    ("sector.dgamma_csr", "sector", "SectorEngine.dgamma_csr", _csr_nnz, None),
    ("sector.expi", "sector", "SectorEngine.expi_dgamma_apply", None, None),
    ("sector.expi", "sector", "SectorEngine.expi_dgamma_multi_apply", None, None),
    ("sector.chebyshev", "sector", "chebyshev_expi_apply", None, None),
    ("sector.chebyshev", "sector", "chebyshev_expi_multi_apply", None, None),
    ("sector.shift_apply", "sector", "SectorEngine.shift_apply", None, None),
    ("sector.shift_apply", "sector", "SectorEngine.shift_dagger_apply", None, None),
    ("sector.cache_get", "sector", "SectorMatrixCache.get", _cache_counts, _cache_state),
    ("fock.basis_init", "fock", "FockBasis.__init__", None, None),
    ("fock.implementer_exp", "fock", "implementer_exp", None, None),
    ("fock.implementer_shift", "fock", "implementer_shift", None, None),
    ("fock.ec_route", "fock", "ec_route_implementer", None, None),
    ("fock.probes", "fock", "truncation_safe_probes", None, None),
    ("fock.probes", "fock", "pattern_probes", None, None),
    ("fock.probes", "fock", "probe_matrix", None, None),
    ("fock.phase", "fock", "phase_from_elements", _phase_pairs, None),
    ("cones.overlap_sampled", "cones", "cones_overlap_sampled", None, None),
    ("cones.disjoint_lp", "cones", "cones_disjoint", None, None),
    ("cones.disjoint_lp", "cones", "polygons_disjoint", None, None),
    ("cones.fermi_elements", "cones", "fermi_exchange_elements", None, None),
    ("covering.relative_winding", "covering", "relative_winding", None, None),
    ("claim.prop-schwinger-blip", "acceptance", "check_schwinger_closed_form", None, None),
    ("claim.lemma-hs-dichotomy", "acceptance", "check_hs_dichotomy", None, None),
    ("claim.lemma-implementer", "acceptance", "check_implementer_algebra", None, None),
    ("claim.eq-implementerdef-crossval", "acceptance", "check_implementer_crossval", None, None),
    ("claim.lemma-commutation", "acceptance", "check_exchange_phases", None, None),
    ("claim.thm1-2pi-shift", "acceptance", "check_two_pi_shift", None, None),
    ("claim.thm1-recurrence", "acceptance", "check_spin_recurrence", None, None),
    ("claim.eq-rotrep", "acceptance", "check_rotation_identities", None, None),
    ("claim.thm-cones", "acceptance", "check_cone_theorem", None, None),
    ("claim.winding-algebra", "acceptance", "check_winding_algebra", None, None),
    ("cli.write", "cli", "write_rows_csv", None, None),
    ("cli.write", "cli", "write_summary", None, None),
    ("cli.main", "cli", "main", None, None),
]

CLAIM_IDS = [name.split(".", 1)[1] for name, *_ in TARGETS if name.startswith("claim.")]
LAYERS = list(dict.fromkeys(name.split(".", 1)[0] for name, *_ in TARGETS))

# per-layer metric -> (kind, span name or count key); "self" sums self
# times of the named spans, "calls" counts them, "count" sums a work count
METRICS = {
    "blip.synth_s": ("self", "blip.synth"),
    "blip.synth_calls": ("calls", "blip.synth"),
    "blip.tail_integral_s": ("self", "blip.tail_integral"),
    "blip.tail_points": ("count", "tail_points"),
    "modes.analyze_s": ("self", "modes.analyze"),
    "modes.multiplication_operator_s": ("self", "modes.multiplication_operator"),
    "schwinger.trace_s": ("self", "schwinger.trace"),
    "schwinger.quadrature_s": ("self", "schwinger.quadrature"),
    "anyon.context_init_s": ("self", "anyon.context_init"),
    "anyon.blip_multiplier_s": ("self", "anyon.blip_multiplier"),
    "anyon.measure_s": ("self", "anyon.measure"),
    "anyon.table_elements": ("count", "table_elements"),
    "anyon.scaled_elements_s": ("self", "anyon.scaled_elements"),
    "anyon.spin_recurrence_s": ("self", "anyon.spin_recurrence"),
    "sector.engine_init_s": ("self", "sector.engine_init"),
    "sector.dgamma_csr_s": ("self", "sector.dgamma_csr"),
    "sector.dgamma_csr_calls": ("calls", "sector.dgamma_csr"),
    "sector.dgamma_csr_nnz": ("count", "dgamma_csr_nnz"),
    "sector.expi_s": ("self", "sector.expi"),
    "sector.chebyshev_s": ("self", "sector.chebyshev"),
    "sector.shift_apply_s": ("self", "sector.shift_apply"),
    "sector.cache_hits": ("count", "cache_hits"),
    "sector.cache_misses": ("count", "cache_misses"),
    "fock.basis_init_s": ("self", "fock.basis_init"),
    "fock.implementer_exp_s": ("self", "fock.implementer_exp"),
    "fock.implementer_shift_s": ("self", "fock.implementer_shift"),
    "fock.ec_route_s": ("self", "fock.ec_route"),
    "fock.probes_s": ("self", "fock.probes"),
    "fock.phase_s": ("self", "fock.phase"),
    "fock.phase_pairs": ("count", "phase_pairs"),
    "fock.phase_pairs_kept": ("count", "phase_pairs_kept"),
    "cones.overlap_sampled_s": ("self", "cones.overlap_sampled"),
    "cones.overlap_sampled_calls": ("calls", "cones.overlap_sampled"),
    "cones.disjoint_lp_s": ("self", "cones.disjoint_lp"),
    "cones.lp_calls": ("calls", "cones.disjoint_lp"),
    "cones.fermi_elements_s": ("self", "cones.fermi_elements"),
    "covering.relative_winding_s": ("self", "covering.relative_winding"),
    **{f"claim.{cid}_s": ("wall", f"claim.{cid}") for cid in CLAIM_IDS},
    "cli.write_s": ("self", "cli.write"),
    **{f"self.{layer}_s": ("layer", layer) for layer in LAYERS},
}


# ------------------------------------------------------------ recording


class Recorder:
    """In-memory span list; a per-thread stack supplies each span's parent."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def wrap(self, name, func, counter, state):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            before = state(args, kwargs) if state else None
            # id, parent, name, start, end, counts
            rec = [span_id, stack[-1] if stack else None, name, 0.0, 0.0, None]
            stack.append(span_id)
            rec[3] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
                self.spans.append(rec)
            if counter:
                rec[5] = counter(args, kwargs, result, before)
            return result

        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, counts in sorted(self.spans):
                rec = {"id": span_id, "parent": parent, "name": name,
                       "start": start, "end": end}
                if counts:
                    rec["counts"] = counts
                fh.write(json.dumps(rec) + "\n")


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) for a target, or None when absent."""
    owner = sys.modules.get(f"{PACKAGE}.{module_name}")
    if owner is None:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = vars(owner).get(part)
        if owner is None:
            return None
    original = vars(owner).get(parts[-1])
    if original is None:
        return None
    return owner, parts[-1], original


def install(recorder: Recorder) -> list[str]:
    """Wrap every present target; return the targets found absent."""
    absent = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    for name, module_name, path, counter, state in TARGETS:
        found = _resolve(module_name, path)
        if found is None:
            absent.append(f"{module_name}.{path}")
            continue
        owner, attr, original = found
        traced = recorder.wrap(name, original, counter, state)
        setattr(owner, attr, traced)
        if "." not in path:
            # rebind every `from .module import name` copy as well
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
    return absent


# ---------------------------------------------------------- aggregation


def read_jsonl(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> dict[int, float]:
    covered: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + (s["end"] - s["start"])
    return {s["id"]: (s["end"] - s["start"]) - covered.get(s["id"], 0.0) for s in spans}


def per_layer_metrics(spans: list[dict]) -> dict[str, float]:
    selfs = self_times(spans)
    sums = {"self": defaultdict(float), "wall": defaultdict(float), "layer": defaultdict(float),
            "calls": defaultdict(int), "count": defaultdict(int)}
    for s in spans:
        name, own = s["name"], selfs[s["id"]]
        sums["self"][name] += own
        sums["wall"][name] += s["end"] - s["start"]
        sums["calls"][name] += 1
        sums["layer"][name.split(".", 1)[0]] += own
        for key, value in (s.get("counts") or {}).items():
            sums["count"][key] += value
    return {metric: sums[kind].get(key, 0) for metric, (kind, key) in METRICS.items()}
