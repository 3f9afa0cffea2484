"""Exit codes, output schema, and reproducibility of the command line."""

import configparser
import json
import math
import time
from pathlib import Path

import pytest

from anyoncircle import acceptance, anyon, fock
from anyoncircle.cli import CSV_HEADER, load_campaign, main, write_summary
from anyoncircle.acceptance import (
    CLAIM_IDS,
    CriterionResult,
    check_schwinger_closed_form,
    check_winding_algebra,
)

REDUCED_CFG = """\
[campaign]
output_dir = unused
seed = 20260816

[exchange]
cutoffs = 4
threshold_scale = {scale}

[schwinger]
samples = 2
grid = 4096

[implementer]
cutoff = 4

[recurrence]
cutoff = 4

[rotation]
cutoff = 4
dense_cutoff = 3

[cones]
scan_pairs = 10

[winding]
pairs = 200
"""


def _write_cfg(tmp_path: Path, scale: float) -> Path:
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(REDUCED_CFG.format(scale=scale))
    return cfg


# -------------------------------------------------------- simple probes


def test_schwinger_example_passes(capsys):
    code = main(
        ["schwinger", "--omega", "3.14159", "--eps1", "0.3", "--eps2", "0.3",
         "--grid", "4096"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "abs diff" in out


def test_schwinger_rejects_unseparated_geometry(capsys):
    code = main(["schwinger", "--omega", "0.1", "--eps1", "0.3", "--eps2", "0.3"])
    assert code == 2
    assert "invalid input" in capsys.readouterr().err


def test_implementer_check_passes_and_fails_on_tight_tolerance(capsys):
    assert main(["implementer-check"]) == 0
    # the covariance residual is float-level but nonzero, so an impossible
    # tolerance must flip the verdict
    assert main(["implementer-check", "--cov-tol", "1e-18"]) == 1
    assert "FAIL lemma-implementer" in capsys.readouterr().out


def test_commutation_reports_decreasing_errors(capsys):
    code = main(
        ["commutation", "--spin", "0.25", "--omega1", "0.0", "--omega2", "3.1",
         "--eps", "0.3", "--cutoffs", "4,6"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "error decrease over windows: ok" in out
    data_lines = [l for l in out.splitlines() if l and not l.startswith(("#", "error"))]
    assert len(data_lines) == 4


def test_commutation_accepts_spin_half_within_rounding(capsys):
    # AnyonSpec admits s = 1/2 + 4e-15; the coupling must clamp to 0 there
    code = main(
        ["commutation", "--spin", "0.500000000000004", "--omega1", "0.9",
         "--omega2", "3.9", "--cutoffs", "4"]
    )
    out = capsys.readouterr().out
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if l.startswith("4,")]
    assert [r[1] for r in rows] == ["product", "adjoint"]
    for row in rows:
        # both spin-1/2 phases are +1 at relative winding -1
        measured = complex(float(row[2]), float(row[3]))
        assert abs(measured - 1.0) < 1e-12
        assert float(row[6]) < 1e-12


def test_aux_commutation_exit_zero():
    code = main(
        ["aux-commutation", "--spin", "0.25", "--omega1", "0.0", "--omega2", "3.1",
         "--eps", "0.3", "--cutoffs", "4,6"]
    )
    assert code == 0


def test_spin_statistics_exit_zero(capsys):
    assert main(["spin-statistics", "--spin", "0.25", "--cutoff", "4"]) == 0
    assert "PASS thm1-recurrence" in capsys.readouterr().out


def test_spin_statistics_runs_past_the_dense_limit(monkeypatch, capsys):
    # the covariance rows are minors of the field: no Fock basis at M = 16
    def refuse(self, window):
        raise AssertionError(f"FockBasis built at M={window.cutoff}")

    monkeypatch.setattr(fock.FockBasis, "__init__", refuse)
    assert main(["spin-statistics", "--spin", "0.25", "--cutoff", "16"]) == 0
    out = capsys.readouterr().out
    assert "PASS thm1-recurrence" in out and "recurrence-s0.25-covariance" in out


def test_special_cases_exit_zero(capsys):
    assert main(["special-cases"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok") == 4


def test_exchange_commands_run_past_the_old_mask_width(capsys):
    # raw-slot probes carry no 64-bit occupation mask, so M = 64 runs
    assert main(["special-cases", "--cutoff", "64"]) == 0
    assert capsys.readouterr().out.count("ok") == 4
    assert main(
        ["commutation", "--spin", "0.5", "--omega1", "0.9", "--omega2", "3.9",
         "--cutoffs", "32,64"]
    ) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["commutation", "--spin", "0.25", "--omega1", "0.9", "--omega2", "3.9",
         "--cutoffs", "100000"],
        ["spin-statistics", "--spin", "0.25", "--cutoff", "100000"],
    ],
    ids=["commutation", "spin-statistics"],
)
def test_huge_cutoff_exits_2_before_building_the_window(monkeypatch, capsys, argv):
    # the minor budget is checked on the probes, before any blip symbol or
    # one-particle matrix of the window exists
    def refuse(*args, **kwargs):
        raise AssertionError("a blip multiplier was built")

    monkeypatch.setattr(anyon, "blip_multiplier", refuse)
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 5.0
    assert "MiB" in capsys.readouterr().err


def test_hs_norm_emits_data_table(capsys):
    assert main(["hs-norm"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# M,blip_hs,sawtooth_hs,sawtooth_oracle")


def test_blip_probe(capsys):
    assert main(["blip", "--epsilon", "0.3", "--cutoff", "16"]) == 0
    assert "coefficient tail" in capsys.readouterr().out


# ---------------------------------------------------------------- cones


CONES_CFG = """\
[cone:east]
polygon = 0,0 1,0 0.5,0.9
center = 0.9
half_width = 0.65

[cone:southwest]
polygon = -5.5,-4.4 -4.7,-4.4 -5.1,-3.6
center = 3.9
half_width = 0.7

[pair:separated]
first = east
second = southwest
spin = 0.25
expect = disjoint
"""


def test_cones_config_pass(tmp_path, capsys):
    cfg = tmp_path / "cones.cfg"
    cfg.write_text(CONES_CFG)
    assert main(["cones", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "winding -1" in out


def test_cones_wrong_expectation_fails(tmp_path):
    cfg = tmp_path / "cones.cfg"
    cfg.write_text(CONES_CFG.replace("expect = disjoint", "expect = overlap"))
    assert main(["cones", "--config", str(cfg)]) == 1


def test_cones_unknown_reference_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cones.cfg"
    cfg.write_text(CONES_CFG.replace("second = southwest", "second = nowhere"))
    assert main(["cones", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


# --------------------------------------------------------------- report


def test_report_reduced_campaign_reproducible(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, scale=4.0)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["report", "--config", str(cfg), "--output-dir", str(out_a),
                 "--stable-timings"]) == 0
    assert main(["report", "--config", str(cfg), "--output-dir", str(out_b),
                 "--stable-timings"]) == 0
    capsys.readouterr()

    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted([f"{cid}.csv" for cid in CLAIM_IDS] + ["summary.json"])
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    summary = _strict_json((out_a / "summary.json").read_text())
    assert summary["all_passed"] is True
    assert [c["claim_id"] for c in summary["claims"]] == list(CLAIM_IDS)
    assert all(c["status"] == "pass" for c in summary["claims"])

    csv_lines = (out_a / "lemma-commutation.csv").read_text().splitlines()
    assert csv_lines[0] == CSV_HEADER
    assert all(line.split(",")[0] == "1" for line in csv_lines[1:])
    assert csv_lines[1:] == sorted(csv_lines[1:])


def test_report_failure_sets_exit_one(tmp_path, capsys):
    # halving the calibrated thresholds makes the single-window schedule
    # land above them, which must be reported, not hidden
    cfg = _write_cfg(tmp_path, scale=0.5)
    out = tmp_path / "fail"
    assert main(["report", "--config", str(cfg), "--output-dir", str(out),
                 "--stable-timings"]) == 1
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_passed"] is False
    by_id = {c["claim_id"]: c for c in summary["claims"]}
    assert by_id["lemma-commutation"]["status"] == "fail"
    assert by_id["winding-algebra"]["status"] == "pass"


def test_report_crashed_claim_does_not_abort_the_others(tmp_path, monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise RuntimeError("planted crash")

    monkeypatch.setattr(acceptance, "check_hs_dichotomy", crash)
    out = tmp_path / "crash"
    assert main(["report", "--config", str(_write_cfg(tmp_path, scale=4.0)),
                 "--output-dir", str(out), "--stable-timings"]) == 1
    capsys.readouterr()
    summary = _strict_json((out / "summary.json").read_text())
    assert [c["claim_id"] for c in summary["claims"]] == list(CLAIM_IDS)
    by_id = {c["claim_id"]: c for c in summary["claims"]}
    crashed = by_id.pop("lemma-hs-dichotomy")
    assert crashed["status"] == "fail" and crashed["margin"] is None
    assert crashed["note"] == "error: RuntimeError('planted crash')"
    assert (out / "lemma-hs-dichotomy.csv").read_text() == CSV_HEADER + "\n"
    assert all(c["status"] == "pass" and c["cases"] > 0 for c in by_id.values())


def test_report_has_no_jobs_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["report", "--config", str(_write_cfg(tmp_path, scale=4.0)), "--jobs", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_report_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("[campaign]\nseeed = 1\n")
    assert main(["report", "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    ["samples = 2", "scan_pairs = 10", "\npairs = 200"],
    ids=["samples", "scan_pairs", "pairs"],
)
def test_report_rejects_negative_counts(tmp_path, capsys, line):
    # a negative count would check nothing and still pass
    text = REDUCED_CFG.format(scale=4.0)
    assert line in text
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(text.replace(line, line.replace(" = ", " = -")))
    assert main(["report", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "expected a count >= 0" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, line, message",
    [
        ("schwinger", "grid = 100", "grid 100 < 4M+4"),
        ("hs", "epsilon = 2.0", "epsilon must lie in (0, pi/2)"),
        ("campaign", "seed = -1", "expected a count >= 0"),
        ("cones", "scan_seed = -3", "expected a count >= 0"),
        ("schwinger", "cutoffs = 0,4", "window cutoff must be >= 1"),
        ("hs", "cutoffs = 0,8", "window cutoff must be >= 1"),
        ("hs", "cutoffs = 8,100000", "MiB"),
    ],
    ids=["grid", "epsilon", "seed", "scan_seed", "schwinger-cutoffs", "hs-cutoffs",
         "hs-budget"],
)
def test_report_rejects_values_that_crash_a_claim(tmp_path, capsys, section, line, message):
    # each value once loaded and then crashed its claim with margin -inf
    parser = configparser.ConfigParser()
    parser.read_string(REDUCED_CFG.format(scale=4.0))
    if not parser.has_section(section):
        parser.add_section(section)
    parser.set(section, *line.split(" = "))
    cfg = tmp_path / "suite.cfg"
    with cfg.open("w") as fh:
        parser.write(fh)
    assert main(["report", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"[{section}] {line.split()[0]}" in err and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [["blip", "--epsilon", "0.3", "--cutoff", "100000"], ["hs-norm", "--cutoffs", "8,100000"]],
    ids=["blip", "hs-norm"],
)
def test_one_particle_matrix_past_the_budget_exits_two(monkeypatch, capsys, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("a blip was synthesized")

    monkeypatch.setattr(acceptance, "blip", refuse)
    monkeypatch.setattr("anyoncircle.cli.blip", refuse)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "invalid input" in err and "M=100000" in err and "MiB" in err


@pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1.0, 1e9, 300.0])
def test_report_rejects_bad_threshold_scale(tmp_path, capsys, scale):
    # a NaN scale makes every calibrated exchange bound NaN; from 251.5 on
    # every calibrated bound is at least 2, the largest error between two
    # unit phases, so only the exact spin-1/2 rows would still be checked
    cfg = _write_cfg(tmp_path, scale=scale)
    assert main(["report", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "threshold_scale" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scale", [4.0, 250.0])
def test_threshold_scale_below_the_ceiling_loads(tmp_path, scale):
    # 4.0 is the smoke schedule's scale; it lifts the -1/2 adjoint bound to
    # 2.79 while the other calibrated bounds stay below 2
    campaign = load_campaign(_write_cfg(tmp_path, scale=scale))
    assert campaign.settings.exchange_threshold_scale == scale


@pytest.mark.parametrize(
    "line", ["[implementer]\ncutoff = 4", "dense_cutoff = 3"], ids=["implementer", "rotation"]
)
def test_report_rejects_dense_cutoffs_past_the_fock_limit(tmp_path, capsys, line):
    # the dense Fock basis stops at M = 5; past it the claim could only crash
    text = REDUCED_CFG.format(scale=4.0)
    assert line in text
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(text.replace(line, line[:-1] + "6"))
    assert main(["report", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "dense Fock basis" in err
    assert not (tmp_path / "out").exists()
    cfg.write_text(text.replace(line, line[:-1] + "5"))
    settings = load_campaign(cfg).settings
    assert (settings.implementer_cutoff, settings.rotation_dense_cutoff) in ((5, 3), (4, 5))


@pytest.mark.parametrize(
    "line", ["[implementer]\ncutoff = 4", "dense_cutoff = 3"], ids=["implementer", "rotation"]
)
def test_report_rejects_dense_cutoffs_without_interior_modes(tmp_path, capsys, line):
    # the dense claims probe modes at least 2 inside the window edges
    text = REDUCED_CFG.format(scale=4.0)
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(text.replace(line, line[:-1] + "2"))
    assert main(["report", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "interior modes" in err
    assert not (tmp_path / "out").exists()
    cfg.write_text(text.replace(line, line[:-1] + "3"))
    settings = load_campaign(cfg).settings
    assert (settings.implementer_cutoff, settings.rotation_dense_cutoff) in ((3, 3), (4, 3))


# the last cutoffs whose minors fit the budget: the exchange tables and the
# rotation probes of recurrence and rotation claims
MINOR_KEYS = {
    "exchange": ("cutoffs = 4", 289),
    "recurrence": ("[recurrence]\ncutoff = 4", 322),
    "rotation": ("[rotation]\ncutoff = 4", 322),
}


@pytest.mark.parametrize("key", sorted(MINOR_KEYS))
def test_report_rejects_cutoffs_past_the_minor_budget(tmp_path, monkeypatch, capsys, key):
    line, last = MINOR_KEYS[key]
    text = REDUCED_CFG.format(scale=4.0)
    assert line in text
    cfg = tmp_path / "suite.cfg"

    def refuse(*args, **kwargs):
        raise AssertionError("a blip multiplier was built")

    monkeypatch.setattr(anyon, "blip_multiplier", refuse)
    for cutoff in (100000, last + 1):
        cfg.write_text(text.replace(line, line[:-1] + str(cutoff)))
        assert main(["report", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"[{key}] cutoff" in err and "MiB" in err
        assert not (tmp_path / "out").exists()
    cfg.write_text(text.replace(line, line[:-1] + str(last)))
    load_campaign(cfg)


@pytest.mark.parametrize("cutoffs", ["8", "8,8", "8,16,8"])
def test_report_rejects_hs_cutoffs_without_a_span(tmp_path, capsys, cutoffs):
    # the sawtooth slope divides by log(last / first)
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(REDUCED_CFG.format(scale=4.0) + f"\n[hs]\ncutoffs = {cutoffs}\n")
    assert main(["report", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "[hs] cutoffs" in err
    assert not (tmp_path / "out").exists()
    with pytest.raises(SystemExit) as exit_info:
        main(["hs-norm", "--cutoffs", cutoffs])
    assert exit_info.value.code == 2


def test_report_rejects_missing_file(tmp_path, capsys):
    assert main(["report", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert "config error" in capsys.readouterr().err


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def test_summary_is_strict_json_with_null_margins(tmp_path):
    results = [
        CriterionResult("finite", "finite margin", True, 0.25, [], 0.0),
        CriterionResult("empty", "no bound enforced", False, math.inf, [], 0.0),
        CriterionResult("crashed", "runner crashed", False, -math.inf, [], 0.0),
    ]
    path = tmp_path / "summary.json"
    write_summary(path, results, seed=1, stable=True)
    summary = _strict_json(path.read_text())
    assert [c["margin"] for c in summary["claims"]] == [0.25, None, None]
    assert summary["all_passed"] is False


def test_empty_claims_fail():
    # a claim that enforced no bound has checked nothing and must not pass
    schwinger = check_schwinger_closed_form(samples=0)
    winding = check_winding_algebra(pairs=0)
    for result in (schwinger, winding):
        assert not result.passed
        assert result.margin == math.inf
    assert check_winding_algebra(pairs=10).passed


def test_report_with_empty_claims_writes_strict_summary(tmp_path, capsys):
    text = REDUCED_CFG.format(scale=4.0)
    text = text.replace("samples = 2", "samples = 0").replace("pairs = 200", "pairs = 0")
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(text)
    out = tmp_path / "empty"
    assert main(["report", "--config", str(cfg), "--output-dir", str(out),
                 "--stable-timings"]) == 1
    capsys.readouterr()
    summary = _strict_json((out / "summary.json").read_text())
    by_id = {c["claim_id"]: c for c in summary["claims"]}
    for claim_id in ("prop-schwinger-blip", "winding-algebra"):
        assert by_id[claim_id]["status"] == "fail"
        assert by_id[claim_id]["margin"] is None
    assert by_id["lemma-commutation"]["status"] == "pass"
