"""Campaign benchmark for `anyon-circle report`.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                             [--campaign-seed N] [--scan-seed N]

Generates the workload's campaign config from the seeds, then runs
`report --stable-timings` on it in fresh child interpreters that import the
checkout's own `src/`, one round after another, for as many whole rounds as
fit in --seconds (at least one); a round from which the host stole more
than STEAL_SHARE of the wall time is run once more.  Every round's outputs
are checked against values computed here from the paper's formulas
(checks.py) and must be byte-identical to the first round's.  With --trace 1 one more round runs
with every public function of the package wrapped in a span (tracer.py);
its spans are kept in .perfbench_out/<workload>-spans.jsonl.

The last line of standard output is one JSON object with `correct`,
`attempted` (ten claims per round), `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  Exits with a
non-zero code and no result line when the campaign cannot run at all.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"

# The inputs are pinned by these two seeds, not drawn from --seed:
# prop-schwinger-blip fails its strict-decrease gate on 16 of the campaign
# seeds 1-40, and the cost of the 100-pair cone scan spreads by 31% of its
# median across scan seeds (README, "Seeds").
DEFAULT_SEED = 20260816
DEFAULT_SCAN_SEED = 1234
# a run must end within 180 s; the child is killed before that
RUN_DEADLINE_S = 170.0
# a round the host stole more of than this share is run again, once per
# run and only while the run is younger than RETRY_WITHIN_S: stolen CPU
# time made single rounds 50-80% slower on a shared 2-core machine
STEAL_SHARE = 0.10
RETRY_WITHIN_S = 100.0

# every claim at its smallest valid size; workloads scale up their own part
SMOKE = {
    "exchange": {"cutoffs": "4", "threshold_scale": "4.0"},
    "schwinger": {"samples": "1", "grid": "4096", "cutoffs": "8,16,32,64"},
    "hs": {"epsilon": "0.3", "cutoffs": "8,16,32,64"},
    "implementer": {"cutoff": "3"},
    "recurrence": {"cutoff": "4"},
    "rotation": {"cutoff": "3", "dense_cutoff": "3"},
    "cones": {"scan_pairs": "4"},
    "winding": {"pairs": "100"},
}

WORKLOADS = {
    # the sector Chebyshev sweep up to M = 8 at the calibrated thresholds
    "exchange_sweep": {"exchange": {"cutoffs": "4,6,8", "threshold_scale": "1.0"}},
    # the shipped Schwinger schedule: 20 profile pairs at grid 4096
    "blip_schwinger": {"schwinger": {"samples": "20", "grid": "4096",
                                     "cutoffs": "8,16,32,64"}},
    # cross-check routes: sampled cone oracle, dense Fock space, recurrence
    "oracles": {
        "implementer": {"cutoff": "5"},
        "recurrence": {"cutoff": "7"},
        "rotation": {"cutoff": "7", "dense_cutoff": "4"},
        "cones": {"scan_pairs": "100"},
        "winding": {"pairs": "20000"},
    },
}

# layers whose summed self time the traced run is expected to be led by
DOMINANT = {"exchange_sweep": ("sector", "anyon"), "blip_schwinger": ("blip",),
            "oracles": ("cones",)}

END_TO_END_UNITS = {"setup_s": "s", "report_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The campaign could not be run or its outputs could not be read."""


@dataclass
class Round:
    setup_s: float
    report_s: float
    peak_rss_mb: float
    cpu_s: float
    wall_s: float
    steal_s: float
    out: Path
    failures: dict[str, list[str]]
    spans: list[dict] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)


def write_config(path: Path, workload: str, campaign_seed: int, scan_seed: int) -> dict:
    """Write the campaign config; return the sizes the outputs must show."""
    sections = {name: dict(keys) for name, keys in SMOKE.items()}
    for name, keys in WORKLOADS[workload].items():
        sections[name].update(keys)
    sections["campaign"] = {"seed": str(campaign_seed)}
    sections["cones"]["scan_seed"] = str(scan_seed)
    parser = configparser.ConfigParser()
    parser.read_dict(sections)
    with open(path, "w") as fh:
        parser.write(fh)

    def ints(text: str) -> list[int]:
        return [int(tok) for tok in text.split(",")]

    return {
        "exchange_cutoffs": ints(sections["exchange"]["cutoffs"]),
        "scan_pairs": int(sections["cones"]["scan_pairs"]),
        "schwinger_samples": int(sections["schwinger"]["samples"]),
        "schwinger_cutoffs": ints(sections["schwinger"]["cutoffs"]),
    }


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap the child with its resource usage; kill it past the deadline or on exit."""
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage
            if time.monotonic() > deadline:
                raise BenchError("campaign did not finish before the run deadline")
            time.sleep(0.02)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.returncode = os.waitstatus_to_exitcode(os.wait4(proc.pid, 0)[1])


def stolen_s() -> float:
    """CPU time the host has stolen from this machine so far, from /proc/stat."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def run_round(rdir: Path, config: Path, settings: dict, traced: bool, deadline: float) -> Round:
    home, out = rdir / "home", rdir / "out"
    home.mkdir(parents=True)
    timing_path, spans_path = rdir / "timing.json", rdir / "spans.jsonl"
    env = dict(os.environ)
    for key in ("ANYON_JOBS", "ANYON_STABLE_TIMINGS"):
        env.pop(key, None)
    env.update(HOME=str(home), XDG_CACHE_HOME=str(home), TMPDIR=str(home))
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(timing_path),
           str(spans_path) if traced else "-",
           "report", "--config", str(config), "--output-dir", str(out), "--stable-timings"]
    with open(rdir / "stdout.txt", "w") as so, open(rdir / "stderr.txt", "w") as se:
        steal = stolen_s()
        spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=env, cwd=rdir)
        code, usage = _wait(proc, deadline)
        wall = time.clock_gettime(time.CLOCK_MONOTONIC) - spawn
        steal = stolen_s() - steal
    if not timing_path.exists():
        err = (rdir / "stderr.txt").read_text().strip().splitlines()
        raise BenchError(f"campaign exited {code} without timings: {err[-1] if err else ''}")
    timing = json.loads(timing_path.read_text())
    try:
        failures, all_passed = checks.check_campaign(out, settings)
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"unreadable campaign outputs: {exc!r}") from exc
    if code != (0 if all_passed else 1):
        raise BenchError(f"exit code {code} does not match all_passed={all_passed}")
    return Round(
        setup_s=timing["ready"] - spawn,
        report_s=timing["report_s"],
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        wall_s=wall,
        steal_s=steal,
        out=out,
        failures=failures,
        spans=tracer.read_jsonl(spans_path) if traced else [],
        absent=timing["absent"],
    )


def same_outputs(first: Path, other: Path) -> list[str]:
    names = sorted(p.name for p in first.iterdir())
    if names != sorted(p.name for p in other.iterdir()):
        return ["different output file sets"]
    return [n for n in names if (first / n).read_bytes() != (other / n).read_bytes()]


def describe(label: str, r: Round) -> None:
    failed = ", ".join(f"{c}: {'; '.join(why[:2])}" for c, why in r.failures.items())
    print(f"{label}: setup {r.setup_s:.3f} s, report {r.report_s:.3f} s, "
          f"peak {r.peak_rss_mb:.1f} MB, cpu {r.cpu_s:.2f} s, stolen {r.steal_s:.2f} s, "
          f"claims failed: {failed or 'none'}")


def trace_report(workload: str, traced: Round, untraced: list[Round]) -> tuple[dict, bool]:
    metrics = tracer.per_layer_metrics(traced.spans)
    metrics["trace.overhead_s"] = traced.report_s - statistics.median(
        r.report_s for r in untraced)
    total_self = sum(tracer.self_times(traced.spans).values())
    nested = total_self <= traced.report_s + 1e-6
    print(f"traced: summed self time {total_self:.3f} s, report {traced.report_s:.3f} s"
          f"{'' if nested else '  (EXCEEDS the wall time)'}")
    layers = {k[len('self.'):-2]: v for k, v in metrics.items() if k.startswith("self.")}
    ranked = sorted(layers.items(), key=lambda kv: -kv[1])
    print("layer self times: " + ", ".join(f"{k} {v:.3f} s" for k, v in ranked))
    lead = DOMINANT[workload]
    lead_s = sum(layers[k] for k in lead)
    rest = max(v for k, v in layers.items() if k not in lead)
    print(f"predicted leading layer {'+'.join(lead)} {lead_s:.3f} s "
          f"{'leads' if lead_s > rest else 'does NOT lead'} (next {rest:.3f} s)")
    print("absent targets: " + (", ".join(traced.absent) or "none"))
    return metrics, nested


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="run label; the inputs stay pinned by the two seeds below (README)")
    ap.add_argument("--campaign-seed", type=int, default=DEFAULT_SEED,
                    help="[campaign] seed: Schwinger profiles, rotation pairs, winding pairs")
    ap.add_argument("--scan-seed", type=int, default=DEFAULT_SCAN_SEED,
                    help="[cones] scan_seed of the randomized cone scan")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run still kills and reaps its child (see _wait)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S

    if not (SRC / "anyoncircle" / "cli.py").is_file():
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2
    # the only build step: byte-compile, so every round's set-up reads .pyc files
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "anyoncircle")],
                   check=True, stdout=subprocess.DEVNULL)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        config = work / "campaign.cfg"
        settings = write_config(config, args.workload, args.campaign_seed, args.scan_seed)
        rounds: list[Round] = []
        discarded: list[Round] = []

        def attempt() -> Round:
            r = run_round(work / f"round{len(rounds) + len(discarded)}", config, settings,
                          False, deadline)
            describe(f"round {len(rounds) + 1}", r)
            return r

        while True:
            r = attempt()
            if (r.steal_s > STEAL_SHARE * r.wall_s and not discarded
                    and time.monotonic() - started + r.wall_s < RETRY_WITHIN_S):
                print(f"round {len(rounds) + 1} runs again: the host stole "
                      f"{r.steal_s / r.wall_s:.1%} of it")
                discarded.append(r)
                r = attempt()
            rounds.append(r)
            elapsed = time.monotonic() - started
            if elapsed + max(r.wall_s for r in rounds) > args.seconds:
                break
        traced = None
        if args.trace:
            traced = run_round(work / "traced", config, settings, True, deadline)
            describe("traced round", traced)
            shutil.copyfile(work / "traced" / "spans.jsonl",
                            WORK / f"{args.workload}-spans.jsonl")
        everyone = rounds + discarded + ([traced] if traced else [])
        differing = [f"{r.out.parent.name}: {d}" for r in everyone[1:]
                     for d in same_outputs(rounds[0].out, r.out)]
        for line in differing:
            print(f"outputs differ from round 1: {line}")
        correct = not differing
        if traced:
            metrics, nested = trace_report(args.workload, traced, rounds)
            correct = correct and nested
            result = {k: {"value": v, "unit": "s" if k.endswith("_s") else "count"}
                      for k, v in metrics.items()}
        else:
            result = {k: {"value": statistics.median(getattr(r, k) for r in rounds),
                          "unit": unit} for k, unit in END_TO_END_UNITS.items()}
        print(json.dumps({
            "correct": correct,
            "attempted": len(checks.CLAIMS) * len(everyone),
            "failed": sum(len(r.failures) for r in everyone),
            "metrics": result,
        }))
        return 0
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
