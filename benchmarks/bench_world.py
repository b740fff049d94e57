"""World-generation throughput: the paper-scale fast path.

Times :func:`~repro.workload.scenario.build_world` at a configurable
scale and reports **registrations/sec**, wall seconds, peak RSS, and the
:func:`~repro.workload.scenario.world_fingerprint` digest — the proof
that the fast path did not perturb a single sampled value.  Optionally
(``--pipeline``) runs the five-step pipeline over the freshly built
world so the end-to-end latency of "construct the paper's world and
measure it" is one number.

Run standalone for the JSON report (also written to
``benchmarks/BENCH_worldgen.json``)::

    PYTHONPATH=src python benchmarks/bench_world.py                 # 1/500
    PYTHONPATH=src python benchmarks/bench_world.py --inv-scale 200
    PYTHONPATH=src python benchmarks/bench_world.py --inv-scale 1 --pipeline

``--check-baseline`` compares the measured build time against the
committed ``BENCH_worldgen.json`` and exits non-zero on a >2x
regression (the CI bench-smoke job runs this; the tolerance is
documented in ``benchmarks/conftest.py``), and appends one compact run
record (timestamp, git rev, key metrics, fingerprint, pass/fail) to
the append-only ``benchmarks/TREND.jsonl`` history.  ``--profile PATH``
samples the measured build with :mod:`repro.obs.profiler` and writes
flamegraph-collapsed stacks; ``--span-overhead`` times the build with
instrumentation off / spans on / spans + profiler and reports both
overhead percentages (budgets: spans 2 %, profiler 5 %).
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from repro.obs.profiler import SamplingProfiler
from repro.obs.spans import set_enabled, tracer
from repro.workload.scenario import (
    ScenarioConfig,
    build_world,
    world_fingerprint,
)
from repro.workload.scenarios import parse_scenario_spec

#: Default measurement point: the scale the seed implementation was
#: profiled at (≈34 k registrations).
INV_SCALE = 500
SEED = 7

#: Wall seconds the *seed* implementation (PR 2 tip, commit 937ea33)
#: needs at the default measurement point on the reference machine
#: (median of 5 warm builds) — the denominator of the reported speedup.
SEED_BASELINE = {"inv_scale": 500, "seed": 7, "build_sec": 2.317,
                 "include_cctld": False}


def run_build(inv_scale: int = INV_SCALE, seed: int = SEED,
              include_cctld: bool = False, pipeline: bool = False,
              fingerprint: bool = True, rounds: int = 1,
              scenario: Optional[str] = None) -> dict:
    scenario_name, scenario_knobs = (parse_scenario_spec(scenario)
                                     if scenario else (None, {}))
    config = ScenarioConfig(seed=seed, scale=1.0 / inv_scale,
                            include_cctld=include_cctld,
                            scenario=scenario_name,
                            scenario_knobs=scenario_knobs)
    build_sec = None
    for _ in range(max(1, rounds)):
        # Reset per round so the reported phase table covers exactly
        # the final build, not rounds-times-accumulated totals.
        tracer().reset()
        start = time.perf_counter()
        world = build_world(config)
        elapsed = time.perf_counter() - start
        build_sec = elapsed if build_sec is None else min(build_sec, elapsed)
    regs = world.registries.total_registrations()
    report = {
        "inv_scale": inv_scale,
        "seed": seed,
        "include_cctld": include_cctld,
        "scenario": scenario,
        "registrations": regs,
        "certstream_events": world.certstream.event_count(),
        "build_sec": round(build_sec, 4),
        "registrations_per_sec": round(regs / build_sec, 1),
        # The scale-curve metric: with the never-evicting interner this
        # stays flat from 1/500 to 1/100 (the old normalize-cache knee).
        "us_per_registration": round(build_sec / regs * 1e6, 1),
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        # Per-phase wall/RSS spans of the final build round — the
        # between-PR trajectory ISSUE 6 adds (see docs/observability.md).
        "phases": {phase: totals
                   for phase, totals in sorted(
                       tracer().phase_totals().items())
                   if phase.startswith("build.")},
    }
    if (SEED_BASELINE["inv_scale"] == inv_scale
            and SEED_BASELINE["seed"] == seed
            and SEED_BASELINE["include_cctld"] == include_cctld):
        report["seed_build_sec"] = SEED_BASELINE["build_sec"]
        report["speedup_vs_seed"] = round(
            SEED_BASELINE["build_sec"] / build_sec, 2)
    if fingerprint:
        start = time.perf_counter()
        report["fingerprint"] = world_fingerprint(world)
        report["fingerprint_sec"] = round(time.perf_counter() - start, 4)
    if pipeline:
        from repro.core.pipeline import run_pipeline
        from repro.workload.scenario import _gc_paused
        start = time.perf_counter()
        # The same GC pause build_world uses: at paper scale the heap
        # holds tens of millions of live objects and cyclic collections
        # during the measurement run only re-scan them.
        with _gc_paused():
            result = run_pipeline(world)
        report["pipeline_sec"] = round(time.perf_counter() - start, 4)
        report["candidates"] = len(result.candidates)
        report["confirmed_transients"] = len(result.confirmed_transients)
        report["peak_rss_mb"] = round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return report


def measure_span_overhead(inv_scale: int = INV_SCALE, seed: int = SEED,
                          include_cctld: bool = False,
                          rounds: int = 3) -> dict:
    """Cost of the instrumentation on the build, best-of-``rounds``.

    Three timings of the identical build: process tracer disabled
    (``set_enabled``), tracer enabled, and tracer + sampling profiler
    at the default interval.  The acceptance budgets: 2 % for spans
    alone (ISSUE 6), 5 % for the profiler on top (ISSUE 7), both at
    the canonical 1/500 point.  Span count is small by design — phases
    are coarse — so the measured deltas are usually within timer
    noise; percentages are floored at 0 rather than reporting a
    negative "speedup" from jitter.
    """
    config = ScenarioConfig(seed=seed, scale=1.0 / inv_scale,
                            include_cctld=include_cctld)

    def build_sec() -> float:
        tracer().reset()
        start = time.perf_counter()
        build_world(config)
        return time.perf_counter() - start

    def run_disabled() -> float:
        set_enabled(False)
        try:
            return build_sec()
        finally:
            set_enabled(True)

    def run_enabled() -> float:
        set_enabled(True)
        return build_sec()

    samples = 0

    def run_profiled() -> float:
        nonlocal samples
        set_enabled(True)
        profiler = SamplingProfiler().start()
        try:
            return build_sec()
        finally:
            profiler.stop()
            samples += profiler.samples

    # Interleave the three variants within each round (not three
    # sequential blocks — machine drift between blocks dwarfs the
    # sub-percent deltas) AND rotate their order every round: within a
    # round later builds run on a warmer, larger heap, so a fixed
    # order systematically penalises whichever variant goes last.
    variants = [("disabled", run_disabled), ("enabled", run_enabled),
                ("profiled", run_profiled)]
    best = {name: None for name, _ in variants}
    try:
        for i in range(max(1, rounds)):
            order = variants[i % 3:] + variants[:i % 3]
            for name, run in order:
                elapsed = run()
                if best[name] is None or elapsed < best[name]:
                    best[name] = elapsed
    finally:
        set_enabled(True)
    disabled_sec = best["disabled"]
    enabled_sec = best["enabled"]
    profiled_sec = best["profiled"]
    overhead_pct = max(0.0, (enabled_sec - disabled_sec)
                       / disabled_sec * 100.0)
    profiler_pct = max(0.0, (profiled_sec - enabled_sec)
                       / enabled_sec * 100.0)
    return {
        "spans_enabled_sec": round(enabled_sec, 4),
        "spans_disabled_sec": round(disabled_sec, 4),
        "span_overhead_pct": round(overhead_pct, 2),
        "profiled_sec": round(profiled_sec, 4),
        "profiler_samples": samples,
        "profiler_overhead_pct": round(profiler_pct, 2),
    }


def _git_rev() -> Optional[str]:
    """Short git revision of the repo (None outside a checkout)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def test_world_build_throughput(bench_baseline):
    # Pytest entry: measure at the default point and refresh the
    # committed baseline (the fingerprint pins value preservation).
    report = run_build()
    print()
    print(json.dumps(report, indent=2, sort_keys=True))
    assert report["registrations"] > 10_000
    bench_baseline("worldgen", report)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inv-scale", type=int, default=INV_SCALE,
                        help="1/scale denominator (500 -> scale=1/500; "
                             "1 -> the paper's full volumes)")
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--cctld", action="store_true",
                        help="include the ccTLD ground-truth population")
    parser.add_argument("--pipeline", action="store_true",
                        help="also run the five-step pipeline on the world")
    parser.add_argument("--no-fingerprint", action="store_true",
                        help="skip the world fingerprint (it costs one "
                             "pass over every lifecycle)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="print the report without writing "
                             "BENCH_worldgen.json")
    parser.add_argument("--check-baseline", action="store_true",
                        help="compare against the committed baseline and "
                             "exit 1 on a >2x build-time regression")
    parser.add_argument("--rounds", type=int, default=None,
                        help="build repeats, best-of-N timing (default 1; "
                             "3 under --check-baseline so noisy runners "
                             "time a warm build)")
    parser.add_argument("--scenario", metavar="SPEC", default=None,
                        help="build a scenario world (name, optionally "
                             "with knob overrides, e.g. 'registrar-burst:"
                             "burst_mult=12'); scenario runs never touch "
                             "the committed worldgen baseline")
    parser.add_argument("--span-overhead", action="store_true",
                        help="also time the build with the span tracer "
                             "disabled and with the profiler sampling, "
                             "and report both overhead percentages "
                             "(budgets: spans 2%%, profiler 5%%)")
    parser.add_argument("--profile", metavar="PATH", default=None,
                        help="sample the measured build with the built-in "
                             "profiler and write flamegraph-collapsed "
                             "stacks to PATH")
    parser.add_argument("--timestamp", type=int, default=None,
                        metavar="UNIX_TS",
                        help="timestamp recorded in the TREND.jsonl run "
                             "record under --check-baseline (default: now)")
    args = parser.parse_args()
    rounds = args.rounds if args.rounds else (3 if args.check_baseline else 1)
    profiler = SamplingProfiler().start() if args.profile else None
    report = run_build(inv_scale=args.inv_scale, seed=args.seed,
                       include_cctld=args.cctld, pipeline=args.pipeline,
                       fingerprint=not args.no_fingerprint, rounds=rounds,
                       scenario=args.scenario)
    if profiler is not None:
        profiler.stop()
        report["profile"] = {
            "out": args.profile,
            "stacks": profiler.write_collapsed(args.profile),
            "samples": profiler.samples,
            "phase_samples": profiler.phase_samples(),
        }
    if args.span_overhead:
        report.update(measure_span_overhead(
            inv_scale=args.inv_scale, seed=args.seed,
            include_cctld=args.cctld, rounds=max(6, rounds)))
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.check_baseline:
        # Imported lazily: conftest pulls in pytest only when present.
        from conftest import BASELINE_DIR, check_against_baseline
        # Timing and fingerprint compare only at the committed
        # measurement point.
        problems = check_against_baseline(
            "worldgen", report, lower_is_better=("build_sec",),
            scale_keys=("inv_scale", "seed", "include_cctld", "scenario"))
        committed_path = BASELINE_DIR / "BENCH_worldgen.json"
        same_point = False
        if committed_path.exists():
            committed = json.loads(committed_path.read_text())
            same_point = all(committed.get(k) == report.get(k)
                             for k in ("inv_scale", "seed", "include_cctld",
                                       "scenario"))
            want = committed.get("fingerprint")
            if (want and same_point and "fingerprint" in report
                    and want != report["fingerprint"]):
                problems.append(
                    f"world fingerprint changed: {report['fingerprint']} "
                    f"vs committed {want} — sampling was perturbed")
        # Every gated run leaves one line of history, pass or fail —
        # the append-only perf trajectory (S2, docs/observability.md).
        from conftest import append_trend
        record = {
            "ts": args.timestamp if args.timestamp is not None
            else int(time.time()),
            "rev": _git_rev(),
            "inv_scale": args.inv_scale,
            "seed": args.seed,
            "include_cctld": args.cctld,
            "scenario": args.scenario,
            "build_sec": report["build_sec"],
            "registrations_per_sec": report["registrations_per_sec"],
            "us_per_registration": report["us_per_registration"],
            "peak_rss_mb": report["peak_rss_mb"],
            "fingerprint": report.get("fingerprint"),
            "ok": not problems,
        }
        append_trend(record)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            raise SystemExit(1)
        if committed_path.exists() and not same_point:
            print("baseline comparison skipped: measurement point differs "
                  "from committed BENCH_worldgen.json")
        else:
            print("baseline check ok")
    elif (not args.no_baseline and args.inv_scale == INV_SCALE
          and args.seed == SEED and not args.cctld
          and args.scenario is None):
        # Only the canonical measurement point may refresh the committed
        # baseline — the same point the CI check gates on.  The profile
        # section is run-local diagnostics, not a comparable metric.
        from conftest import write_baseline  # benchmarks/ on sys.path
        write_baseline("worldgen",
                       {k: v for k, v in report.items() if k != "profile"})


if __name__ == "__main__":
    main()
