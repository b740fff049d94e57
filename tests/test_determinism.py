"""End-to-end determinism: same seed ⇒ bit-identical results."""

from dataclasses import replace

import pytest

from repro.analysis.report import full_report
from repro.core.pipeline import run_pipeline
from repro.workload.scenario import (
    ScenarioConfig,
    build_world,
    world_fingerprint,
)


CONFIG = ScenarioConfig(seed=21, scale=1 / 5000, tlds=["com", "xyz", "top"],
                        include_cctld=False)

#: Golden world fingerprints.  They pin every sampled value in a world:
#: any optimization that perturbs a single draw — one extra RNG call,
#: one reordered weighted pick, one changed hash — changes these
#: digests and fails the suite.  If a future PR *intends* to change
#: sampling, re-record via
#: ``PYTHONPATH=src python -c "from repro.workload.scenario import *; \
#: print(world_fingerprint(build_world(<config>)))"`` and say so in the
#: PR description.
#:
#: Fingerprint epoch 2: re-recorded for the per-``(tld, month)`` stream
#: relayout (docs/determinism.md "Re-recording goldens") — month-scoped
#: stream paths and name namespaces deliberately changed every digest.
GOLDEN_FINGERPRINTS = {
    "gtld_small": (
        ScenarioConfig(seed=21, scale=1 / 5000, tlds=["com", "xyz", "top"],
                       include_cctld=False),
        "f43497fbdd28f526f290d8e71eaa881d",
    ),
    "with_cctld": (
        ScenarioConfig(seed=11, scale=1 / 4000, tlds=["com", "shop"],
                       include_cctld=True, cctld_scale=1 / 100),
        "ca5aec293743bc948ebd8f8996d12028",
    ),
}


class TestWorldFingerprintGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_FINGERPRINTS))
    def test_fingerprint_matches_golden(self, name):
        config, expected = GOLDEN_FINGERPRINTS[name]
        assert world_fingerprint(build_world(config)) == expected

    def test_fingerprint_stable_across_builds(self):
        config, _ = GOLDEN_FINGERPRINTS["gtld_small"]
        assert (world_fingerprint(build_world(config))
                == world_fingerprint(build_world(config)))

    def test_fingerprint_seed_sensitive(self):
        config, expected = GOLDEN_FINGERPRINTS["gtld_small"]
        from dataclasses import replace
        other = world_fingerprint(build_world(replace(config, seed=22)))
        assert other != expected


class TestScenarioIdentity:
    """The scenario engine's zero-cost guarantee: ``scenario="baseline"``
    (the identity plugin) builds the same bytes as ``scenario=None`` —
    plugin hooks draw only from dedicated streams the base build never
    touches, so an identity plugin cannot perturb a single value.
    """

    def test_baseline_scenario_reproduces_the_golden(self):
        config, expected = GOLDEN_FINGERPRINTS["gtld_small"]
        assert world_fingerprint(build_world(
            replace(config, scenario="baseline"))) == expected


@pytest.fixture(scope="module")
def run_pair():
    first = run_pipeline(build_world(CONFIG))
    second = run_pipeline(build_world(CONFIG))
    return first, second


class TestDeterminism:
    def test_candidate_sets_identical(self, run_pair):
        first, second = run_pair
        assert set(first.candidates) == set(second.candidates)
        for domain in first.candidates:
            assert (first.candidates[domain].ct_seen_at
                    == second.candidates[domain].ct_seen_at)

    def test_rdap_outcomes_identical(self, run_pair):
        first, second = run_pair
        for domain in first.rdap:
            a, b = first.rdap[domain], second.rdap[domain]
            assert a.ok == b.ok and a.failure == b.failure

    def test_transient_sets_identical(self, run_pair):
        first, second = run_pair
        assert first.confirmed_transients == second.confirmed_transients
        assert first.rdap_failed_transients == second.rdap_failed_transients

    def test_monitor_reports_identical(self, run_pair):
        first, second = run_pair
        for domain in list(first.monitors)[:200]:
            a, b = first.monitors[domain], second.monitors[domain]
            assert a == b

    def test_stats_identical(self, run_pair):
        first, second = run_pair
        assert first.stats == second.stats

    def test_reports_identical(self, run_pair):
        first, second = run_pair
        world = build_world(CONFIG)
        # Rendering must be stable too (no dict-order leakage).
        text_a = "\n".join(r.render() for r in full_report(
            world, first, include_nod=False))
        text_b = "\n".join(r.render() for r in full_report(
            world, second, include_nod=False))
        assert text_a == text_b


class TestInstrumentedBuildMatchesGolden:
    """The observability acceptance gate: a build with the tracer *and*
    the sampling profiler running must reproduce the committed golden
    fingerprint bit-identically — telemetry draws no RNG and never
    perturbs a sampled value — and the tracer must hold one
    ``build.populate_shard`` span per ``(tld, month)`` shard.
    """

    @staticmethod
    def _pinned():
        import json
        from pathlib import Path
        path = (Path(__file__).resolve().parent.parent
                / "benchmarks" / "BENCH_worldgen.json")
        return json.loads(path.read_text())

    def test_profiled_build_hits_golden(self):
        from repro.obs.profiler import SamplingProfiler
        from repro.obs.spans import tracer

        pinned = self._pinned()
        config = ScenarioConfig(
            seed=pinned["seed"], scale=1.0 / pinned["inv_scale"],
            include_cctld=pinned["include_cctld"])
        trace = tracer()
        trace.reset()
        profiler = SamplingProfiler(interval=0.002).start()
        try:
            world = build_world(config)
        finally:
            profiler.stop()

        # Bit-identical to the committed golden, telemetry on.
        assert world_fingerprint(world) == pinned["fingerprint"]
        assert profiler.phase_samples().get("build.populate_shard", 0) > 0

        # One populate span per (tld, month) shard, three months per
        # TLD, each directly under the one build.world span.
        from repro.workload import calibration as cal

        totals = trace.phase_totals()
        populate = [s for s in trace.spans
                    if s.name == "build.populate_shard"]
        assert len(populate) == len(cal.MONTH_KEYS) * len(world.targets)
        assert totals["build.populate_shard"]["count"] == len(populate)
        assert ({(s.labels["tld"], s.labels["month"]) for s in populate}
                == {(tld, month) for tld in world.targets
                    for month in cal.MONTH_KEYS})
        (root,) = [s for s in trace.spans if s.name == "build.world"]
        assert all(s.parent_id == root.span_id for s in populate)
        assert all(s.depth == root.depth + 1 for s in populate)
        # Per-shard wall time is recorded (straggler evidence).
        assert all(s.wall_sec > 0 for s in populate)
