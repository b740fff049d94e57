"""The DarkDNS pipeline: all five steps, wired through the broker.

``DarkDNSPipeline(world).run()`` is the one way to run the paper's §3
methodology end to end against a scenario world, with the paper's
parameters:

1. CT detection (Certstream → candidates, PSL + snapshot filter);
2. RDAP collection (IP-cycling client, no retries);
3. reactive DNS monitoring (A/AAAA/NS every 10 min for 48 h);
4. RDAP/CT cross-validation;
5. transient identification (±3-day snapshot slack).

Each stage also publishes to its broker topic; the public feed lands on
``nrd.public-feed``, which a :class:`repro.serve.FeedServer` on
``world.broker`` serves after ``run()`` via ``server.pump()``.  The
returned :class:`~repro.core.records.PipelineResult` is what the
analyses, the standing observers
(:func:`repro.obs.observers.observe_pipeline_result`) and the benchmark
harnesses consume.
"""

from __future__ import annotations

from repro.bus.broker import TOPIC_FEED, TOPIC_OBSERVATIONS
from repro.core.ctdetect import CTDetector
from repro.core.feed import PublicFeed
from repro.core.monitor import AnalyticMonitor
from repro.core.rdap_collect import RDAPCollector
from repro.core.records import PipelineResult
from repro.core.transient import TransientClassifier
from repro.core.validate import Validator
from repro.obs.spans import span
from repro.workload.scenario import World


class DarkDNSPipeline:
    """The five-step pipeline bound to a world."""

    def __init__(self, world: World) -> None:
        self.world = world
        self.feed = PublicFeed()

    def run(self) -> PipelineResult:
        """Execute all five steps against the bound world.

        Returns:
            The :class:`~repro.core.records.PipelineResult` holding
            candidates, RDAP outcomes, monitor reports, validations,
            and the confirmed/RDAP-failed transient sets — everything
            the §4 analyses consume.
        """
        world = self.world
        window = world.window

        # Step 1 — CT detection.
        with span("pipeline.ct_detect") as sp:
            detector = CTDetector(
                archive=world.archive,
                known_tlds=world.registries.tlds(),
                broker=world.broker)
            candidates = detector.run(world.certstream,
                                      window.start, window.end)
            sp.annotate(sim_sec=window.end - window.start,
                        candidates=len(candidates))

        # Public feed (contribution 2).
        records = [self.feed.publish(c) for c in candidates.values()]
        world.broker.produce_many(
            TOPIC_FEED, ((r.domain, r, r.seen_at) for r in records))
        self.feed.finalize()

        # Step 2 — RDAP collection.
        with span("pipeline.rdap_collect") as sp:
            collector = RDAPCollector(world.registries, broker=world.broker)
            rdap_results = collector.collect(candidates.values())
            sp.annotate(queries=len(rdap_results))

        # Step 3 — reactive monitoring.
        with span("pipeline.monitor") as sp:
            monitor = AnalyticMonitor(world.registries)
            monitors = {domain: monitor.observe(domain, c.ct_seen_at)
                        for domain, c in candidates.items()}
            world.broker.produce_many(
                TOPIC_OBSERVATIONS,
                ((domain, report, candidates[domain].ct_seen_at)
                 for domain, report in monitors.items()))
            sp.annotate(monitored=len(monitors))

        # Step 4 — validation.
        with span("pipeline.validate"):
            verdicts = Validator().validate_all(candidates, rdap_results)

        # Step 5 — transient identification.
        with span("pipeline.transient_classify"):
            classifier = TransientClassifier(world.registries, world.archive)
            breakdown = classifier.classify(candidates, verdicts)

        result = PipelineResult(
            window_start=window.start, window_end=window.end,
            candidates=candidates, rdap=rdap_results, monitors=monitors,
            verdicts=verdicts,
            transient_candidates=breakdown.candidates,
            confirmed_transients=breakdown.confirmed,
            rdap_failed_transients=breakdown.rdap_failed,
            misclassified_transients=breakdown.misclassified)
        result.stats = {
            "certstream_events": detector.stats.events,
            "names_seen": detector.stats.names_seen,
            "psl_failures": detector.stats.psl_failures,
            "filtered_in_zone": detector.stats.filtered_in_zone,
            "duplicates": detector.stats.duplicates,
            "candidates": detector.stats.candidates,
            "rdap_queries": len(rdap_results),
            "rdap_failures": sum(1 for r in rdap_results.values() if not r.ok),
            "monitored": len(monitors),
            "transient_candidates": len(breakdown.candidates),
            "confirmed_transients": len(breakdown.confirmed),
            "rdap_failed_transients": len(breakdown.rdap_failed),
            "misclassified_transients": len(breakdown.misclassified),
        }
        return result


def run_pipeline(world: World) -> PipelineResult:
    """Convenience: build, run, and return the result."""
    return DarkDNSPipeline(world).run()
