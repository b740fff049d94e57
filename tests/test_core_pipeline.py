"""Tests for the pipeline steps and the end-to-end run."""

import pytest

from repro.core.ctdetect import CTDetector
from repro.core.feed import FeedRecord, PublicFeed
from repro.core.pipeline import DarkDNSPipeline
from repro.core.rdap_collect import RDAPCollector, RDAPCollectorConfig
from repro.core.records import Candidate
from repro.core.transient import TransientClassifier
from repro.core.validate import Validator, ValidatorConfig
from repro.dnscore.psl import BuggyPublicSuffixList
from repro.registry.rdap import RDAPFailure, RDAPResult
from repro.simtime.clock import DAY


def make_candidate(domain="x.com", seen=10_000):
    return Candidate(domain=domain, tld=domain.rsplit(".", 1)[1],
                     ct_seen_at=seen, cert_serial=1, issuer="CA",
                     log_id="log", reused_validation=False)


class TestCTDetector:
    def test_filters_domains_in_published_snapshot(self, tiny_world):
        detector = CTDetector(tiny_world.archive,
                              tiny_world.registries.tlds())
        candidates = detector.run(tiny_world.certstream,
                                  tiny_world.window.start,
                                  tiny_world.window.end)
        assert detector.stats.filtered_in_zone > 0
        assert len(candidates) == detector.stats.candidates
        # No candidate may be present in the latest published snapshot
        # at its observation time.
        for domain, candidate in list(candidates.items())[:100]:
            assert not tiny_world.archive.in_latest_published(
                domain, candidate.ct_seen_at)

    def test_deduplicates_by_domain(self, tiny_world):
        detector = CTDetector(tiny_world.archive, tiny_world.registries.tlds())
        window = tiny_world.window
        first = detector.run(tiny_world.certstream, window.start, window.end)
        before = detector.stats.duplicates
        second = detector.run(tiny_world.certstream, window.start, window.end)
        assert first
        assert second == {}
        assert detector.stats.candidates == len(first)
        assert detector.stats.duplicates - before >= len(first)

    def test_unknown_tld_skipped(self, tiny_world):
        detector = CTDetector(tiny_world.archive, known_tlds=["net"])
        detector.run(tiny_world.certstream, tiny_world.window.start,
                     tiny_world.window.end)
        assert detector.stats.candidates == 0
        assert detector.stats.unknown_tld > 0

    def test_buggy_psl_misextracts(self, tiny_world):
        good = CTDetector(tiny_world.archive, tiny_world.registries.tlds())
        buggy = CTDetector(tiny_world.archive, tiny_world.registries.tlds(),
                           psl=BuggyPublicSuffixList())
        good_set = set(good.run(tiny_world.certstream))
        buggy_set = set(buggy.run(tiny_world.certstream))
        # Single-label gTLDs only in the tiny world: results identical,
        # proving misextraction needs multi-label suffixes.
        assert good_set == buggy_set


class TestRDAPCollector:
    def test_query_time_within_bounds(self, tiny_world):
        collector = RDAPCollector(tiny_world.registries,
                                  RDAPCollectorConfig(60, 600))
        candidate = make_candidate(seen=50_000)
        ts = collector.query_time(candidate)
        assert 50_060 <= ts <= 50_600

    def test_collect_orders_by_detection(self, tiny_world, tiny_result):
        assert set(tiny_result.rdap) == set(tiny_result.candidates)

    def test_rdap_fires_after_detection(self, tiny_result):
        for domain, result in tiny_result.rdap.items():
            candidate = tiny_result.candidates[domain]
            assert result.queried_at >= candidate.ct_seen_at


class TestValidator:
    def test_ok_new_domain(self):
        validator = Validator()
        candidate = make_candidate(seen=10_000)
        record_result = RDAPResult(
            "x.com", 10_100,
            record=__import__("repro.registry.rdap", fromlist=["RDAPRecord"])
            .RDAPRecord("x.com", "H", 9_000, "GoDaddy", 146, ("active",),
                        10_100))
        verdict = validator.verdict(candidate, record_result)
        assert verdict.rdap_ok
        assert verdict.detection_delay == 1_000
        assert not verdict.misclassified
        assert verdict.consistent_24h

    def test_old_domain_misclassified(self):
        from repro.registry.rdap import RDAPRecord
        validator = Validator(ValidatorConfig(newness_threshold=4 * DAY))
        candidate = make_candidate(seen=10 * DAY)
        result = RDAPResult("x.com", 10 * DAY, record=RDAPRecord(
            "x.com", "H", 1 * DAY, "GoDaddy", 146, ("active",), 10 * DAY))
        verdict = validator.verdict(candidate, result)
        assert verdict.misclassified
        assert not verdict.consistent_24h

    def test_failed_rdap(self):
        validator = Validator()
        verdict = validator.verdict(make_candidate(),
                                    RDAPResult("x.com", 1,
                                               failure=RDAPFailure.NOT_FOUND))
        assert not verdict.rdap_ok
        assert verdict.detection_delay is None

    def test_missing_rdap(self):
        verdict = Validator().verdict(make_candidate(), None)
        assert not verdict.rdap_ok


class TestTransientClassifier:
    def test_ghost_is_transient(self, tiny_world):
        classifier = TransientClassifier(tiny_world.registries,
                                         tiny_world.archive)
        assert classifier.is_transient_candidate("never-registered.com")

    def test_longlived_not_transient(self, tiny_world, tiny_result):
        classifier = TransientClassifier(tiny_world.registries,
                                         tiny_world.archive)
        long_lived = next(
            d for d in tiny_result.candidates
            if (lc := tiny_world.registries.find_lifecycle(d)) is not None
            and lc.removed_at is None)
        assert not classifier.is_transient_candidate(long_lived)


class TestPublicFeed:
    def test_publish_and_order(self):
        feed = PublicFeed()
        feed.publish(make_candidate("b.com", seen=200))
        feed.publish(make_candidate("a.com", seen=100))
        feed.finalize()
        assert [r.domain for r in feed] == ["a.com", "b.com"]

    def test_jsonl_roundtrip(self, tmp_path):
        feed = PublicFeed()
        feed.publish(make_candidate("a.com", seen=100))
        feed.publish(make_candidate("b.xyz", seen=200))
        path = tmp_path / "feed.jsonl"
        assert feed.to_jsonl(path) == 2
        loaded = PublicFeed.from_jsonl(path)
        assert loaded.domains == {"a.com", "b.xyz"}

    def test_records_on_day(self):
        feed = PublicFeed()
        feed.publish(make_candidate("a.com", seen=100))
        feed.publish(make_candidate("b.com", seen=2 * DAY + 5))
        assert {r.domain for r in feed.records_on_day(0)} == {"a.com"}
        assert feed.domains_on_day(2 * DAY) == {"b.com"}

    def test_record_json_fields(self):
        record = FeedRecord("a.com", "com", 100)
        parsed = FeedRecord.from_json(record.to_json())
        assert parsed == record


class TestEndToEnd:
    def test_pipeline_invariants(self, small_world, small_result):
        result = small_result
        # Every candidate got an RDAP attempt and a verdict.
        assert set(result.rdap) == set(result.candidates)
        assert set(result.verdicts) == set(result.candidates)
        # Transient partitions are disjoint and cover the candidates.
        parts = (result.confirmed_transients, result.rdap_failed_transients,
                 result.misclassified_transients)
        for i, a in enumerate(parts):
            for b in parts[i + 1:]:
                assert not a & b
        assert (result.confirmed_transients | result.rdap_failed_transients
                | result.misclassified_transients) == result.transient_candidates
        assert result.transient_candidates <= set(result.candidates)

    def test_confirmed_transients_truly_absent_from_snapshots(
            self, small_world, small_result):
        for domain in list(small_result.confirmed_transients)[:100]:
            lifecycle = small_world.registries.find_lifecycle(domain)
            assert lifecycle is not None
            assert not small_world.archive.appears_ever(lifecycle)

    def test_ghosts_fail_rdap(self, small_world, small_result):
        ghosts = [d for d in small_result.transient_candidates
                  if small_world.registries.find_lifecycle(d) is None]
        assert ghosts, "scenario must produce ghost candidates"
        for domain in ghosts:
            assert domain in small_result.rdap_failed_transients

    def test_feed_covers_candidates(self, small_world):
        pipeline = DarkDNSPipeline(small_world)
        result = pipeline.run()
        assert pipeline.feed.domains == set(result.candidates)

    def test_broker_topics_populated(self, small_world, small_result):
        from repro.bus.broker import (TOPIC_CANDIDATES, TOPIC_FEED,
                                      TOPIC_OBSERVATIONS, TOPIC_RDAP)
        broker = small_world.broker
        for topic in (TOPIC_CANDIDATES, TOPIC_RDAP, TOPIC_OBSERVATIONS,
                      TOPIC_FEED):
            assert broker.topic(topic).total_messages() > 0

    def test_stats_consistent(self, small_result):
        stats = small_result.stats
        assert stats["candidates"] == len(small_result.candidates)
        assert stats["transient_candidates"] == len(
            small_result.transient_candidates)
        assert stats["rdap_failures"] <= stats["rdap_queries"]

    def test_detection_delays_mostly_positive(self, small_result):
        delays = list(small_result.detection_delays().values())
        positive = sum(1 for d in delays if d > 0)
        assert positive / len(delays) > 0.95
