"""Tests for name generation, calibration, campaigns, and scenarios."""

import pytest

from repro.dnscore import name as dnsname
from repro.errors import ConfigError
from repro.simtime.clock import DAY, HOUR, PAPER_WINDOW
from repro.simtime.rng import RngStream
from repro.workload import calibration as cal
from repro.workload.actors import (
    BENIGN_PROFILES,
    FAST_MALICIOUS_PROFILES,
    LEGIT,
    PHISHER,
    pick_profile,
)
from repro.workload.calibration import (
    CCTLDTargets,
    FILLER_TLDS,
    build_targets,
    month_window,
)
from repro.workload.campaign import Campaign, plan_campaign
from repro.workload.namegen import NameGenerator, subdomain_names
from repro.workload.scenario import ScenarioConfig, build_world, small_world
from repro import paperdata


class TestNameGenerator:
    def _gen(self, namespace=""):
        return NameGenerator(RngStream(3, "names"), namespace=namespace)

    def test_all_styles_valid_names(self):
        gen = self._gen()
        for style in ("dictionary", "startup", "dga", "typosquat",
                      "bulk", "parked"):
            name = gen.by_style(style, "com", campaign_tag="c1")
            assert dnsname.is_valid(name)
            assert name.endswith(".com")

    def test_uniqueness_at_volume(self):
        gen = self._gen()
        names = {gen.dictionary("com") for _ in range(5000)}
        assert len(names) == 5000

    def test_namespaces_disjoint(self):
        a = NameGenerator(RngStream(3, "n"), namespace="")
        b = NameGenerator(RngStream(3, "n"), namespace="x-")
        names_a = {a.dictionary("com") for _ in range(500)}
        names_b = {b.dictionary("com") for _ in range(500)}
        assert not names_a & names_b

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            self._gen().by_style("sonnet", "com")

    def test_typosquat_contains_brandish_token(self):
        gen = self._gen()
        name = gen.typosquat("com")
        assert any(tok in name for tok in ("login", "secure", "verify",
                                           "account", "support", "update",
                                           "billing", "signin", "auth",
                                           "wallet"))

    def test_subdomain_names(self):
        subs = subdomain_names(RngStream(1, "s"), "example.com", 3)
        assert len(subs) == 3
        assert all(s.endswith(".example.com") for s in subs)


class TestCalibration:
    def test_full_scale_totals_match_paper(self):
        targets = build_targets(1.0)
        total_nrd = sum(t.total_nrd for t in targets.values())
        assert abs(total_nrd - paperdata.TABLE1_TOTAL.zone_nrd) < 0.01 * \
            paperdata.TABLE1_TOTAL.zone_nrd
        total_transient = sum(t.total_transient_observed
                              for t in targets.values())
        assert abs(total_transient - paperdata.TABLE2_TOTAL.total) < 0.02 * \
            paperdata.TABLE2_TOTAL.total

    def test_com_dominates(self):
        targets = build_targets(1 / 100)
        assert targets["com"].total_nrd > targets["xyz"].total_nrd * 5

    def test_coverage_from_table1(self):
        targets = build_targets(1 / 100)
        assert targets["bond"].ct_coverage == pytest.approx(0.827)
        assert targets["site"].ct_coverage == pytest.approx(0.344)

    def test_fillers_present(self):
        targets = build_targets(1 / 100)
        for tld in FILLER_TLDS:
            assert tld in targets

    def test_scale_bounds(self):
        with pytest.raises(ConfigError):
            build_targets(0)
        with pytest.raises(ConfigError):
            build_targets(1.5)

    def test_stochastic_rounding_unbiased(self):
        """Summed small-scale expectations stay close to scaled totals."""
        targets = build_targets(1 / 1000)
        fast_total = sum(t.fast_takedown_count(m)
                         for t in targets.values()
                         for m, _ in cal.MONTHS)
        expected = (paperdata.TABLE2_TOTAL.total / 1000
                    / (1 + cal.GHOST_RATIO + cal.HELD_RATIO)
                    / (cal.TRANSIENT_CERT_COVERAGE
                       * cal.NEVER_SNAPSHOT_GIVEN_FAST
                       * cal.CERT_IN_TIME_GIVEN_PLAN))
        assert abs(fast_total - expected) / expected < 0.25

    def test_month_window(self):
        window = month_window("2023-12")
        assert window.duration == 31 * DAY

    def test_cctld_scaling(self):
        cc = CCTLDTargets().scaled(0.5)
        assert cc.deleted_under_24h == round(paperdata.CCTLD_DELETED_UNDER_24H * 0.5)

    def test_early_cert_prob_capped(self):
        targets = build_targets(1.0)
        for t in targets.values():
            assert t.early_cert_prob() <= 0.97


class TestActors:
    def test_malicious_flags(self):
        assert PHISHER.is_malicious
        assert not LEGIT.is_malicious

    def test_pick_profile_weighted(self):
        rng = RngStream(1, "p")
        picks = [pick_profile(rng, FAST_MALICIOUS_PROFILES).name
                 for _ in range(2000)]
        assert picks.count("phisher") > picks.count("malware_op")

    def test_cert_delay_positive(self):
        rng = RngStream(1, "d")
        for profile, _ in BENIGN_PROFILES + FAST_MALICIOUS_PROFILES:
            for _ in range(50):
                assert profile.cert.sample_delay(rng) >= 30


class TestCampaign:
    def test_plan_campaign_shares_infrastructure(self):
        rng = RngStream(1, "c")
        campaign = Campaign("c1", PHISHER, "com", start_at=1000, size=10)
        gen = NameGenerator(RngStream(1, "cn"))
        plans = plan_campaign(campaign, gen, rng)
        assert len(plans) == 10
        assert len({p.registrar.name for p in plans}) == 1
        assert len({p.dns_provider.name for p in plans}) == 1
        assert len({p.domain for p in plans}) == 10

    def test_arrival_times_ordered(self):
        rng = RngStream(1, "c2")
        campaign = Campaign("c1", PHISHER, "com", start_at=1000, size=20)
        times = campaign.arrival_times(rng)
        assert times == sorted(times)
        assert times[0] == 1000


class TestScenario:
    def test_small_world_builds(self, tiny_world):
        assert tiny_world.registries.total_registrations() > 100
        assert tiny_world.certstream.event_count() > 10
        assert tiny_world.stats["registrations"] > 0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scale=0)
        with pytest.raises(ConfigError):
            ScenarioConfig(campaign_fraction=2.0)

    def test_unknown_tld_rejected(self):
        with pytest.raises(ConfigError):
            build_world(ScenarioConfig(tlds=["com", "nosuchtld"],
                                       scale=1 / 5000))

    def test_determinism(self):
        config = ScenarioConfig(seed=99, scale=1 / 5000, tlds=["com"],
                                include_cctld=False)
        w1 = build_world(config)
        w2 = build_world(config)
        assert w1.stats == w2.stats
        d1 = sorted(lc.domain for lc in w1.registries.get("com").lifecycles())
        d2 = sorted(lc.domain for lc in w2.registries.get("com").lifecycles())
        assert d1 == d2

    def test_seed_changes_world(self):
        w1 = build_world(ScenarioConfig(seed=1, scale=1 / 5000, tlds=["com"],
                                        include_cctld=False))
        w2 = build_world(ScenarioConfig(seed=2, scale=1 / 5000, tlds=["com"],
                                        include_cctld=False))
        d1 = {lc.domain for lc in w1.registries.get("com").lifecycles()}
        d2 = {lc.domain for lc in w2.registries.get("com").lifecycles()}
        assert d1 != d2

    def test_ghost_certs_toggle(self):
        on = build_world(ScenarioConfig(seed=4, scale=1 / 500, tlds=["com"],
                                        include_cctld=False))
        off = build_world(ScenarioConfig(seed=4, scale=1 / 500, tlds=["com"],
                                         include_cctld=False,
                                         ghost_certs=False))
        assert on.stats["ghost_certs"] > 0
        assert off.stats["ghost_certs"] == 0

    def test_zone_nrd_counts_close_to_targets(self, tiny_world):
        truth = tiny_world.ground_truth
        counts = truth.zone_nrd_counts_by_tld()
        for tld, targets in tiny_world.targets.items():
            expected = targets.total_nrd
            if expected > 100:
                assert abs(counts.get(tld, 0) - expected) / expected < 0.15

    def test_certs_only_for_existing_or_token(self, tiny_world):
        """Every issued certificate either validated freshly (domain in
        zone) or reused a token (ghost/held)."""
        for ca in tiny_world.cas:
            for record in ca.issued:
                domain = record.certificate.common_name
                lifecycle = tiny_world.registries.find_lifecycle(domain)
                if record.fresh_validation:
                    assert lifecycle is not None
                    assert lifecycle.in_zone_at(record.issued_at
                                                - ca.validation_delay)
                else:
                    assert record.certificate.reused_validation

    def test_small_world_helper(self):
        world = small_world(seed=2, tlds=("com",), scale=1 / 5000)
        assert world.cctld_tld is None
        assert set(world.targets) == {"com"}
