"""Tests for the reactive monitor — including the property that the
analytic (timeline-sampling) monitor and the literal probe-loop oracle
observe identical reports, which is the load-bearing equivalence of the
whole reproduction's performance story."""

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.loop_monitor import LoopMonitor
from repro.core.monitor import AnalyticMonitor, MonitorConfig
from repro.registry.policy import gtld
from repro.registry.registry import Registry, RegistryGroup
from repro.simtime.clock import HOUR, MINUTE


def build_registry(interval=MINUTE):
    return Registry(gtld("com", interval, snapshot_offset=0))


def register(registry, domain, created, lifetime=None, lame=False,
             ns_change_at=None):
    lc = registry.register(domain, created, "GoDaddy",
                           ns_hosts=["ns1.h.net", "ns2.h.net"],
                           a_addrs=["192.0.2.1"],
                           aaaa_addrs=["2001:db8::1"], lame=lame)
    if lifetime is not None:
        registry.schedule_removal(domain, created + lifetime)
    # A removal inside the first provisioning interval un-publishes the
    # domain entirely; NS changes only make sense while delegated.
    if ns_change_at is not None and lc.zone_added_at is not None:
        registry.change_nameservers(domain, created + ns_change_at,
                                    ["ns9.other.net"])
    return lc


SHORT = MonitorConfig(probe_interval=10 * MINUTE, duration=6 * HOUR)


class TestAnalyticMonitor:
    def test_live_domain_observed_throughout(self):
        registry = build_registry()
        lc = register(registry, "live.com", 10_000)
        monitor = AnalyticMonitor(RegistryGroup([registry]), SHORT)
        report = monitor.observe("live.com", lc.zone_added_at)
        assert report.ever_resolved
        assert report.last_ns_ok == lc.zone_added_at + (
            (SHORT.duration - 1) // SHORT.probe_interval) * SHORT.probe_interval
        assert report.first_ns_set == frozenset({"ns1.h.net", "ns2.h.net"})
        assert report.first_a == ("192.0.2.1",)
        assert not report.ns_changed

    def test_ghost_domain_all_nxdomain(self):
        monitor = AnalyticMonitor(RegistryGroup([build_registry()]), SHORT)
        report = monitor.observe("ghost.com", 10_000)
        assert not report.ever_resolved
        assert report.last_ns_ok is None
        assert report.ns_sets == ()

    def test_removal_truncates_observation(self):
        registry = build_registry()
        lc = register(registry, "dying.com", 10_000, lifetime=2 * HOUR)
        monitor = AnalyticMonitor(RegistryGroup([registry]), SHORT)
        report = monitor.observe("dying.com", lc.zone_added_at)
        assert report.ever_resolved
        assert report.last_ns_ok < lc.zone_removed_at
        assert report.observed_removal()

    def test_lifetime_between_probes_invisible(self):
        """A delegation living less than one probe interval (offset to
        miss the grid) is never observed — the monitor's own blind spot."""
        registry = build_registry()
        lc = register(registry, "blink.com", 10_000, lifetime=3 * MINUTE)
        monitor = AnalyticMonitor(RegistryGroup([registry]), SHORT)
        # Start monitoring *before* the zone add so the grid misses it.
        report = monitor.observe("blink.com", lc.zone_added_at - 5 * MINUTE)
        assert not report.ever_resolved

    def test_ns_change_observed(self):
        registry = build_registry()
        lc = register(registry, "mover.com", 10_000, ns_change_at=2 * HOUR)
        monitor = AnalyticMonitor(RegistryGroup([registry]), SHORT)
        report = monitor.observe("mover.com", lc.zone_added_at)
        assert report.ns_changed
        assert len(report.ns_sets) == 2
        assert report.ns_sets[1] == frozenset({"ns9.other.net"})

    def test_lame_domain_has_ns_but_no_a(self):
        registry = build_registry()
        lc = register(registry, "lame.com", 10_000, lame=True)
        monitor = AnalyticMonitor(RegistryGroup([registry]), SHORT)
        report = monitor.observe("lame.com", lc.zone_added_at)
        assert report.ever_resolved          # NS-direct sees the delegation
        assert report.first_a == ()          # but the A path never answers

    def test_probe_budget(self):
        monitor = AnalyticMonitor(RegistryGroup([build_registry()]), SHORT)
        report = monitor.observe("ghost.com", 0)
        assert report.probes == (SHORT.duration // SHORT.probe_interval) * 3


class TestLoopMonitor:
    def test_matches_paper_parameters(self):
        config = MonitorConfig()
        assert config.probe_interval == 10 * MINUTE
        assert config.duration == 48 * HOUR
        assert config.workers == 16
        assert config.resolver_cache_ttl == 60


@st.composite
def domain_scenario(draw):
    created = 10_000 + draw(st.integers(0, 4 * HOUR))
    lifetime = draw(st.one_of(
        st.none(),
        st.integers(5 * MINUTE, 12 * HOUR)))
    lame = draw(st.booleans())
    ns_change_at = draw(st.one_of(st.none(), st.integers(MINUTE, 5 * HOUR)))
    interval = draw(st.sampled_from([MINUTE, 17 * MINUTE]))
    start_offset = draw(st.integers(-30 * MINUTE, 2 * HOUR))
    return created, lifetime, lame, ns_change_at, interval, start_offset


class TestStrategyEquivalence:
    """AnalyticMonitor must observe exactly what LoopMonitor observes."""

    @given(domain_scenario())
    @settings(max_examples=60, deadline=None)
    def test_reports_identical(self, scenario):
        created, lifetime, lame, ns_change_at, interval, start_offset = scenario
        registry = build_registry(interval)
        lc = register(registry, "probe.com", created, lifetime=lifetime,
                      lame=lame,
                      ns_change_at=(ns_change_at
                                    if lifetime is None
                                    or (ns_change_at or 0) < lifetime
                                    else None))
        group = RegistryGroup([registry])
        config = MonitorConfig(probe_interval=10 * MINUTE, duration=6 * HOUR)
        start = max(0, (lc.zone_added_at or created) + start_offset)
        analytic = AnalyticMonitor(group, config).observe("probe.com", start)
        loop = LoopMonitor(group, config).observe("probe.com", start)
        assert analytic.last_ns_ok == loop.last_ns_ok
        assert analytic.ever_resolved == loop.ever_resolved
        assert analytic.ns_sets == loop.ns_sets
        assert analytic.first_a == loop.first_a
        assert analytic.first_aaaa == loop.first_aaaa
        assert analytic.ns_changed == loop.ns_changed

    def test_equivalence_on_scenario_domains(self, tiny_world, tiny_result):
        """Spot-check equivalence on real scenario candidates."""
        config = MonitorConfig(probe_interval=10 * MINUTE, duration=12 * HOUR)
        analytic = AnalyticMonitor(tiny_world.registries, config)
        loop = LoopMonitor(tiny_world.registries, config)
        sample = sorted(tiny_result.candidates)[:40]
        for domain in sample:
            start = tiny_result.candidates[domain].ct_seen_at
            a = analytic.observe(domain, start)
            b = loop.observe(domain, start)
            assert (a.last_ns_ok, a.ns_sets, a.first_a, a.ns_changed) == \
                (b.last_ns_ok, b.ns_sets, b.first_a, b.ns_changed), domain
