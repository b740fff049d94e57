"""Ablation C — monitor execution strategies (DESIGN §5.3).

The analytic (timeline-sampling) monitor must produce identical
observations to the literal 10-minute probe loop (the test oracle in
``tests/oracles/loop_monitor.py``) while being orders of magnitude
cheaper — that equivalence is property-tested in the unit suite; here
we measure the speedup on real scenario candidates.
"""

import pytest

from oracles.loop_monitor import LoopMonitor
from repro.core.monitor import AnalyticMonitor, MonitorConfig

#: Full paper parameters: 48 h of 10-minute A/AAAA/NS probes.
CONFIG = MonitorConfig()
SAMPLE = 150


@pytest.fixture(scope="module")
def sample_domains(world, result):
    ordered = sorted(result.candidates)[:SAMPLE]
    return [(d, result.candidates[d].ct_seen_at) for d in ordered]


def _run_all(monitor, domains):
    return [monitor.observe(domain, start) for domain, start in domains]


def test_monitor_analytic(benchmark, world, sample_domains):
    monitor = AnalyticMonitor(world.registries, CONFIG)
    reports = benchmark(_run_all, monitor, sample_domains)
    assert len(reports) == SAMPLE


def test_monitor_probe_loop(benchmark, world, sample_domains):
    monitor = LoopMonitor(world.registries, CONFIG)
    reports = benchmark.pedantic(_run_all, args=(monitor, sample_domains),
                                 rounds=1, iterations=1)
    assert len(reports) == SAMPLE
    # Cross-check a slice against the analytic monitor.
    analytic = AnalyticMonitor(world.registries, CONFIG)
    for (domain, start), loop_report in list(zip(sample_domains, reports))[:25]:
        fast = analytic.observe(domain, start)
        assert fast.last_ns_ok == loop_report.last_ns_ok
        assert fast.ns_sets == loop_report.ns_sets
