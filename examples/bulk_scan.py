#!/usr/bin/env python3
"""Bulk-measure CT-detected candidates with the scan engine.

The paper's step 3 owes every newly observed domain a 10-minute ×
48-hour probe grid — at feed scale, millions of probes.  This example
runs that step with real probes through the scan engine behind
``repro scan`` (the pipeline itself computes the same reports
analytically): CT candidates go into one shared probe queue, a
16-worker fleet drains it under a per-authority QPS cap, and every
probe outcome lands in a columnar store that answers the two questions
longitudinal analysis asks (one domain's history; one time slice).

Run:  python examples/bulk_scan.py
"""

from repro import ScenarioConfig, build_world
from repro.core.ctdetect import CTDetector
from repro.scan import ProbeResultStore, ScanConfig, ScanEngine
from repro.simtime.clock import HOUR, MINUTE


def main() -> None:
    world = build_world(ScenarioConfig(seed=8, scale=1 / 2000))
    detector = CTDetector(archive=world.archive,
                          known_tlds=world.registries.tlds(),
                          broker=world.broker)
    candidates = detector.run(world.certstream,
                              world.window.start, world.window.end)
    print(f"CT surfaced {len(candidates):,} candidate domains")

    store = ProbeResultStore()
    engine = ScanEngine(
        world.registries,
        ScanConfig(probe_interval=10 * MINUTE, duration=12 * HOUR,
                   qps_per_authority=5.0),
        store=store)
    reports = engine.observe_all(
        {d: c.ct_seen_at for d, c in candidates.items()})

    resolved = [r for r in reports.values() if r.ever_resolved]
    removed = [r for r in resolved if r.observed_removal()]
    print(f"scanned {len(reports):,} domains: {len(resolved):,} ever "
          f"resolved, {len(removed):,} observed leaving the zone")

    snap = engine.snapshot()
    print(f"\nengine: {snap['probes_sent']:,} probes sent, "
          f"{snap['probes_suppressed']:,} suppressed, "
          f"{snap['negcache_hits']:,} negative-cache hits, "
          f"{snap['terminated_early']:,} grids terminated early")
    print(f"rate control: {snap['rate_limit_stalls']:,} stalls, "
          f"probe lag p99 {snap['probe_lag']['p99']}s, "
          f"busiest authority at "
          f"{max(snap['authority_peak_qps'].values())} probes/s "
          f"(cap {snap['qps_limit']})")

    # The columnar store answers per-domain and per-window questions.
    if removed:
        domain = min(removed, key=lambda r: r.monitor_start).domain
        rows = store.for_domain(domain)
        rcodes = [row["rcode"] for row in rows]
        print(f"\n{domain}: {len(rows)} probe outcomes, "
              f"first {rcodes[0]}, last {rcodes[-1]}")
        first_hour = store.time_range(world.window.start,
                                      world.window.start + HOUR)
        print(f"first simulated hour: {len(first_hour):,} probes "
              f"across the whole fleet")


if __name__ == "__main__":
    main()
