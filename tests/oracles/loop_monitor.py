"""The literal step-3 probe loop: the reference for every monitor.

:class:`LoopMonitor` asks A, AAAA and NS of real resolvers at every
instant of the 10-minute × 48-hour grid, exactly as §3 step 3
describes.  :class:`repro.core.monitor.AnalyticMonitor` and
:class:`repro.scan.ScanEngine` must produce the same
:class:`~repro.core.records.MonitorReport` objects.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

from repro.core.monitor import MonitorConfig
from repro.core.records import MonitorReport
from repro.dnscore.message import Query, RCode
from repro.dnscore.records import RRType
from repro.registry.registry import RegistryGroup


class LoopMonitor:
    """Literal probe-loop implementation over real resolvers."""

    def __init__(self, registries: RegistryGroup,
                 config: MonitorConfig = MonitorConfig()) -> None:
        self.registries = registries
        self.config = config
        # The wiring (TLD authorities + hosting oracles) is shared with
        # the scan engine via RegistryGroup.resolver_pool.
        self.pool = registries.resolver_pool(
            size=config.workers, max_cache_ttl=config.resolver_cache_ttl)

    # -- the probe loop --------------------------------------------------------------

    def observe(self, domain: str, start: int) -> MonitorReport:
        cfg = self.config
        end = start + cfg.duration
        resolver = self.pool.resolver_for(domain)
        probes = 0
        last_ns_ok: Optional[int] = None
        ns_sets: List[FrozenSet[str]] = []
        first_a: Tuple[str, ...] = ()
        first_aaaa: Tuple[str, ...] = ()
        for ts in range(start, end, cfg.probe_interval):
            # NS liveness straight at the TLD authority (no cache, no
            # recursion): lame delegation must not look like deletion.
            ns_response = resolver.query_authority_direct(
                Query(domain, RRType.NS), ts)
            probes += 1
            if ns_response.rcode is RCode.NOERROR and ns_response.records:
                last_ns_ok = ts
                observed = frozenset(r.rdata for r in ns_response.records)
                if not ns_sets or ns_sets[-1] != observed:
                    ns_sets.append(observed)
            a_response = resolver.resolve_at(Query(domain, RRType.A), ts)
            probes += 1
            if not first_a and a_response.is_positive:
                first_a = tuple(sorted(a_response.rdatas()))
            aaaa_response = resolver.resolve_at(Query(domain, RRType.AAAA), ts)
            probes += 1
            if not first_aaaa and aaaa_response.is_positive:
                first_aaaa = tuple(sorted(aaaa_response.rdatas()))
        return MonitorReport(
            domain=domain, monitor_start=start, monitor_end=end,
            probe_interval=cfg.probe_interval, probes=probes,
            ever_resolved=last_ns_ok is not None,
            last_ns_ok=last_ns_ok, ns_sets=tuple(ns_sets),
            first_a=first_a, first_aaaa=first_aaaa,
            ns_changed=len(ns_sets) > 1)
