"""Pipeline step 3: reactive DNS monitoring of newly observed domains.

The paper probes each newly observed domain with A, AAAA and NS queries
every 10 minutes for its first 48 hours, from 16 workers behind caching
resolvers capped at 60 s, with NS liveness asked *directly* of the TLD
authority (§3 step 3).

:class:`AnalyticMonitor` is the pipeline's monitor.  It computes what
that probe loop *would have observed* by intersecting the authoritative
record timelines with the probe grid — O(timeline segments) per domain
instead of O(288 probes × 3 qtypes), which is what makes 100 k-domain
scenarios tractable.

The literal probe loop over real resolvers lives in
``tests/oracles/loop_monitor.py`` as the reference implementation:
property tests assert it and :class:`AnalyticMonitor` produce identical
:class:`~repro.core.records.MonitorReport` objects.  The bulk probe
engine (:class:`~repro.scan.engine.ScanEngine`, ``repro scan``) is
pinned to the same oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from repro.core.records import MonitorReport
from repro.registry.lifecycle import DomainLifecycle
from repro.registry.registry import RegistryGroup
from repro.simtime.clock import HOUR, MINUTE


@dataclass(frozen=True)
class MonitorConfig:
    """The paper's probing parameters."""

    probe_interval: int = 10 * MINUTE
    duration: int = 48 * HOUR
    workers: int = 16
    resolver_cache_ttl: int = 60


class AnalyticMonitor:
    """Timeline-sampling implementation (fast path)."""

    def __init__(self, registries: RegistryGroup,
                 config: MonitorConfig = MonitorConfig()) -> None:
        self.registries = registries
        self.config = config

    def observe(self, domain: str, start: int) -> MonitorReport:
        cfg = self.config
        end = start + cfg.duration
        probes = len(range(start, end, cfg.probe_interval)) * 3  # A/AAAA/NS
        lifecycle = self.registries.find_lifecycle(domain)
        if lifecycle is None:
            # Ghost candidate: every probe answers NXDOMAIN.
            return MonitorReport(
                domain=domain, monitor_start=start, monitor_end=end,
                probe_interval=cfg.probe_interval, probes=probes,
                ever_resolved=False, last_ns_ok=None, ns_sets=(),
                first_a=(), first_aaaa=(), ns_changed=False)
        return self._observe_lifecycle(lifecycle, start, end, probes)

    def _observe_lifecycle(self, lifecycle: DomainLifecycle, start: int,
                           end: int, probes: int) -> MonitorReport:
        cfg = self.config
        step = cfg.probe_interval

        def empty() -> MonitorReport:
            return MonitorReport(
                domain=lifecycle.domain, monitor_start=start, monitor_end=end,
                probe_interval=step, probes=probes, ever_resolved=False,
                last_ns_ok=None, ns_sets=(), first_a=(), first_aaaa=(),
                ns_changed=False)

        # Clip the probe window to the zone-presence interval: outside
        # it every probe sees NXDOMAIN, exactly like the probe loop.
        if lifecycle.zone_added_at is None:
            return empty()
        lo = max(start, lifecycle.zone_added_at)
        hi = end if lifecycle.zone_removed_at is None else min(
            end, lifecycle.zone_removed_at)
        if lo >= hi:
            return empty()
        first_k = -(-(lo - start) // step)   # ceil
        last_k = (hi - 1 - start) // step
        if last_k < first_k:
            return empty()  # delegation lived entirely between probes
        last_ns_ok = start + last_k * step

        def grid_hit(seg_start: int, seg_end: int) -> Optional[int]:
            """First grid instant inside [seg_start, seg_end), if any."""
            k = -(-(max(seg_start, lo) - start) // step)
            ts = start + k * step
            return ts if ts < min(seg_end, hi) else None

        ns_sets: List[FrozenSet[str]] = []
        for seg_start, seg_end, value in lifecycle.ns_timeline.segments(lo, hi):
            if value is None or grid_hit(seg_start, seg_end) is None:
                continue
            if not ns_sets or ns_sets[-1] != value:
                ns_sets.append(value)

        first_a: Tuple[str, ...] = ()
        first_aaaa: Tuple[str, ...] = ()
        if not lifecycle.lame:
            for seg_start, seg_end, value in lifecycle.a_timeline.segments(lo, hi):
                if value and grid_hit(seg_start, seg_end) is not None:
                    first_a = tuple(value)
                    break
            for seg_start, seg_end, value in lifecycle.aaaa_timeline.segments(lo, hi):
                if value and grid_hit(seg_start, seg_end) is not None:
                    first_aaaa = tuple(value)
                    break

        return MonitorReport(
            domain=lifecycle.domain, monitor_start=start, monitor_end=end,
            probe_interval=step, probes=probes,
            ever_resolved=True,
            last_ns_ok=last_ns_ok,
            ns_sets=tuple(ns_sets),
            first_a=first_a, first_aaaa=first_aaaa,
            ns_changed=len(ns_sets) > 1)
