"""The process-wide ``resilience`` metric group.

Unlike ``serve``/``scan`` metrics — which belong to one server or
engine instance — resilience events are scattered across subsystems
(scan fault injection, segment salvage, feed-line quarantine,
stalled serve consumers), so this module keeps one process-wide
:class:`ResilienceMetrics` that every call site shares via
:func:`get_resilience_metrics`.  The instance self-registers under the
``resilience`` group of :func:`repro.obs.metrics.get_registry`, so it
shows up in ``repro metrics``, ``--metrics-out`` snapshots, and the
Prometheus exposition alongside every other subsystem.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.obs.metrics import Counter, get_registry

__all__ = ["ResilienceMetrics", "get_resilience_metrics"]


class ResilienceMetrics:
    """Counters for every fault injected and every recovery performed."""

    def __init__(self) -> None:
        #: Injected faults, by kind (scan.servfail, serve.stall, ...).
        self.faults_injected = Counter(
            "resilience_faults_injected_total",
            "Faults fired by the active fault plan", labelnames=("kind",))
        #: Segmented-log salvage results.
        self.torn_lines = Counter(
            "resilience_torn_lines_total",
            "Segment lines dropped by CRC/parse during salvage")
        self.records_salvaged = Counter(
            "resilience_records_salvaged_total",
            "Complete records recovered from damaged segments")
        self.segments_quarantined = Counter(
            "resilience_segments_quarantined_total",
            "Segment files moved aside as unrecoverable or orphaned")
        #: Feed-ingest hygiene.
        self.rejected_lines = Counter(
            "resilience_rejected_lines_total",
            "Malformed feed lines quarantined to a .rejects sidecar")

    def metrics(self) -> Iterable:
        return [
            self.faults_injected, self.torn_lines, self.records_salvaged,
            self.segments_quarantined, self.rejected_lines,
        ]

    def snapshot(self) -> Dict[str, object]:
        snap: Dict[str, object] = {}
        for metric in self.metrics():
            if metric.labelnames:
                snap[metric.name] = {
                    ",".join(child._labelvalues): child.value
                    for child in metric.children()}
            else:
                snap[metric.name] = metric.value
        return snap


_METRICS: ResilienceMetrics = ResilienceMetrics()
get_registry().register("resilience", _METRICS)


def get_resilience_metrics() -> ResilienceMetrics:
    """The process-wide resilience counters (shared by all subsystems)."""
    return _METRICS


def reset_resilience_metrics() -> ResilienceMetrics:
    """Swap in a fresh instance (test isolation helper)."""
    global _METRICS
    _METRICS = ResilienceMetrics()
    get_registry().register("resilience", _METRICS)
    return _METRICS
