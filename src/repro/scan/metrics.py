"""Scan-side observability: what a bulk measurement operator watches.

ZDNS-style engines live or die by their counters — probes sent versus
scheduled, retry pressure, rate-limit stalls, and how far behind the
nominal probe grid execution is running.  :class:`ScanMetrics` uses the
shared :class:`~repro.obs.metrics.Counter` and
:class:`~repro.obs.metrics.Histogram` primitives and is a registry
provider: the
:class:`~repro.scan.engine.ScanEngine` registers its instance as the
``"scan"`` group, so ``repro metrics`` and ``--metrics-out`` carry the
scan counters alongside every other subsystem.
"""

from __future__ import annotations

from typing import Dict

from repro.obs.metrics import Counter, Histogram

__all__ = ["ScanMetrics", "LAG_BOUNDS"]

#: Lag buckets tuned for grid slippage: sub-second through hours.
LAG_BOUNDS = (0, 1, 5, 15, 60, 300, 900, 3600, 6 * 3600)


class ScanMetrics:
    """The scan engine's metric group (a registry provider)."""

    def __init__(self) -> None:
        self.probes_sent = Counter("probes_sent")
        self.probes_suppressed = Counter("probes_suppressed")
        self.retries = Counter("retries")
        self.rate_limit_stalls = Counter("rate_limit_stalls")
        self.negcache_hits = Counter("negcache_hits")
        self.domains_scheduled = Counter("domains_scheduled")
        self.domains_completed = Counter("domains_completed")
        self.terminated_early = Counter("terminated_early")
        #: Execution time minus nominal grid instant, in sim seconds.
        self.probe_lag = Histogram("probe_lag_seconds", bounds=LAG_BOUNDS)
        self.queue_depth = Histogram(
            "queue_depth", bounds=(1, 16, 128, 1024, 8192, 65536))

    @staticmethod
    def _hist(hist: Histogram) -> Dict[str, float]:
        return {
            "count": hist.count,
            "mean": round(hist.mean, 3),
            "p50": hist.quantile(0.50),
            "p99": hist.quantile(0.99),
            "max": hist.max,
        }

    def metrics(self):
        """The primitives, for registry exposition."""
        return (self.probes_sent, self.probes_suppressed, self.retries,
                self.rate_limit_stalls, self.negcache_hits,
                self.domains_scheduled, self.domains_completed,
                self.terminated_early, self.probe_lag, self.queue_depth)

    def snapshot(self) -> Dict[str, object]:
        """A JSON-ready view of every metric."""
        return {
            "probes_sent": self.probes_sent.value,
            "probes_suppressed": self.probes_suppressed.value,
            "retries": self.retries.value,
            "rate_limit_stalls": self.rate_limit_stalls.value,
            "negcache_hits": self.negcache_hits.value,
            "domains_scheduled": self.domains_scheduled.value,
            "domains_completed": self.domains_completed.value,
            "terminated_early": self.terminated_early.value,
            "probe_lag": self._hist(self.probe_lag),
            "queue_depth": self._hist(self.queue_depth),
        }
