"""Serving-side observability: counters and histograms.

The feed server publishes the numbers an operator of the paper's open
feed would watch: how many records were published, delivered, dropped
on full queues, or rejected by rate limits, and the distribution of
delivery lag (record observation time → delivery time).

:class:`ServeMetrics` builds on the shared :mod:`repro.obs.metrics`
primitives and is the serve group's registry provider (the
:class:`~repro.serve.server.FeedServer` registers its instance as the
``"serve"`` group; see ``docs/observability.md``).
"""

from __future__ import annotations

from typing import Dict

from repro.obs.metrics import Counter, Histogram

__all__ = ["ServeMetrics"]


class ServeMetrics:
    """The feed server's metric group (a registry provider)."""

    def __init__(self) -> None:
        self.published = Counter("published")
        self.delivered = Counter("delivered")
        self.dropped_queue_full = Counter("dropped_queue_full")
        self.dropped_rate_limited = Counter("dropped_rate_limited")
        self.evicted_clients = Counter("evicted_clients")
        self.shed_clients = Counter("shed_clients")
        self.filtered_out = Counter("filtered_out")
        self.delivery_lag = Histogram("delivery_lag_seconds")
        self.queue_depth = Histogram(
            "queue_depth", bounds=(1, 8, 32, 128, 512, 2048))

    def metrics(self):
        """The primitives, for registry exposition."""
        return (self.published, self.delivered, self.dropped_queue_full,
                self.dropped_rate_limited, self.evicted_clients,
                self.shed_clients, self.filtered_out, self.delivery_lag,
                self.queue_depth)

    def snapshot(self) -> Dict[str, object]:
        """A JSON-ready view of every metric."""
        return {
            "published": self.published.value,
            "delivered": self.delivered.value,
            "dropped_queue_full": self.dropped_queue_full.value,
            "dropped_rate_limited": self.dropped_rate_limited.value,
            "evicted_clients": self.evicted_clients.value,
            "shed_clients": self.shed_clients.value,
            "filtered_out": self.filtered_out.value,
            "delivery_lag": self.delivery_lag.snapshot(),
            "queue_depth": self.queue_depth.snapshot(),
        }
