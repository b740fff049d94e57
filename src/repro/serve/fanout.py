"""Sharded fan-out: bounded per-client queues with backpressure.

Delivery to a large subscriber population is sharded the same way the
broker shards topics: ``stable_bucket(client_id)`` assigns each client
to one of N delivery shards, so shard membership is deterministic,
uniform, and independent of registration order.  Each client owns a
**bounded** FIFO queue; a full queue drops the oldest pending record
(the consumer is behind — fresher data is worth more on an NRD feed)
and counts the drop.  Clients that keep overflowing get **evicted**:
after ``evict_after_drops`` consecutive dropped deliveries the shard
removes the client, which is how real feed infrastructure protects
itself from dead consumers that never poll.

The shards here are cooperative (no threads): ``dispatch()`` routes one
published record to every matching subscription's queue, and clients
drain with ``poll()``.  What matters for the reproduction is the
*accounting* — queue bounds, drop/eviction semantics, per-shard load —
which is exactly what the benchmark measures.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.core.feed import FeedRecord
from repro.errors import EvictedClientError, ServeError, UnknownClientError
from repro.serve.metrics import ServeMetrics
from repro.simtime.rng import stable_bucket

#: Salt for shard assignment (keeps it independent of broker routing).
SHARD_SALT = "serve.fanout"


@dataclass
class ClientQueue:
    """One subscriber's pending deliveries and the shard it belongs to."""

    shard: "FanoutShard"
    queue: Deque[FeedRecord] = field(default_factory=deque)
    #: Consecutive enqueue-side drops since the last successful poll.
    consecutive_drops: int = 0
    delivered: int = 0


class FanoutShard:
    """One delivery worker: the queues of its assigned clients."""

    def __init__(self, index: int) -> None:
        self.index = index
        self._queues: Dict[str, ClientQueue] = {}
        self.routed = 0

    def __len__(self) -> int:
        return len(self._queues)

    def pending(self) -> int:
        return sum(len(q.queue) for q in self._queues.values())


class FanoutDispatcher:
    """Routes matched records to client queues across shards.

    A client's shard is hashed once, when it is added; from then on
    every delivery and poll finds its queue through one dict lookup.
    """

    def __init__(self, shards: int = 4, max_queue_depth: int = 1024,
                 evict_after_drops: int = 64,
                 metrics: Optional[ServeMetrics] = None) -> None:
        if shards <= 0:
            raise ServeError("need at least one shard")
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.max_queue_depth = max_queue_depth
        self.evict_after_drops = evict_after_drops
        self.shards = [FanoutShard(i) for i in range(shards)]
        #: client id -> queue, for every active client of every shard.
        self._queues: Dict[str, ClientQueue] = {}
        self._evicted: set = set()

    # -- membership -----------------------------------------------------------

    def add_client(self, client_id: str) -> None:
        self._evicted.discard(client_id)
        shard = self.shards[stable_bucket(client_id, len(self.shards),
                                          SHARD_SALT)]
        queue = ClientQueue(shard)
        shard._queues[client_id] = queue
        self._queues[client_id] = queue

    def remove_client(self, client_id: str) -> None:
        queue = self._queues.pop(client_id, None)
        if queue is not None:
            del queue.shard._queues[client_id]
        self._evicted.discard(client_id)

    def is_evicted(self, client_id: str) -> bool:
        return client_id in self._evicted

    def active_clients(self) -> List[str]:
        return sorted(self._queues)

    # -- delivery -------------------------------------------------------------

    def dispatch(self, record: FeedRecord, client_ids: List[str]) -> int:
        """Fan one record out to the given (already-matched) clients.

        Returns how many queues accepted it.  A full queue drops its
        oldest record; a client whose drop streak reaches
        ``evict_after_drops`` is dropped from its shard, counted in
        ``metrics.evicted_clients`` and remembered so ``poll`` can tell
        it why.
        """
        queues = self._queues
        max_depth = self.max_queue_depth
        accepted = len(client_ids)
        for client_id in client_ids:
            queue = queues.get(client_id)
            if queue is None:
                self._evicted.add(client_id)
                accepted -= 1
                continue
            queue.shard.routed += 1
            pending = queue.queue
            if len(pending) >= max_depth:
                pending.popleft()
                queue.consecutive_drops += 1
                self.metrics.dropped_queue_full.inc()
                if queue.consecutive_drops >= self.evict_after_drops:
                    self.remove_client(client_id)
                    self._evicted.add(client_id)
                    self.metrics.evicted_clients.inc()
                    accepted -= 1
                    continue
            pending.append(record)
        return accepted

    def poll(self, client_id: str, now: int,
             max_records: int = 100) -> List[FeedRecord]:
        """Drain up to ``max_records`` pending deliveries for a client."""
        queue = self._queues.get(client_id)
        if queue is None:
            if client_id in self._evicted:
                raise EvictedClientError(
                    f"client {client_id!r} was evicted as a slow consumer")
            raise UnknownClientError(f"no queue for client {client_id!r}")
        pending = queue.queue
        metrics = self.metrics
        metrics.queue_depth.observe(len(pending))
        n = min(len(pending), max_records)
        if n <= 0:
            return []
        if n == len(pending):
            batch = list(pending)
            pending.clear()
        else:
            batch = [pending.popleft() for _ in range(n)]
        queue.consecutive_drops = 0
        queue.delivered += n
        metrics.delivered.inc(n)
        metrics.delivery_lag.observe_many(
            [now - r.seen_at if now > r.seen_at else 0 for r in batch])
        return batch

    def pending(self, client_id: Optional[str] = None) -> int:
        """Undelivered records: one client's queue, or all queues."""
        if client_id is not None:
            queue = self._queues.get(client_id)
            return len(queue.queue) if queue is not None else 0
        return sum(len(q.queue) for q in self._queues.values())

    def delivered_counts(self) -> Dict[str, int]:
        """client id -> records delivered so far (active clients only)."""
        out: Dict[str, int] = {}
        for shard in self.shards:
            for client_id, queue in shard._queues.items():
                out[client_id] = queue.delivered
        return out

    def shard_loads(self) -> List[Dict[str, int]]:
        """Per-shard routing/queueing stats (for balance checks)."""
        return [{"shard": s.index, "clients": len(s), "routed": s.routed,
                 "pending": s.pending()} for s in self.shards]
