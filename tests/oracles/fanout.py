"""The per-client fan-out: the reference for ``FanoutDispatcher``.

The literal reading of the serve tier's delivery accounting: every
enqueue and every poll hashes the client id to find its shard, each
queue entry is an ``(enqueued_at, record)`` pair, each delivered record
is counted and its lag observed one at a time.
:class:`repro.serve.fanout.FanoutDispatcher` must return the same
batches, accepted counts, errors, metrics and shard loads for any
sequence of ``add_client`` / ``remove_client`` / ``dispatch`` /
``poll`` calls.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.feed import FeedRecord
from repro.errors import EvictedClientError, ServeError, UnknownClientError
from repro.serve.metrics import ServeMetrics
from repro.simtime.rng import stable_bucket

#: Salt for shard assignment (keeps it independent of broker routing).
SHARD_SALT = "serve.fanout"


@dataclass
class ClientQueue:
    """One subscriber's pending deliveries."""

    client_id: str
    max_depth: int
    queue: Deque[Tuple[int, FeedRecord]] = field(default_factory=deque)
    #: Consecutive enqueue-side drops since the last successful poll.
    consecutive_drops: int = 0
    delivered: int = 0
    dropped: int = 0

    def offer(self, record: FeedRecord, now: int) -> bool:
        """Enqueue a record; on overflow drop the *oldest* entry.

        Returns False when something was dropped (the new record still
        lands — freshest-wins backpressure).
        """
        dropped = False
        if len(self.queue) >= self.max_depth:
            self.queue.popleft()
            self.dropped += 1
            self.consecutive_drops += 1
            dropped = True
        self.queue.append((now, record))
        return not dropped

    def drain(self, max_records: int) -> List[Tuple[int, FeedRecord]]:
        out: List[Tuple[int, FeedRecord]] = []
        while self.queue and len(out) < max_records:
            out.append(self.queue.popleft())
        if out:
            self.consecutive_drops = 0
            self.delivered += len(out)
        return out


class FanoutShard:
    """One delivery worker: the queues of its assigned clients."""

    def __init__(self, index: int, max_queue_depth: int,
                 evict_after_drops: int) -> None:
        self.index = index
        self.max_queue_depth = max_queue_depth
        self.evict_after_drops = evict_after_drops
        self._queues: Dict[str, ClientQueue] = {}
        self.routed = 0

    def __len__(self) -> int:
        return len(self._queues)

    def add_client(self, client_id: str) -> ClientQueue:
        queue = ClientQueue(client_id, self.max_queue_depth)
        self._queues[client_id] = queue
        return queue

    def remove_client(self, client_id: str) -> Optional[ClientQueue]:
        return self._queues.pop(client_id, None)

    def queue_for(self, client_id: str) -> Optional[ClientQueue]:
        return self._queues.get(client_id)

    def enqueue(self, client_id: str, record: FeedRecord, now: int,
                metrics: ServeMetrics) -> bool:
        """Queue one delivery; returns False when the client was evicted."""
        queue = self._queues.get(client_id)
        if queue is None:
            return False
        self.routed += 1
        if not queue.offer(record, now):
            metrics.dropped_queue_full.inc()
            if queue.consecutive_drops >= self.evict_after_drops:
                self._queues.pop(client_id)
                metrics.evicted_clients.inc()
                return False
        return True

    def pending(self) -> int:
        return sum(len(q.queue) for q in self._queues.values())


class FanoutDispatcher:
    """Routes matched records to client queues across shards."""

    def __init__(self, shards: int = 4, max_queue_depth: int = 1024,
                 evict_after_drops: int = 64,
                 metrics: Optional[ServeMetrics] = None) -> None:
        if shards <= 0:
            raise ServeError("need at least one shard")
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.shards = [FanoutShard(i, max_queue_depth, evict_after_drops)
                       for i in range(shards)]
        self._evicted: set = set()

    # -- membership -----------------------------------------------------------

    def shard_for(self, client_id: str) -> FanoutShard:
        return self.shards[stable_bucket(client_id, len(self.shards),
                                         SHARD_SALT)]

    def add_client(self, client_id: str) -> None:
        self._evicted.discard(client_id)
        self.shard_for(client_id).add_client(client_id)

    def remove_client(self, client_id: str) -> None:
        self.shard_for(client_id).remove_client(client_id)
        self._evicted.discard(client_id)

    def is_evicted(self, client_id: str) -> bool:
        return client_id in self._evicted

    def active_clients(self) -> List[str]:
        out: List[str] = []
        for shard in self.shards:
            out.extend(shard._queues)
        return sorted(out)

    # -- delivery -------------------------------------------------------------

    def dispatch(self, record: FeedRecord, client_ids: List[str],
                 now: int) -> int:
        """Fan one record out to the given (already-matched) clients.

        Returns how many queues accepted it.  Clients whose queue
        overflowed past the eviction threshold are dropped from their
        shard and remembered so ``poll`` can tell them why.
        """
        accepted = 0
        for client_id in client_ids:
            shard = self.shard_for(client_id)
            if shard.enqueue(client_id, record, now, self.metrics):
                accepted += 1
            elif shard.queue_for(client_id) is None:
                self._evicted.add(client_id)
        return accepted

    def poll(self, client_id: str, now: int,
             max_records: int = 100) -> List[FeedRecord]:
        """Drain up to ``max_records`` pending deliveries for a client."""
        shard = self.shard_for(client_id)
        queue = shard.queue_for(client_id)
        if queue is None:
            if client_id in self._evicted:
                raise EvictedClientError(
                    f"client {client_id!r} was evicted as a slow consumer")
            raise UnknownClientError(f"no queue for client {client_id!r}")
        self.metrics.queue_depth.observe(len(queue.queue))
        batch = queue.drain(max_records)
        out: List[FeedRecord] = []
        for enqueued_at, record in batch:
            self.metrics.delivered.inc()
            self.metrics.delivery_lag.observe(max(0, now - record.seen_at))
            out.append(record)
        return out

    def pending(self, client_id: Optional[str] = None) -> int:
        """Undelivered records: one client's queue, or all queues."""
        if client_id is not None:
            queue = self.shard_for(client_id).queue_for(client_id)
            return len(queue.queue) if queue is not None else 0
        return sum(shard.pending() for shard in self.shards)

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
