"""repro.scan — high-throughput bulk DNS measurement.

The subsystem behind ``repro scan``: a probe scheduler over lazy
per-domain grids, a rate-limited worker fleet with retry/backoff and
negative-answer dedup, a columnar result sink, and the
:class:`ScanEngine` facade tying them together.
"""

from repro.scan.engine import ScanConfig, ScanEngine
from repro.scan.metrics import ScanMetrics
from repro.scan.ratelimit import AuthorityRateLimiter
from repro.scan.scheduler import ProbeEntry, ProbeScheduler
from repro.scan.store import ProbeResultStore
from repro.scan.workers import NegativeAnswerCache, ProbeWorker

__all__ = [
    "ScanConfig", "ScanEngine", "ScanMetrics",
    "AuthorityRateLimiter",
    "ProbeEntry", "ProbeScheduler",
    "ProbeResultStore",
    "NegativeAnswerCache", "ProbeWorker",
]
