"""Failure handling for the repro stack: deterministic fault injection
and the counters of every recovery.

The package has two parts (see ``docs/resilience.md``):

* :mod:`repro.resilience.faults` — :class:`FaultPlan`, the seeded
  chaos schedule parsed from ``--fault-plan`` (same seed → same
  injection schedule, bit-reproducible);
* :mod:`repro.resilience.metrics` — the process-wide ``resilience``
  registry group counting every injected fault and every recovery.

The recovery itself lives where the behaviour it protects lives:
SERVFAIL/timeout retry and dark-host suppression in ``scan.engine``,
segment salvage in ``serve.segments``, feed-line quarantine in
``core.feed``.  This package only holds the shared mechanism.
"""

from repro.resilience.faults import FAULT_KINDS, FaultPlan, FaultSpec
from repro.resilience.metrics import (
    ResilienceMetrics,
    get_resilience_metrics,
    reset_resilience_metrics,
)

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "ResilienceMetrics",
    "get_resilience_metrics",
    "reset_resilience_metrics",
]
