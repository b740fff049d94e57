"""Failure handling for the repro stack: deterministic fault injection,
circuit breakers, and crash-safe logs.

The package has three pillars (see ``docs/resilience.md``):

* :mod:`repro.resilience.faults` — :class:`FaultPlan`, the seeded
  chaos schedule parsed from ``--fault-plan`` (same seed → same
  injection schedule, bit-reproducible);
* :mod:`repro.resilience.breaker` — :class:`CircuitBreaker` and the
  retry :func:`backoff <make_backoff>` policies the scan engine keys
  per TLD authority;
* :mod:`repro.resilience.metrics` — the process-wide ``resilience``
  registry group counting every injected fault and every recovery.

The consuming subsystems (``scan.engine`` breakers,
``serve.segments`` salvage, ``serve.server`` shedding) live where the
behaviour they protect lives; this package only holds the shared
mechanism.
"""

from repro.resilience.breaker import (
    BreakerConfig,
    CircuitBreaker,
    DecorrelatedJitterBackoff,
    ExponentialBackoff,
    make_backoff,
)
from repro.resilience.faults import FAULT_KINDS, FaultPlan, FaultSpec
from repro.resilience.metrics import (
    ResilienceMetrics,
    get_resilience_metrics,
    reset_resilience_metrics,
)

__all__ = [
    "BreakerConfig",
    "CircuitBreaker",
    "DecorrelatedJitterBackoff",
    "ExponentialBackoff",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "ResilienceMetrics",
    "get_resilience_metrics",
    "make_backoff",
    "reset_resilience_metrics",
]
