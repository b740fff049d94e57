"""Which public functions of ``repro`` the traced run wraps, and the
per-layer metrics computed from the trace.

Layers are named after the repo's modules.  A *span* target records
one span per call (coarse boundaries); an *aggregate* target only
counts calls and time per parent (hot boundaries called up to millions
of times).  Several attributes may share one layer name: the analysis
classes' ``from_result`` and report methods all count as that
analysis's time.

Callers of a module-level function must look it up on its module at
call time (``scenario.build_world(...)``), since a ``from ... import``
taken before patching keeps the original.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from tracing import LayerTotals, Patches, Trace

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

SPAN, AGG = "span", "agg"

#: (module, class or None for module level, attributes, layer, kind,
#:  options)
TARGETS: List[Tuple[str, Optional[str], Tuple[str, ...], str, str, dict]] = [
    ("repro.workload.scenario", None, ("build_world",),
     "workload.build_world", SPAN, {"resources": True}),
    ("repro.registry.registry", "Registry", ("register",),
     "registry.register", AGG, {}),
    ("repro.ct.ca", "CertificateAuthority", ("request_certificate",),
     "ct.request_certificate", AGG, {}),
    ("repro.czds.archive", "SnapshotArchive", ("in_latest_published",),
     "czds.in_latest_published", AGG, {}),
    ("repro.core.pipeline", "DarkDNSPipeline", ("run",),
     "core.pipeline", SPAN, {}),
    ("repro.core.ctdetect", "CTDetector", ("run",),
     "core.ct_detect", SPAN, {}),
    ("repro.core.rdap_collect", "RDAPCollector", ("collect",),
     "core.rdap_collect", SPAN, {}),
    ("repro.core.monitor", "AnalyticMonitor", ("observe",),
     "core.monitor", AGG, {}),
    ("repro.core.validate", "Validator", ("validate_all",),
     "core.validate", SPAN, {}),
    ("repro.core.transient", "TransientClassifier", ("classify",),
     "core.transient_classify", SPAN, {}),
    ("repro.core.feed", None, ("read_jsonl_records",),
     "core.feed.read_jsonl", SPAN, {}),
    ("repro.bus.broker", "Broker", ("produce_many",),
     "bus.produce_many", SPAN, {}),
    ("repro.bus.broker", "Broker", ("produce",), "bus.produce", AGG, {}),
    ("repro.analysis.report", None, ("full_report",),
     "analysis.full_report", SPAN, {}),
    ("repro.analysis.detection", "DetectionAnalysis",
     ("from_result", "report", "ns_report"), "analysis.detection", SPAN, {}),
    ("repro.analysis.landscape", "VolumeAnalysis",
     ("from_result", "table1_report", "table2_report"),
     "analysis.volume", SPAN, {}),
    ("repro.analysis.landscape", "InfrastructureAnalysis",
     ("from_result", "table3_report", "table4_report", "table5_report"),
     "analysis.infrastructure", SPAN, {}),
    ("repro.analysis.lifetimes", "LifetimeAnalysis",
     ("from_result", "report"), "analysis.lifetimes", SPAN, {}),
    ("repro.analysis.blocklists", "BlocklistAnalysis",
     ("from_result", "report"), "analysis.blocklists", SPAN, {}),
    ("repro.analysis.visibility", "NODComparison",
     ("from_result", "report"), "analysis.nod", SPAN, {}),
    ("repro.analysis.visibility", "CCTLDComparison",
     ("from_result", "report"), "analysis.cctld", SPAN, {}),
    ("repro.analysis.report", None, ("rdap_failure_report",),
     "analysis.rdap_failures", SPAN, {}),
    ("repro.analysis.report", None, ("render_reports",),
     "analysis.render", SPAN, {}),
    ("repro.scan.engine", "ScanEngine", ("observe_all",),
     "scan.observe_all", SPAN, {}),
    ("repro.scan.workers", "ProbeWorker", ("probe",),
     "scan.worker.probe", AGG, {}),
    ("repro.scan.scheduler", "ProbeScheduler",
     ("add_domain", "pop", "advance_entry", "defer", "schedule_retry"),
     "scan.scheduler", AGG, {}),
    ("repro.scan.ratelimit", "AuthorityRateLimiter",
     ("acquire_up_to", "try_acquire", "delay_until"),
     "scan.ratelimit", AGG, {}),
    ("repro.serve.server", "FeedServer", ("ingest",),
     "serve.ingest", AGG, {"samples": True}),
    ("repro.serve.segments", "SegmentedLog", ("append",),
     "serve.log.append", AGG, {}),
    ("repro.serve.subscription", "SubscriptionManager", ("match",),
     "serve.match", AGG, {}),
    ("repro.serve.fanout", "FanoutDispatcher", ("dispatch",),
     "serve.dispatch", AGG, {}),
    ("repro.serve.server", "FeedServer", ("poll",), "serve.poll", AGG, {}),
    ("repro.serve.ratelimit", "RateLimiter", ("available", "allow"),
     "serve.ratelimit", AGG, {}),
    ("repro.serve.server", "FeedServer", ("compact",),
     "serve.compact", SPAN, {}),
]

#: Wrapper totals checked against the program's own ``repro.obs`` span
#: totals from the same run: (wrapper layer, program phase).  A pair
#: fails when the program ran the phase but the wrapper saw no call, or
#: when the totals differ by more than ``CROSSCHECK_REL`` of the
#: program's total plus ``CROSSCHECK_ABS_S``.  The absolute part covers
#: the ``gc.collect()`` that ``build_world`` runs outside its own
#: ``build.world`` span: about 5 ms whatever the world's size, and up to
#: 15 ms when the host runs three times slower.
CROSSCHECK_REL = 0.02
CROSSCHECK_ABS_S = 0.05
CROSSCHECK = (
    ("workload.build_world", "build.world"),
    ("core.ct_detect", "pipeline.ct_detect"),
    ("core.rdap_collect", "pipeline.rdap_collect"),
    ("core.validate", "pipeline.validate"),
    ("core.transient_classify", "pipeline.transient_classify"),
)

#: Per-layer metrics that come from the run's untraced repetitions
#: rather than from the trace (filled in by ``run.py``).
FROM_UNTRACED = ("serve.deliver_p50_ms", "serve.deliver_p99_ms",
                 "serve.deliver_samples", "trace.overhead_s")


def spec() -> dict:
    """``BENCHMARK.json``: the workloads and every metric's name, unit
    and direction."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def install(trace: Trace, patches: Patches) -> None:
    """Swap every target for its tracing wrapper (undone by
    ``patches.restore()``)."""
    for module_name, owner_name, attrs, layer, kind, options in TARGETS:
        owner = importlib.import_module(module_name)
        if owner_name is not None:
            owner = getattr(owner, owner_name)
        for attr in attrs:
            if kind == SPAN:
                patches.replace(owner, attr,
                                lambda fn, layer=layer, options=options:
                                trace.span_wrapper(layer, fn, **options))
            else:
                patches.replace(owner, attr,
                                lambda fn, layer=layer, options=options:
                                trace.agg_wrapper(layer, fn, **options))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def crosscheck(t: LayerTotals, program_phases: Dict[str, dict]
               ) -> Tuple[int, float, List[str]]:
    """Compare wrapper totals with the program's own phase totals.

    Returns the number of pairs checked (those whose phase the program
    ran), the largest relative gap among them and one problem per
    failed pair.
    """
    checked, gaps, problems = 0, [], []
    for layer, phase in CROSSCHECK:
        program = program_phases.get(phase, {}).get("wall_sec", 0.0)
        if not program:
            continue
        checked += 1
        ours = t.wall.get(layer, 0.0)
        gaps.append(abs(ours - program) / program)
        if not t.calls.get(layer):
            problems.append(f"cross-check: the program ran {phase} "
                            f"({program:.4f}s) but {layer} saw no call")
        elif abs(ours - program) > CROSSCHECK_REL * program \
                + CROSSCHECK_ABS_S:
            problems.append(f"cross-check: {layer} took {ours:.4f}s, "
                            f"the program's {phase} {program:.4f}s")
    return checked, max(gaps, default=0.0), problems


def layer_metrics(t: LayerTotals, facts: Dict[str, float],
                  crosscheck_max_gap: float,
                  root: str) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition.

    ``t`` sums the repetition's trace; ``facts`` holds counts read from
    the program's public outputs (``world.stats``, ``result.stats``,
    engine/server snapshots); ``root`` names the span wrapping the
    whole timed job.  Every per-layer metric of ``BENCHMARK.json`` is
    set here, except :data:`FROM_UNTRACED`.
    """
    m: Dict[str, float] = {}

    def wall(name):
        return t.wall.get(name, 0.0)

    def self_s(name):
        return t.self_s.get(name, 0.0)

    def calls(name):
        return t.calls.get(name, 0)

    build = t.extra.get("workload.build_world", {})
    registrations = facts.get("registrations", 0)
    m["workload.build_world.wall_s"] = wall("workload.build_world")
    m["workload.build_world.cpu_s"] = build.get("cpu_s", 0.0)
    growth_kb = build.get("rss_growth_kb", 0)
    m["workload.build_world.rss_growth_mb"] = growth_kb / 1024
    m["workload.registrations"] = registrations
    m["workload.bytes_per_registration"] = _ratio(growth_kb * 1024,
                                                  registrations)
    for layer in ("registry.register", "ct.request_certificate",
                  "czds.in_latest_published", "serve.ingest", "serve.poll"):
        m[f"{layer}.calls"] = calls(layer)
    for layer in ("registry.register", "ct.request_certificate",
                  "czds.in_latest_published", "core.pipeline",
                  "bus.produce_many", "bus.produce", "scan.worker.probe",
                  "scan.scheduler", "scan.ratelimit", "serve.ingest",
                  "serve.log.append", "serve.match", "serve.dispatch",
                  "serve.poll", "serve.ratelimit"):
        m[f"{layer}.self_s"] = self_s(layer)
    for layer in ("core.ct_detect", "core.rdap_collect", "core.monitor",
                  "core.validate", "core.transient_classify",
                  "core.feed.read_jsonl", "analysis.full_report",
                  "analysis.detection", "analysis.volume",
                  "analysis.infrastructure", "analysis.lifetimes",
                  "analysis.blocklists", "analysis.nod", "analysis.cctld",
                  "analysis.rdap_failures", "analysis.render",
                  "scan.observe_all", "serve.compact"):
        m[f"{layer}.wall_s"] = wall(layer)
    m["ct.cert_rejections"] = facts.get("cert_rejections", 0)
    m["core.ct_detect.names_seen"] = facts.get("names_seen", 0)
    m["core.ct_detect.candidate_ratio"] = _ratio(
        facts.get("candidates", 0), facts.get("names_seen", 0))
    m["core.rdap_collect.queries"] = facts.get("rdap_queries", 0)
    m["core.monitor.us_per_domain"] = 1e6 * _ratio(
        wall("core.monitor"), calls("core.monitor"))
    m["bus.messages"] = facts.get("bus_messages", 0)
    m["dnscore.names_interned"] = facts.get("names_interned", 0)

    sent = facts.get("probes_sent", 0)
    suppressed = facts.get("probes_suppressed", 0)
    m["scan.probes_sent"] = sent
    m["scan.probes_suppressed"] = suppressed
    m["scan.useful_probe_ratio"] = _ratio(sent, sent + suppressed)
    m["scan.us_per_probe"] = 1e6 * _ratio(wall("scan.observe_all"), sent)
    for key in ("rate_limit_stalls", "retries", "terminated_early",
                "probe_lag_p99_s"):
        m[f"scan.{key}"] = facts.get(f"scan_{key}", 0)

    m["serve.ingest.p99_us"] = 1e6 * t.extra.get(
        "serve.ingest", {}).get("p99_s", 0.0)
    for key in ("deliveries", "fanout_factor", "filtered_out",
                "dropped_queue_full", "dropped_rate_limited", "evicted",
                "compacted", "sim_lag_p99_s"):
        m[f"serve.{key}"] = facts.get(f"serve_{key}", 0)

    m["trace.job_self_s"] = self_s(root)
    m["trace.self_sum_s"] = t.total_self_s
    m["trace.crosscheck_max_gap"] = crosscheck_max_gap
    return m
