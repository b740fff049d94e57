"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, because the
program keeps process-global state (the ``NameTable`` interner, the
``stable_hash01`` memo, the ``gc.freeze``-d heap) and ``repro`` users
always start cold.  The script imports ``repro`` from the checkout's
``src/``, loads the job's inputs, times the job, checks its outputs
outside the timed region and prints one JSON object as the last line
of standard output.

With ``--trace 1`` the layer wrappers of ``layers.py`` are installed
around the timed job only, and its spans are appended to ``--spans``.

Usage (normally driven by ``run.py``)::

    python3 perfbench/job.py --workload reproduce --seed 1 \\
        --spawned <perf_counter at spawn> --inputs perfbench/.out/in
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from array import array
from pathlib import Path

import layers
import serveload
from tracing import (LayerTotals, Patches, Trace, percentile,
                     tail_percentile, write_jsonl)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: ``reproduce`` runs the 1/200 world of ``benchmarks/conftest.py``:
#: at 1/500 the paper-fidelity count varies twice as much between seeds.
REPRODUCE_SCALE = 200
#: ``scan`` runs a 1/10000 world: about 700 candidates, 0.26 M probes.
SCAN_SCALE = 10_000
#: Per-authority cap (probes per simulated second).  Unthrottled, the
#: busiest authorities peak at 3-5 probes per second, so a cap of 2
#: makes them stall.
SCAN_QPS = 2.0
SERVE_RECORDS = 20_000
SERVE_CLIENTS = 100
#: ``FeedServer.run_live``'s default cadence: every client polls each
#: simulated hour, taking up to 1000 records.
SERVE_POLL_INTERVAL = 3600
SERVE_POLL_MAX = 1000


def archive_path(inputs: Path) -> Path:
    return inputs / "feed.jsonl"


def clients_path(inputs: Path) -> Path:
    return inputs / "clients.json"


def cpu_seconds() -> float:
    """CPU time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _names_interned() -> int:
    from repro.dnscore.interned import default_table
    return len(default_table())


def _bus_messages(broker) -> int:
    return sum(broker.topic(name).total_messages()
               for name in broker.topics())


class Reproduce:
    """``repro reproduce --scale 200 --seed S`` with default flags."""

    def __init__(self, seed: int, inputs: Path) -> None:
        from repro.workload.scenario import ScenarioConfig
        self.config = ScenarioConfig(
            seed=seed, scale=1 / REPRODUCE_SCALE, include_cctld=True,
            cctld_scale=1.0, parallel=1)

    def run(self):
        from repro.analysis import report
        from repro.core import pipeline
        from repro.workload import scenario
        world = scenario.build_world(self.config)
        result = pipeline.DarkDNSPipeline(world).run()
        reports = report.full_report(world, result)
        text = report.render_reports(reports)
        return world, result, reports, text

    def check(self, output) -> dict:
        from repro.workload.scenario import world_fingerprint
        world, result, reports, text = output
        stats = result.stats
        problems = []
        if not text or any(not r.render().strip() for r in reports):
            problems.append("a report rendered empty")
        if not (stats["confirmed_transients"]
                <= stats["transient_candidates"] <= stats["candidates"]):
            problems.append("confirmed <= transient candidates <= "
                            "candidates does not hold")
        holding = [r.holding() for r in reports]
        return {
            "attempted": 1, "failed": 1 if problems else 0,
            "problems": problems,
            "fidelity_ok": sum(ok for ok, _ in holding),
            "fidelity_total": sum(total for _, total in holding),
            "fingerprint": world_fingerprint(world),
            "facts": {
                "registrations": world.registries.total_registrations(),
                "cert_rejections": world.stats.get("cert_rejections", 0),
                "names_seen": stats["names_seen"],
                "candidates": stats["candidates"],
                "rdap_queries": stats["rdap_queries"],
                "bus_messages": _bus_messages(world.broker),
                "names_interned": _names_interned(),
            },
        }


class Scan:
    """``repro scan --scale 10000 --qps 2 --seed S``: 16 workers, a
    10-min grid over 48 h, every CT candidate."""

    def __init__(self, seed: int, inputs: Path) -> None:
        from repro.scan import ScanConfig
        from repro.simtime.clock import parse_duration
        from repro.workload.scenario import ScenarioConfig
        self.config = ScenarioConfig(seed=seed, scale=1 / SCAN_SCALE,
                                     parallel=1)
        self.scan_config = ScanConfig(
            probe_interval=parse_duration("10m"),
            duration=parse_duration("48h"), workers=16,
            qps_per_authority=SCAN_QPS)

    def run(self):
        from repro.core.ctdetect import CTDetector
        from repro.scan import ScanEngine
        from repro.workload import scenario
        world = scenario.build_world(self.config)
        detector = CTDetector(archive=world.archive,
                              known_tlds=world.registries.tlds(),
                              broker=world.broker)
        candidates = detector.run(world.certstream,
                                  world.window.start, world.window.end)
        engine = ScanEngine(world.registries, self.scan_config,
                            broker=world.broker)
        reports = engine.observe_all(
            {d: c.ct_seen_at for d, c in candidates.items()})
        return world, detector, candidates, engine, reports, \
            engine.snapshot()

    def check(self, output) -> dict:
        world, detector, candidates, engine, reports, snap = output
        missing = [d for d in candidates if reports.get(d) is None]
        peaks = snap["authority_peak_qps"]
        over_cap = sorted(a for a, q in peaks.items() if q > SCAN_QPS)
        problems = []
        if missing:
            problems.append(f"{len(missing)} candidates have no report")
        if over_cap:
            problems.append(f"authorities over the cap: {over_cap}")
        if not candidates:
            problems.append("no candidates")
        return {
            "attempted": len(candidates) + len(peaks),
            "failed": len(missing) + len(over_cap) + (not candidates),
            "problems": problems,
            "fidelity_ok": len(candidates) - len(missing),
            "facts": {
                "registrations": world.registries.total_registrations(),
                "cert_rejections": world.stats.get("cert_rejections", 0),
                "names_seen": detector.stats.names_seen,
                "candidates": len(candidates),
                "bus_messages": _bus_messages(world.broker),
                "names_interned": _names_interned(),
                "probes_sent": snap["probes_sent"],
                "probes_suppressed": snap["probes_suppressed"],
                "scan_rate_limit_stalls": snap["rate_limit_stalls"],
                "scan_retries": snap["retries"],
                "scan_terminated_early": snap["terminated_early"],
                "scan_probe_lag_p99_s": snap["probe_lag"]["p99"],
            },
        }


class Serve:
    """Archive replay to mixed subscribers at the ``run_live`` cadence,
    then drain, ``log.roll``, ``compact`` and ``snapshot``."""

    def __init__(self, seed: int, inputs: Path) -> None:
        from repro.serve import FeedServer, FeedServerConfig, FilterSpec
        self.archive = archive_path(inputs)
        with open(clients_path(inputs), encoding="utf-8") as handle:
            self.clients = json.load(handle)
        self.server = FeedServer(config=FeedServerConfig(
            shards=4, max_queue_depth=1024, max_segment_records=4096))
        for client in self.clients:
            self.server.subscribe(client["id"], FilterSpec(
                tlds=frozenset(client["tlds"]),
                sources=frozenset(client["sources"]),
                domain_glob=client["glob"]), tier=client["tier"])

    def run(self):
        from repro.core import feed
        server = self.server
        records, skipped = feed.read_jsonl_records(self.archive)
        ordered = sorted(records, key=lambda r: (r.seen_at, r.domain))
        index = {id(record): i for i, record in enumerate(ordered)}
        ingested_at = array("d", bytes(8 * len(ordered)))
        delivered = {client["id"]: array("i") for client in self.clients}
        latency = array("d")

        def poll_all(now: int, max_records: int) -> None:
            for client_id in server.fanout.active_clients():
                batch = server.poll(client_id, now, max_records=max_records)
                if batch:
                    t = time.perf_counter()
                    sink = delivered[client_id]
                    for record in batch:
                        i = index[id(record)]
                        sink.append(i)
                        latency.append(t - ingested_at[i])

        next_poll = None
        for i, record in enumerate(ordered):
            if next_poll is None:
                next_poll = record.seen_at + SERVE_POLL_INTERVAL
            while record.seen_at >= next_poll:
                poll_all(next_poll, SERVE_POLL_MAX)
                next_poll += SERVE_POLL_INTERVAL
            ingested_at[i] = time.perf_counter()
            server.ingest(record)
        for round_no in range(10_000):
            poll_all(next_poll + round_no * SERVE_POLL_INTERVAL, 100)
            if server.fanout.pending() == 0:
                break
        server.log.roll()
        compacted = server.compact()
        return ordered, skipped, delivered, latency, compacted, \
            server.snapshot()

    def check(self, output) -> dict:
        ordered, skipped, delivered, latency, compacted, snap = output
        expected = serveload.expected_deliveries(self.clients, ordered)
        missing = spurious = exact = 0
        for client in self.clients:
            _, miss, extra = serveload.score(expected[client["id"]],
                                             delivered[client["id"]])
            missing += miss
            spurious += extra
            exact += not (miss or extra)
        attempted = sum(len(v) for v in expected.values())
        problems = []
        if skipped:
            problems.append(f"{skipped} archive lines skipped")
        if missing or spurious:
            problems.append(f"{missing} expected deliveries missing, "
                            f"{spurious} spurious")
        ordered_lat = sorted(latency)
        tail = tail_percentile(len(ordered_lat))
        published = snap["published"]
        return {
            "attempted": attempted + spurious + len(ordered),
            "failed": missing + spurious + skipped,
            "problems": problems,
            "fidelity_ok": exact,
            "deliver": {
                "samples": len(ordered_lat),
                "p50_ms": 1e3 * percentile(ordered_lat, 50.0)
                if ordered_lat else 0.0,
                "tail_percentile": tail,
                "p99_ms": 1e3 * percentile(ordered_lat, tail)
                if tail is not None else 0.0,
            },
            "facts": {
                "serve_deliveries": snap["delivered"],
                "serve_fanout_factor": snap["delivered"] / published
                if published else 0.0,
                "serve_filtered_out": snap["filtered_out"],
                "serve_dropped_queue_full": snap["dropped_queue_full"],
                "serve_dropped_rate_limited": snap["dropped_rate_limited"],
                "serve_evicted": snap["evicted_clients"],
                "serve_compacted": compacted,
                "serve_sim_lag_p99_s":
                    self.server.metrics.delivery_lag.quantile(0.99),
            },
        }


WORKLOADS = {"reproduce": Reproduce, "scan": Scan, "serve": Serve}


def _program_phases() -> dict:
    from repro.obs.spans import tracer
    return tracer().phase_totals()


def run_once(workload: str, seed: int, spawned: float, inputs: Path,
             trace: bool, spans_path, run_id: str) -> dict:
    job = WORKLOADS[workload](seed, inputs)
    setup_s = time.perf_counter() - spawned
    root = f"job.{workload}"
    tracer_ = patches = None
    run = job.run
    if trace:
        tracer_, patches = Trace(run_id), Patches()
        layers.install(tracer_, patches)
        run = tracer_.span_wrapper(root, job.run)
    error = None
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        output = run()
    except Exception:  # the job's failure is a measured outcome
        output = None
        error = traceback.format_exc()
    finally:
        wall_s = time.perf_counter() - t0
        cpu_s = cpu_seconds() - cpu0
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        if patches is not None:
            patches.restore()
    result = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
              "peak_rss_mb": peak_rss_mb, "traced": trace}
    if error is not None:
        result.update(attempted=1, failed=1, problems=[error],
                      fidelity_ok=0)
        return result
    result.update(job.check(output))
    if trace:
        records = tracer_.records()
        if spans_path is not None:
            write_jsonl(records, spans_path)
        totals = LayerTotals(records)
        checked, max_gap, problems = layers.crosscheck(
            totals, _program_phases())
        result["attempted"] += checked
        result["failed"] += len(problems)
        result["problems"] += problems
        result["layers"] = layers.layer_metrics(
            totals, result.pop("facts"), max_gap, root)
    else:
        result.pop("facts")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.perf_counter() when the parent "
                             "started this interpreter")
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--run-id", default="run")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro.cli  # noqa: F401  -- what `python -m repro` imports
    result = run_once(args.workload, args.seed, args.spawned, args.inputs,
                      bool(args.trace), args.spans, args.run_id)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
