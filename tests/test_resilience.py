"""Tests for repro.resilience — chaos with a fixed seed.

The load-bearing property of the whole layer: recovery must be
*invisible in the output*.  A scan whose authorities melt down, a
serve log with a torn tail — each must produce the artefacts of the
undisturbed run (completed reports, salvaged records), differing only
in the telemetry that says what was survived.
"""

import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.feed import FeedRecord, PublicFeed, read_jsonl_records
from repro.errors import (
    ConfigError,
    ReproError,
    ResilienceError,
    ScanError,
    SegmentCorruptionError,
)
from repro.resilience import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    get_resilience_metrics,
    reset_resilience_metrics,
)
from repro.resilience.faults import _PARAMS
from repro.scan import ProbeResultStore, ScanConfig, ScanEngine
from repro.serve.segments import (
    SegmentedLog,
    decode_segment_line,
    encode_segment_line,
)
from repro.serve.server import FeedServer, FeedServerConfig
from repro.simtime.clock import HOUR, MINUTE
from repro.workload.scenario import ScenarioConfig


@pytest.fixture(autouse=True)
def _fresh_metrics():
    reset_resilience_metrics()
    yield
    reset_resilience_metrics()


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------

# Spec grammars for the never-raise property: free text alone almost
# never reaches a real kind with a hostile value, so draw the CLI and
# JSON forms over the real kinds and parameter names too.
_kinds = st.one_of(st.sampled_from(FAULT_KINDS), st.text(max_size=12))
_param_names = st.one_of(st.sampled_from(sorted(_PARAMS)),
                         st.text(max_size=8))
_numbers = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                     st.integers())
_cli_values = st.one_of(_numbers.map(str), st.text(max_size=8),
                        st.sampled_from(["1e400", "-1e400", "inf", "nan",
                                         "1e300", "172801"]))
_json_values = st.one_of(_numbers.map(json.dumps),
                         st.text(max_size=8).map(json.dumps),
                         st.sampled_from(["1e400", "-1e400", "NaN",
                                          "Infinity", "true", "null",
                                          "[]", "{}"]))


@st.composite
def _cli_plans(draw):
    segments = []
    if draw(st.booleans()):
        segments.append("seed=" + draw(_cli_values))
    for _ in range(draw(st.integers(1, 3))):
        params = ",".join(f"{draw(_param_names)}={draw(_cli_values)}"
                          for _ in range(draw(st.integers(0, 3))))
        segments.append(f"{draw(_kinds)}:{params}")
    return ";".join(segments)


#: A latency spike of hostile length, which the scan must refuse when it
#: outlasts the monitoring window.
_latency_plans = _cli_values.map(lambda value: f"scan.latency:delay={value}")


@st.composite
def _json_plans(draw):
    faults = []
    for _ in range(draw(st.integers(0, 3))):
        fields = [f'"kind": {json.dumps(draw(_kinds))}']
        for _ in range(draw(st.integers(0, 3))):
            fields.append(f"{json.dumps(draw(_param_names))}: "
                          f"{draw(_json_values)}")
        faults.append("{" + ", ".join(fields) + "}")
    return (f'{{"seed": {draw(_json_values)}, '
            f'"faults": [{", ".join(faults)}]}}')


class TestFaultPlan:
    def test_parse_cli_grammar(self):
        plan = FaultPlan.parse(
            "seed=9;scan.servfail:rate=0.5,fires=1;"
            "scan.timeout:rate=0.1,target=com")
        assert plan.seed == 9
        assert [s.kind for s in plan.specs] == ["scan.servfail",
                                                "scan.timeout"]
        assert plan.specs[0].rate == 0.5
        assert plan.specs[0].fires == 1
        assert plan.specs[1].target == "com"

    def test_parse_json(self):
        plan = FaultPlan.parse(json.dumps({
            "seed": 4,
            "faults": [{"kind": "log.torn_write", "rate": 1.0}]}))
        assert plan.seed == 4
        assert plan.wants("log.torn_write")
        assert not plan.wants("scan.servfail")

    def test_parse_file(self, tmp_path):
        spec = tmp_path / "plan.json"
        spec.write_text(json.dumps(
            {"seed": 2, "faults": [{"kind": "scan.latency", "delay": 3}]}))
        plan = FaultPlan.parse(str(spec))
        assert plan.specs[0].delay == 3.0

    def test_parse_empty_is_none(self):
        assert FaultPlan.parse(None) is None
        assert FaultPlan.parse("") is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan.parse("worker.explode:rate=1.0")

    def test_bad_rate_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan.parse("scan.servfail:rate=1.5")

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan.parse("scan.servfail:frequency=1")

    def test_all_kinds_parse(self):
        for kind in FAULT_KINDS:
            assert FaultPlan.parse(f"{kind}:rate=1.0").wants(kind)

    def test_fires_is_deterministic(self):
        plan_a = FaultPlan.parse("seed=5;scan.timeout:rate=0.3")
        plan_b = FaultPlan.parse("seed=5;scan.timeout:rate=0.3")
        schedule_a = [plan_a.fires("scan.timeout", f"d{i}.com") is not None
                      for i in range(200)]
        schedule_b = [plan_b.fires("scan.timeout", f"d{i}.com") is not None
                      for i in range(200)]
        assert schedule_a == schedule_b
        hits = sum(schedule_a)
        assert 30 < hits < 90  # ~60 expected at rate 0.3

    def test_different_seeds_differ(self):
        hit = {seed: [FaultPlan.parse(f"seed={seed};scan.servfail:rate=0.5")
                      .fires("scan.servfail", f"d{i}") is not None
                      for i in range(64)]
               for seed in (1, 2)}
        assert hit[1] != hit[2]

    def test_order_independent(self):
        """The draw depends only on the key, not on call history."""
        plan = FaultPlan.parse("seed=8;scan.servfail:rate=0.5")
        keys = [f"d{i}.com" for i in range(50)]
        forward = {k: plan.fires("scan.servfail", k) is not None
                   for k in keys}
        plan2 = FaultPlan.parse("seed=8;scan.servfail:rate=0.5")
        backward = {k: plan2.fires("scan.servfail", k) is not None
                    for k in reversed(keys)}
        assert forward == backward

    def test_target_filter(self):
        plan = FaultPlan.parse("scan.servfail:rate=1.0,target=com")
        assert plan.fires("scan.servfail", "a.com", target="com") is not None
        assert plan.fires("scan.servfail", "a.xyz", target="xyz") is None

    def test_fires_cap_limits_attempts(self):
        plan = FaultPlan.parse("scan.servfail:rate=1.0,fires=1")
        assert plan.fires("scan.servfail", "s", attempt=0) is not None
        assert plan.fires("scan.servfail", "s", attempt=1) is None

    def test_time_window(self):
        plan = FaultPlan.parse("scan.servfail:rate=1.0,start=100,end=200")
        assert plan.fires("scan.servfail", "d", at=99) is None
        assert plan.fires("scan.servfail", "d", at=100) is not None
        assert plan.fires("scan.servfail", "d", at=200) is None

    @pytest.mark.parametrize("text", [
        "scan.latency:rate=1,delay=inf",
        "scan.latency:delay=nan",
        '{"faults":[{"kind":"scan.servfail","start":1e400}]}',
        '{"faults":[{"kind":"scan.servfail","fires":1e400}]}',
        '{"faults":[{"kind":"scan.latency","delay":NaN}]}',
    ])
    def test_non_finite_values_rejected(self, text):
        with pytest.raises(ConfigError):
            FaultPlan.parse(text)

    def test_unparseable_input_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            FaultPlan.parse("[" * 100_000)  # nesting past the recursion limit
        binary = tmp_path / "plan.bin"
        binary.write_bytes(b"\xff\xfe\x00not utf-8")
        with pytest.raises(ConfigError):
            FaultPlan.parse(str(binary))

    @given(st.one_of(st.text(), _cli_plans(), _json_plans(),
                     _latency_plans))
    @settings(max_examples=400, deadline=None)
    def test_parse_never_raises_anything_but_config_error(self, text):
        """The boundary contract: a plan, None, or ConfigError — and an
        accepted plan holds only finite numbers.  A scan accepts the
        plan or raises ScanError, and never holds a latency spike
        longer than its monitoring window."""
        try:
            plan = FaultPlan.parse(text)
        except ConfigError:
            return
        assert plan is None or isinstance(plan, FaultPlan)
        for spec in (plan.specs if plan is not None else ()):
            for name in _PARAMS:
                value = getattr(spec, name)
                assert not (isinstance(value, float)
                            and not math.isfinite(value)), (name, value)
        try:
            config = ScanConfig(fault_plan=plan)
        except ScanError:
            return
        for spec in (plan.specs if plan is not None else ()):
            if spec.kind == "scan.latency":
                assert spec.delay <= config.duration, spec


# ---------------------------------------------------------------------------
# Scan under storm
# ---------------------------------------------------------------------------

def _storm_engine(plan, store=None):
    from repro.registry.policy import gtld
    from repro.registry.registry import Registry, RegistryGroup
    registry = Registry(gtld("com", MINUTE, snapshot_offset=0))
    starts = {}
    for i in range(12):
        domain = f"storm{i}.com"
        registry.register(domain, 1000 + i * 60, "GoDaddy",
                          ns_hosts=["ns1.h.net"], a_addrs=["192.0.2.1"])
        starts[domain] = 1000 + i * 60
    config = ScanConfig(probe_interval=10 * MINUTE, duration=6 * HOUR,
                        fault_plan=plan)
    return ScanEngine(RegistryGroup([registry]), config, store=store), starts


class TestScanChaos:
    def test_servfail_storm_completes(self):
        engine, starts = _storm_engine(
            "seed=2;scan.servfail:rate=1.0,target=com")
        reports = engine.observe_all(starts)
        assert sorted(reports) == sorted(starts)
        assert engine.metrics.retries.value > 0
        assert get_resilience_metrics().snapshot()[
            "resilience_faults_injected_total"]["scan.servfail"] > 0

    def test_retry_schedule_is_nominal_then_5s_then_15s(self):
        """Every failed instant is retried 5 s after the first attempt
        and 10 s after that (``5 * 2 ** attempt``), then given up."""
        store = ProbeResultStore()
        engine, starts = _storm_engine("seed=2;scan.timeout:rate=1.0",
                                       store=store)
        engine.observe_all(starts)
        chains = {}
        for domain in starts:
            for row in store.for_domain(domain):
                key = (domain, row["nominal_ts"], row["qtype"])
                chains.setdefault(key, []).append(
                    (row["attempt"], row["ts"] - row["nominal_ts"]))
        assert len(chains) > 12 * 30
        for chain in chains.values():
            assert sorted(chain) == [(0, 0), (1, 5), (2, 15)]

    def test_storm_run_is_reproducible(self):
        plan = "seed=6;scan.timeout:rate=0.4"
        engine_a, starts = _storm_engine(plan)
        engine_b, _ = _storm_engine(plan)
        reports_a = engine_a.observe_all(starts)
        reports_b = engine_b.observe_all(dict(starts))
        assert reports_a == reports_b
        assert (engine_a.metrics.probes_sent.value
                == engine_b.metrics.probes_sent.value)

    def test_no_plan_is_noop(self):
        engine_a, starts = _storm_engine(None)
        engine_b, _ = _storm_engine("")
        assert engine_a.observe_all(starts) == engine_b.observe_all(starts)


# ---------------------------------------------------------------------------
# Crash-safe segmented log
# ---------------------------------------------------------------------------

def _records(n, start_ts=1000):
    return [FeedRecord(domain=f"d{i}.example", tld="example",
                       seen_at=start_ts + i * 10, source="zone")
            for i in range(n)]


def _write_log(directory, n=40, max_segment_records=8):
    log = SegmentedLog(max_segment_records=max_segment_records,
                       directory=directory)
    for record in _records(n):
        log.append(record)
    log.roll()
    return log


class TestSegmentLineCodec:
    def test_round_trip(self):
        line = encode_segment_line('{"a":1}')
        assert decode_segment_line(line) == '{"a":1}'

    def test_corruption_detected(self):
        line = encode_segment_line('{"a":1}')
        with pytest.raises(SegmentCorruptionError):
            decode_segment_line(line.replace('1', '2', 1))

    def test_legacy_line_passthrough(self):
        assert decode_segment_line('{"a":1}') == '{"a":1}'


class TestTornTailRecovery:
    def test_random_truncation_never_loses_complete_records(self, tmp_path):
        """The acceptance property: for ANY truncation point, load()
        never raises and salvages every record whose line survived."""
        rng = random.Random(1234)
        for trial in range(25):
            directory = tmp_path / f"trial{trial}"
            _write_log(directory, n=40)
            files = sorted(directory.glob("segment-*.jsonl"))
            victim = rng.choice(files)
            data = victim.read_bytes()
            cut = rng.randrange(1, len(data))
            victim.write_bytes(data[:cut])
            complete_lines = sum(
                1 for f in sorted(directory.glob("segment-*.jsonl"))
                for line in f.read_bytes().split(b"\n")
                if line.endswith(b"}") or (line and b"\t" in line
                                           and len(line.rpartition(b"\t")[2])
                                           == 8))
            log = SegmentedLog.load(directory)
            recovered = list(log.iter_records())
            # Upper bound: all originally written records.
            assert len(recovered) <= 40
            # Every record the reader reports is genuine and ordered.
            assert recovered == sorted(recovered,
                                       key=lambda r: r.seen_at)
            assert log.stats()["torn_lines"] >= 0
            # Reload after repair is clean and identical.
            log2 = SegmentedLog.load(directory)
            assert list(log2.iter_records()) == recovered
            assert log2.stats()["torn_lines"] == 0

    def test_torn_tail_salvages_prefix(self, tmp_path):
        _write_log(tmp_path, n=16, max_segment_records=100)
        path = sorted(tmp_path.glob("segment-*.jsonl"))[0]
        lines = path.read_text().splitlines(keepends=True)
        # Keep 10 clean lines, then a torn half-line.
        path.write_text("".join(lines[:10]) + lines[10][:15])
        log = SegmentedLog.load(tmp_path)
        assert len(list(log.iter_records())) == 10
        stats = log.stats()
        assert stats["torn_lines"] == 1
        assert stats["records_salvaged"] == 10
        sidecars = list(tmp_path.glob("*.torn"))
        assert len(sidecars) == 1

    def test_offsets_contiguous_after_salvage(self, tmp_path):
        _write_log(tmp_path, n=40, max_segment_records=8)
        files = sorted(tmp_path.glob("segment-*.jsonl"))
        data = files[1].read_text().splitlines(keepends=True)
        files[1].write_text("".join(data[:3]) + data[3][:10])
        log = SegmentedLog.load(tmp_path)
        records = list(log.iter_records())
        # read() from every offset agrees with the full iteration.
        assert log.read(log.start_offset, max_records=1000) == records
        assert len(records) == log.end_offset - log.start_offset

    def test_injected_torn_write_round_trip(self, tmp_path):
        log = SegmentedLog(max_segment_records=8, directory=tmp_path,
                           fault_plan="seed=5;log.torn_write:rate=0.7")
        for record in _records(32):
            log.append(record)
        log.roll()
        assert get_resilience_metrics().snapshot()[
            "resilience_faults_injected_total"]["log.torn_write"] > 0
        recovered = SegmentedLog.load(tmp_path)
        stats = recovered.stats()
        assert stats["torn_lines"] > 0
        assert stats["records_salvaged"] > 0
        assert list(recovered.iter_records())  # prefix survived


# ---------------------------------------------------------------------------
# Serve: stalled consumers
# ---------------------------------------------------------------------------

class TestServeResilience:
    def _server(self, **config_overrides):
        server = FeedServer(config=FeedServerConfig(**config_overrides))
        server.subscribe("paid", tier="premium")
        server.subscribe("mid", tier="standard")
        server.subscribe("free-a", tier="free")
        server.subscribe("free-b", tier="free")
        return server

    def test_stalled_consumer_keeps_backlog(self):
        server = self._server(
            fault_plan="seed=1;serve.stall:rate=1.0,target=free-a,"
                       "start=0,end=200")
        for i in range(5):
            server.ingest(FeedRecord(domain=f"d{i}.com", tld="com",
                                     seen_at=100 + i, source="zone"))
        assert server.poll("free-a", 150) == []
        assert server.fanout.pending("free-a") == 5
        assert len(server.poll("mid", 150)) == 5
        # Past the plan window the stall lifts and the backlog drains.
        assert len(server.poll("free-a", 300)) == 5


# ---------------------------------------------------------------------------
# Feed archive quarantine
# ---------------------------------------------------------------------------

class TestFeedQuarantine:
    def _archive(self, tmp_path):
        good = [FeedRecord(domain=f"q{i}.com", tld="com",
                           seen_at=50 + i).to_json() for i in range(3)]
        path = tmp_path / "feed.jsonl"
        path.write_text("\n".join([good[0], "{torn", good[1],
                                   "garbage", good[2]]) + "\n")
        return path

    def test_rejects_sidecar_written(self, tmp_path):
        path = self._archive(tmp_path)
        feed = PublicFeed.from_jsonl(path)
        assert len(feed) == 3
        assert feed.load_errors == 2
        sidecar = tmp_path / "feed.jsonl.rejects"
        assert sidecar.read_text().splitlines() == ["{torn", "garbage"]
        assert get_resilience_metrics().snapshot()[
            "resilience_rejected_lines_total"] == 2

    def test_quarantine_opt_out(self, tmp_path):
        path = self._archive(tmp_path)
        records, skipped = read_jsonl_records(path, quarantine=False)
        assert (len(records), skipped) == (3, 2)
        assert not (tmp_path / "feed.jsonl.rejects").exists()

    def test_server_replay_surfaces_count(self, tmp_path):
        path = self._archive(tmp_path)
        server = FeedServer(config=FeedServerConfig())
        assert server.replay(path) == 3
        assert server.replay_skipped == 2


# ---------------------------------------------------------------------------
# Error taxonomy and exit codes
# ---------------------------------------------------------------------------

class TestErrorContract:
    def test_hierarchy(self):
        assert issubclass(SegmentCorruptionError, ResilienceError)
        assert issubclass(ResilienceError, ReproError)

    def test_bad_fault_plan_exits_2(self, capsys):
        from repro.cli import main
        # --fault-plan lives only on the commands that read it.
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--fault-plan", "scan.servfail:rate=1",
                  "--scale", "5000"])
        assert exc.value.code == 2
        capsys.readouterr()
        for command in ("scan", "serve"):
            assert main([command, "--fault-plan", "no.such.fault:rate=1",
                         "--scale", "5000", "--no-cctld"]) == 2
        # The build-worker kinds are gone; the error names what is left.
        assert main(["scan", "--fault-plan", "worker.crash:rate=1",
                     "--scale", "5000", "--no-cctld"]) == 2
        err = capsys.readouterr().err
        assert "worker.crash" in err
        assert all(kind in err for kind in FAULT_KINDS)
        assert len(FAULT_KINDS) == 5

    def test_parallel_build_config_rejected(self):
        # The world build is serial: parallel=1 is the only legal value.
        for parallel in (0, 2, 4):
            with pytest.raises(ConfigError):
                ScenarioConfig(parallel=parallel)
        assert ScenarioConfig(parallel=1).parallel == 1


# ---------------------------------------------------------------------------
# Bench artifact durability
# ---------------------------------------------------------------------------

class TestBenchArtifactDurability:
    def _conftest(self):
        import importlib.util
        path = (Path(__file__).resolve().parent.parent
                / "benchmarks" / "conftest.py")
        spec = importlib.util.spec_from_file_location("bench_conftest", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_write_baseline_atomic(self, tmp_path, monkeypatch):
        bench = self._conftest()
        monkeypatch.setattr(bench, "BASELINE_DIR", tmp_path)
        path = bench.write_baseline("demo", {"a": 1})
        assert json.loads(path.read_text()) == {"a": 1}
        assert not list(tmp_path.glob("*.tmp"))

    def test_append_trend_atomic_and_appending(self, tmp_path, monkeypatch):
        bench = self._conftest()
        monkeypatch.setattr(bench, "TREND_PATH", tmp_path / "TREND.jsonl")
        bench.append_trend({"run": 1})
        bench.append_trend({"run": 2})
        lines = (tmp_path / "TREND.jsonl").read_text().splitlines()
        assert [json.loads(l)["run"] for l in lines] == [1, 2]
        assert not list(tmp_path.glob("*.tmp"))

    def test_append_trend_repairs_missing_newline(self, tmp_path,
                                                  monkeypatch):
        bench = self._conftest()
        trend = tmp_path / "TREND.jsonl"
        trend.write_text('{"run": 0}')  # torn: no trailing newline
        monkeypatch.setattr(bench, "TREND_PATH", trend)
        bench.append_trend({"run": 1})
        lines = trend.read_text().splitlines()
        assert [json.loads(l)["run"] for l in lines] == [0, 1]
