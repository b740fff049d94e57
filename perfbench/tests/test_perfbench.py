"""Tests for the benchmark's own code: self time, the tail-percentile
rule, the serve oracle, metric names and wrapper removal."""

import importlib
import inspect
import re
import time
from collections import namedtuple

import pytest

import job
import layers
import serveload
from tracing import (LayerTotals, Patches, Trace, percentile, self_times,
                     tail_percentile)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def span(id_, name, start, end, parent=None):
    return {"kind": "span", "id": id_, "name": name, "start": start,
            "end": end, "parent": parent, "run": "t"}


def agg(id_, name, total, parent, count=1):
    return {"kind": "agg", "id": id_, "name": name, "total_s": total,
            "count": count, "parent": parent, "run": "t"}


def test_self_time_on_synthetic_tree():
    records = [
        span(0, "root", 0.0, 10.0),
        span(1, "a", 1.0, 4.0, parent=0),
        span(2, "b", 4.5, 6.0, parent=0),
        agg("a0", "hot", 1.0, parent=0, count=1000),
        agg("a1", "hot", 0.5, parent=1, count=10),
        agg("a2", "inner", 0.2, parent="a0"),
    ]
    selfs = self_times(records)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.5 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 0.5)
    assert selfs[2] == pytest.approx(1.5)
    assert selfs["a0"] == pytest.approx(0.8)
    assert selfs["a2"] == pytest.approx(0.2)
    assert sum(selfs.values()) == pytest.approx(10.0)
    totals = LayerTotals(records)
    assert totals.calls["hot"] == 1010
    assert totals.self_s["hot"] == pytest.approx(0.8 + 0.5)
    assert totals.wall["hot"] == pytest.approx(1.5)


def test_self_times_of_a_recorded_tree_sum_to_its_root():
    trace = Trace("t")

    def leaf():
        return sum(range(1000))

    hot = trace.agg_wrapper("hot", leaf)
    mid = trace.span_wrapper("mid", lambda: [hot() for _ in range(50)])
    root = trace.span_wrapper("root", lambda: [mid() for _ in range(3)])
    root()
    records = trace.records()
    totals = LayerTotals(records)
    assert totals.calls == {"root": 1, "mid": 3, "hot": 150}
    assert totals.total_self_s == pytest.approx(totals.wall["root"])


@pytest.mark.parametrize("n, expected", [
    (1000, 99.0), (999, 90.0), (100, 90.0), (99, 50.0), (20, 50.0),
    (19, None), (0, None)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 99.0) == 99
    assert percentile([7.0], 99.0) == 7.0


Rec = namedtuple("Rec", "domain tld source")


def test_serve_oracle_hand_computed():
    ordered = [Rec("shop1.com", "com", "ct"),
               Rec("a.xyz", "xyz", "zonefile"),
               Rec("myshop.xyz", "xyz", "ct"),
               Rec("b.com", "com", "zonefile")]
    clients = [
        {"id": "fire", "tlds": [], "sources": [], "glob": None},
        {"id": "xyz", "tlds": ["xyz"], "sources": [], "glob": None},
        {"id": "shop", "tlds": [], "sources": [], "glob": "*shop*"},
        {"id": "ct", "tlds": [], "sources": ["ct"], "glob": None},
    ]
    expected = serveload.expected_deliveries(clients, ordered)
    assert expected == {"fire": [0, 1, 2, 3], "xyz": [1, 2],
                        "shop": [0, 2], "ct": [0, 2]}
    assert serveload.score([0, 1, 2, 3], [0, 1, 2, 3]) == (4, 0, 0)
    # One queue-full drop: delivered in order, one missing.
    assert serveload.score([0, 1, 2, 3], [0, 2, 3]) == (3, 1, 0)
    # Out of order and a record the filter rejects.
    assert serveload.score([0, 2], [2, 0]) == (1, 1, 1)
    assert serveload.score([1, 2], [1, 3, 2]) == (2, 0, 1)


def test_serve_inputs_are_seeded():
    assert serveload.make_records(3, 300) == serveload.make_records(3, 300)
    assert serveload.make_records(3, 300) != serveload.make_records(4, 300)
    clients = serveload.make_clients(3, 100)
    assert clients == serveload.make_clients(3, 100)
    assert sum(1 for c in clients if c["sources"] == ["ct"]) == 15
    assert sum(1 for c in clients if c["tier"] == "premium") == 20
    records = serveload.make_records(3, 2000)
    assert {r["source"] for r in records} == {"ct"}
    first = {}
    for r in records:
        first.setdefault(r["domain"], r["seen_at"])
    assert 0.1 < 1 - len(first) / len(records) < 0.15
    assert all(r["seen_at"] >= first[r["domain"]] for r in records)


def test_metric_names_are_well_formed():
    spec = layers.spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == set(job.WORKLOADS)


def test_layer_metrics_report_every_per_layer_name():
    totals = LayerTotals([span(0, "job.x", 0.0, 1.0)])
    metrics = layers.layer_metrics(totals, {}, 0.0, "job.x")
    declared = {m["name"] for m in layers.spec()["per_layer"]}
    assert set(metrics) == declared - set(layers.FROM_UNTRACED)


def test_crosscheck_fails_a_silent_wrapper_and_a_wide_gap():
    phases = {"build.world": {"wall_sec": 2.0},
              "pipeline.ct_detect": {"wall_sec": 1.0},
              "pipeline.validate": {"wall_sec": 0.5}}
    good = LayerTotals([span(0, "workload.build_world", 0.0, 2.01),
                        span(1, "core.ct_detect", 3.0, 4.0),
                        span(2, "core.validate", 5.0, 5.5)])
    assert layers.crosscheck(good, phases)[0] == 3
    assert layers.crosscheck(good, phases)[2] == []
    # core.validate stopped firing; core.ct_detect reads 20 % long.
    bad = LayerTotals([span(0, "workload.build_world", 0.0, 2.0),
                       span(1, "core.ct_detect", 3.0, 4.2)])
    checked, max_gap, problems = layers.crosscheck(bad, phases)
    assert checked == 3 and max_gap == pytest.approx(1.0)
    assert len(problems) == 2
    assert any("core.validate saw no call" in p for p in problems)
    assert any("core.ct_detect" in p for p in problems)


class Base:
    def inherited(self):
        return "base"


class Target(Base):
    def method(self, x):
        return x + 1

    @classmethod
    def make(cls):
        return cls

    @staticmethod
    def helper(x):
        return x * 2


def test_patches_restore_exact_originals():
    originals = {attr: inspect.getattr_static(Target, attr)
                 for attr in ("method", "make", "helper")}
    trace = Trace("t")
    with Patches() as patches:
        for attr in ("method", "make", "helper", "inherited"):
            patches.replace(Target, attr,
                            lambda fn: trace.agg_wrapper("t." + fn.__name__,
                                                         fn))
        obj = Target()
        assert (obj.method(1), Target.make(), Target.helper(2),
                obj.inherited()) == (2, Target, 4, "base")
        assert {k[1]: v[0] for k, v in trace.aggs.items()} == {
            "t.method": 1, "t.make": 1, "t.helper": 1, "t.inherited": 1}
    for attr, raw in originals.items():
        assert inspect.getattr_static(Target, attr) is raw
    assert "inherited" not in vars(Target)


def _target_attrs():
    for module_name, owner_name, attrs, *_rest in layers.TARGETS:
        owner = importlib.import_module(module_name)
        if owner_name is not None:
            owner = getattr(owner, owner_name)
        for attr in attrs:
            yield owner, attr


def test_every_layer_wrapper_is_removed():
    before = {(id(o), a): inspect.getattr_static(o, a)
              for o, a in _target_attrs()}
    patches = Patches()
    layers.install(Trace("t"), patches)
    assert all(inspect.getattr_static(o, a) is not before[(id(o), a)]
               for o, a in _target_attrs())
    patches.restore()
    assert all(inspect.getattr_static(o, a) is before[(id(o), a)]
               for o, a in _target_attrs())


@pytest.mark.parametrize("traced", [False, True])
def test_small_serve_job_checks_out_and_leaves_no_wrapper(tmp_path, traced):
    serveload.write_inputs(5, 400, 8, job.archive_path(tmp_path),
                           job.clients_path(tmp_path))
    before = {(id(o), a): inspect.getattr_static(o, a)
              for o, a in _target_attrs()}
    spans = tmp_path / "spans.jsonl"
    result = job.run_once("serve", 5, time.perf_counter(), tmp_path,
                          traced, spans, "test")
    assert result["problems"] == []
    assert result["failed"] == 0 and result["attempted"] > 400
    assert result["fidelity_ok"] == 8
    assert result["deliver"]["samples"] > 0
    assert all(inspect.getattr_static(o, a) is before[(id(o), a)]
               for o, a in _target_attrs())
    if traced:
        assert result["layers"]["serve.ingest.calls"] == 400
        assert spans.read_text().count("\n") > 3
        assert result["layers"]["trace.self_sum_s"] == \
            pytest.approx(result["wall_s"], rel=0.05)
    else:
        assert "layers" not in result and not spans.exists()
