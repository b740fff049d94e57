"""In-memory span tracing installed from outside the program.

The benchmark times each layer by wrapping public functions of the
``repro`` modules (see ``layers.py``); nothing under ``src/`` knows it
is being traced.  Two kinds of wrapper feed one :class:`Trace`:

* a **span** wrapper records one span per call: name, start, end,
  parent and run id.  It is for coarse boundaries (a world build, a
  pipeline step, an analysis report);
* an **aggregate** wrapper is for hot boundaries called up to millions
  of times (``Registry.register``, ``ProbeWorker.probe``,
  ``FeedServer.ingest``).  It keeps only a call count and a total time
  per ``(parent, name)``, so tracing them costs no memory per call.

A node's *self time* is its duration minus the durations of its
children (:func:`self_times`).  Everything runs on one thread, so the
children of a node never overlap one another and never outlive it, and
the self times of a whole tree add up to the duration of its root.

:class:`Patches` swaps the wrappers in and restores every original
attribute on exit, so an untraced run never carries a wrapper.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import resource
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence

perf_counter = time.perf_counter


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Trace:
    """Spans and aggregates of one traced run, kept in memory.

    Spans are lists ``[name, start, end, parent, id, extra]``; a parent
    is the id of a span or the key of an aggregate.  Aggregates map
    ``(parent, name)`` to ``[count, total_s, samples]``, where
    ``samples`` is a list of per-call durations or None.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[list] = []
        self.aggs: Dict[tuple, list] = {}
        self.stack: list = []

    def span_wrapper(self, name: str, fn: Callable,
                     resources: bool = False) -> Callable:
        """Wrap ``fn`` so each call records one span named ``name``.

        With ``resources``, the span also records the CPU time it used
        and how far it raised the process's peak RSS.
        """
        spans = self.spans
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else None,
                      len(spans), None]
            spans.append(record)
            stack.append(record[4])
            if resources:
                cpu0, rss0 = time.process_time(), _peak_rss_kb()
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
                if resources:
                    record[5] = {
                        "cpu_s": time.process_time() - cpu0,
                        "rss_growth_kb": _peak_rss_kb() - rss0}
        return wrapper

    def agg_wrapper(self, name: str, fn: Callable,
                    samples: bool = False) -> Callable:
        """Wrap ``fn`` so calls only add to a per-(parent, name) total.

        With ``samples``, every call's duration is kept as well, for a
        per-call percentile.
        """
        aggs = self.aggs
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (stack[-1] if stack else None, name)
            stack.append(key)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                slot = aggs.get(key)
                if slot is None:
                    slot = aggs[key] = [0, 0.0, [] if samples else None]
                slot[0] += 1
                slot[1] += elapsed
                if slot[2] is not None:
                    slot[2].append(elapsed)
        return wrapper

    def records(self) -> List[dict]:
        """Every span and aggregate as a plain record, ids resolved.

        Span ids are integers; aggregate ids are ``"a<n>"`` strings.
        """
        agg_ids = {key: f"a{i}" for i, key in enumerate(self.aggs)}

        def ref(parent):
            return agg_ids[parent] if isinstance(parent, tuple) else parent

        out: List[dict] = []
        for name, start, end, parent, span_id, extra in self.spans:
            record = {"kind": "span", "id": span_id, "name": name,
                      "start": start, "end": end, "parent": ref(parent),
                      "run": self.run_id}
            if extra:
                record.update(extra)
            out.append(record)
        for key, (count, total, samples) in self.aggs.items():
            record = {"kind": "agg", "id": agg_ids[key], "name": key[1],
                      "parent": ref(key[0]), "count": count,
                      "total_s": total, "run": self.run_id}
            if samples is not None:
                record["p99_s"] = percentile(sorted(samples), 99.0)
            out.append(record)
        return out


def write_jsonl(records: Iterable[dict], path) -> None:
    """Append records to ``path`` as JSON lines."""
    with open(path, "a", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


# -- self time -----------------------------------------------------------------


def duration(record: dict) -> float:
    if record["kind"] == "span":
        return record["end"] - record["start"]
    return record["total_s"]


def self_times(records: Sequence[dict]) -> Dict[object, float]:
    """Self time of every node: its duration minus its children's."""
    under: Dict[object, float] = {}
    for record in records:
        parent = record["parent"]
        if parent is not None:
            under[parent] = under.get(parent, 0.0) + duration(record)
    return {record["id"]: duration(record) - under.get(record["id"], 0.0)
            for record in records}


class LayerTotals:
    """Per-name sums over a trace: calls, wall (duration), self time."""

    def __init__(self, records: Sequence[dict]) -> None:
        selfs = self_times(records)
        self.calls: Dict[str, int] = {}
        self.wall: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.extra: Dict[str, dict] = {}
        for record in records:
            name = record["name"]
            count = record["count"] if record["kind"] == "agg" else 1
            self.calls[name] = self.calls.get(name, 0) + count
            self.wall[name] = self.wall.get(name, 0.0) + duration(record)
            self.self_s[name] = self.self_s.get(name, 0.0) \
                + selfs[record["id"]]
            extra = {k: v for k, v in record.items()
                     if k in ("cpu_s", "rss_growth_kb", "p99_s")}
            if extra:
                self.extra[name] = extra
        self.total_self_s = sum(selfs.values())


# -- percentiles ---------------------------------------------------------------

#: The percentiles a tail metric may report, highest first.
TAIL_LADDER = (99.0, 90.0, 50.0)
#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``p``."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(n: int) -> Optional[float]:
    """The highest percentile in :data:`TAIL_LADDER` with at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it, or None when even
    the lowest has fewer."""
    for p in TAIL_LADDER:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


# -- patching ------------------------------------------------------------------


class Patches:
    """Attribute replacements that are all undone together.

    ``replace(owner, attr, make)`` swaps ``owner.attr`` for
    ``make(original_function)``, keeping ``classmethod`` and
    ``staticmethod`` descriptors intact.  :meth:`restore` puts back the
    exact original objects (and deletes attributes that were inherited
    rather than defined on ``owner``).  Use as a context manager.
    """

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def replace(self, owner, attr: str,
                make: Callable[[Callable], Callable]) -> None:
        raw = inspect.getattr_static(owner, attr)
        defined_here = attr in vars(owner)
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        elif callable(raw):
            new = make(raw)
        else:
            raise TypeError(f"{owner!r}.{attr} is not a function")
        self._saved.append((owner, attr, raw, defined_here))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw, defined_here = self._saved.pop()
            if defined_here:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
