"""Live build progress: pull gauges and the heartbeat reporter.

A scale=1 world build runs ≈17 minutes; until now it ran in silence.
This module gives long runs a pulse, in two parts:

* :class:`BuildProgress` — a registry provider (group ``"progress"``)
  of *pull* gauges: ``registrations`` (how many registrations the
  build has materialised so far, fed live by the scenario layer),
  ``shards_done``/``shards_total`` (completed ``(tld, month)`` build
  shards) and ``rss_kb`` (current — not high-water — process RSS, read from
  ``/proc/self/statm`` where available).  Pull-based means nothing is
  pushed on the build hot path: the gauges evaluate their sources only
  when something (the heartbeat, an exposition snapshot) reads them.
* :class:`Heartbeat` — a daemon thread that renders one status line
  every ``interval`` seconds (default 10): the innermost active span
  phase (with labels, so the line shows *which* TLD is populating),
  the progress gauges, and elapsed wall time.  The CLI starts it only
  on a TTY and never under ``--quiet``; it is off by default
  everywhere else, so CI logs and redirected output stay clean.

Like the rest of ``repro.obs``: stdlib-only, no RNG, read-only — the
heartbeat can never perturb a sampled value.
"""

from __future__ import annotations

import os
import resource
import sys
import threading
import time
from typing import Callable, Optional, TextIO

from repro.obs.metrics import Gauge, get_registry
from repro.obs.spans import tracer

__all__ = ["BuildProgress", "Heartbeat", "build_progress",
           "current_rss_kb"]

_PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024 if hasattr(os, "sysconf") else 4


def current_rss_kb() -> int:
    """Current (not high-water) resident set size in KiB.

    Reads ``/proc/self/statm`` on Linux; falls back to the
    ``ru_maxrss`` high-water mark where /proc is unavailable.
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            return int(handle.read().split()[1]) * _PAGE_KB
    except (OSError, ValueError, IndexError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class BuildProgress:
    """Pull-gauge provider for live build state (registry group
    ``"progress"``).

    The scenario layer points :meth:`set_registrations_source` at the
    build's live stats dict and clears it when the build returns.  Between builds the gauge reads 0.

    :meth:`set_shards_source` is the shard-completion analogue for the
    per-``(tld, month)`` build: a source returning ``(done, total)``
    shard counts, rendered by the heartbeat as ``shards=done/total``.
    """

    def __init__(self) -> None:
        self.registrations = Gauge(
            "registrations", "registrations materialised by the "
                             "in-flight build")
        self.rss = Gauge("rss_kb", "current process RSS")
        self.rss.set_function(current_rss_kb)
        self.shards_done = Gauge(
            "shards_done", "build shards fully populated so far")
        self.shards_total = Gauge(
            "shards_total", "build shards of the in-flight build")
        self._source: Optional[Callable[[], int]] = None
        self._shards_source: Optional[Callable[[], tuple]] = None
        self.registrations.set_function(self._read)
        self.shards_done.set_function(lambda: self._read_shards()[0])
        self.shards_total.set_function(lambda: self._read_shards()[1])

    def _read(self) -> int:
        source = self._source
        try:
            return int(source()) if source is not None else 0
        except Exception:           # a dying source must not kill telemetry
            return 0

    def _read_shards(self) -> tuple:
        source = self._shards_source
        try:
            if source is not None:
                done, total = source()
                return int(done), int(total)
        except Exception:           # a dying source must not kill telemetry
            pass
        return 0, 0

    def set_registrations_source(self, fn: Callable[[], int]) -> None:
        self._source = fn

    def set_shards_source(self, fn: Callable[[], tuple]) -> None:
        self._shards_source = fn

    def clear(self) -> None:
        self._source = None
        self._shards_source = None

    # -- provider protocol ----------------------------------------------------

    def snapshot(self) -> dict:
        done, total = self._read_shards()
        return {"registrations": int(self.registrations.value),
                "rss_kb": int(self.rss.value),
                "shards_done": done, "shards_total": total}

    def metrics(self):
        return (self.registrations, self.rss, self.shards_done,
                self.shards_total)


#: The process provider, registered as the registry's "progress" group.
_PROGRESS = BuildProgress()
get_registry().register("progress", _PROGRESS)


def build_progress() -> BuildProgress:
    """The process-wide build-progress provider."""
    return _PROGRESS


def _fmt_count(value: float) -> str:
    return f"{int(value):,}"


def _fmt_rss(kb: float) -> str:
    if kb >= 1024 * 1024:
        return f"{kb / 1024 / 1024:.1f}GB"
    return f"{kb / 1024:.0f}MB"


class Heartbeat:
    """Periodic one-line progress reporter for long builds.

    Args:
        interval: seconds between lines (default 10).
        stream: output target; None resolves ``sys.stderr`` at write
            time.
        clock: injectable monotonic time source (tests pin it).

    :meth:`render_line` is the pure part (and the tested one): it pulls
    the active phase from the process tracer and the gauges from the
    registry's ``progress`` group and formats one line.  The thread
    merely calls it on a timer.
    """

    def __init__(self, interval: float = 10.0,
                 stream: Optional[TextIO] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self._stream = stream
        self._clock = clock
        self._t0 = clock()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.lines = 0

    @staticmethod
    def wanted(stream: Optional[TextIO] = None, quiet: bool = False) -> bool:
        """The CLI activation rule: TTY stderr, and never under quiet."""
        if quiet:
            return False
        stream = stream if stream is not None else sys.stderr
        return bool(getattr(stream, "isatty", lambda: False)())

    # -- rendering ------------------------------------------------------------

    def render_line(self) -> str:
        elapsed = int(self._clock() - self._t0)
        current = tracer().current_span()
        if current is None:
            phase = "idle"
        elif current.labels:
            inner = ",".join(f"{k}={v}" for k, v in
                             sorted(current.labels.items()))
            phase = f"{current.name}{{{inner}}}"
        else:
            phase = current.name
        parts = [f"[{elapsed // 60:d}:{elapsed % 60:02d}]", phase]
        provider = get_registry().group("progress")
        if provider is not None:
            snap = provider.snapshot()
            regs = snap.get("registrations", 0)
            if regs:
                parts.append(f"regs={_fmt_count(regs)}")
            total = snap.get("shards_total", 0)
            if total:
                parts.append(f"shards={snap.get('shards_done', 0)}/{total}")
            parts.append(f"rss={_fmt_rss(snap.get('rss_kb', 0))}")
        return " ".join(parts)

    # -- lifecycle ------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "Heartbeat":
        """Start the reporter thread (no-op if already running)."""
        if self.running:
            return self
        self._stop.clear()
        self._t0 = self._clock()
        self._thread = threading.Thread(
            target=self._run, name="repro-heartbeat", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> "Heartbeat":
        """Stop the reporter (no-op if not running)."""
        thread = self._thread
        if thread is None:
            return self
        self._stop.set()
        thread.join()
        self._thread = None
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._write_line()

    def _write_line(self) -> None:
        stream = self._stream if self._stream is not None else sys.stderr
        try:
            stream.write(self.render_line() + "\n")
            stream.flush()
        except ValueError:          # stream closed mid-run (interpreter exit)
            return
        self.lines += 1
