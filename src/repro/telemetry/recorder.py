"""Recorder implementations: the no-op default and the metrics collector.

Two recorders implement the same small surface (see the package docstring
for the metric taxonomy):

* :class:`NullRecorder` — every method is a no-op and ``timer`` returns a
  shared do-nothing context manager, so an instrumented hot path costs one
  attribute lookup and one call when telemetry is off (the default);
* :class:`MetricsRecorder` — accumulates counters, gauges, stage timers,
  and a bounded event log under a lock, and serializes the whole state
  with :meth:`MetricsRecorder.snapshot`.

The active recorder is a module-level slot manipulated with
:func:`set_recorder` / :func:`recording`; instrumented code fetches it per
operation via :func:`get_recorder`, so enabling telemetry never requires
re-plumbing constructor arguments through the pipeline layers.
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import defaultdict, deque

from .histogram import Histogram
from .timeseries import RollingWindows

#: Cap on the retained event log (oldest entries are dropped beyond it).
MAX_EVENTS = 256

#: Cap on one event's detail string.  Executor failure paths record
#: ``repr(exc)``, which can embed a full array repr; truncating at the
#: recorder keeps the bounded event log (and ``--metrics-json`` output)
#: bounded in *bytes*, not just entries.
MAX_EVENT_DETAIL = 512

__all__ = [
    "MAX_EVENTS",
    "MAX_EVENT_DETAIL",
    "MetricsRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "Recorder",
    "get_recorder",
    "recording",
    "set_recorder",
]


class _NullTimer:
    """Reusable do-nothing context manager for the disabled hot path."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_TIMER = _NullTimer()


class _NullSpan:
    """Do-nothing span handle: the disabled tracing hot path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def annotate(self, **attrs) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Recorder:
    """The recorder protocol: counters, gauges, timers, events.

    The base class *is* the no-op implementation — subclasses override
    whatever they collect.  Metric names are dotted paths grouped by
    subsystem (``sz.huffman.encode``, ``stream.executor.dispatched``);
    the convention keeps :meth:`snapshot` output self-organizing.
    """

    #: True when this recorder actually stores anything.  Instrumented
    #: code may use it to skip building expensive metric inputs.
    enabled: bool = False

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``name`` (monotonic within a run)."""

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to its latest observed ``value``."""

    def timer(self, name: str):
        """Context manager timing one stage run under ``name``."""
        return _NULL_TIMER

    def observe(self, name: str, seconds: float) -> None:
        """Fold one externally measured interval into timer ``name``."""

    def event(self, name: str, detail: str = "") -> None:
        """Record a discrete noteworthy occurrence (error, fallback)."""

    # -- tracing surface (collected only by TracingRecorder) ------------

    def span(self, name: str, **kwargs):
        """Context manager opening a nested trace span under ``name``."""
        return _NULL_SPAN

    def annotate(self, **attrs) -> None:
        """Attach attributes to the innermost provenance span, if any."""

    def export_token(self, **attrs):
        """Picklable span context for a worker process (``None`` = off)."""
        return None

    def snapshot(self) -> dict:
        """Serializable view of everything recorded so far."""
        return {"enabled": False, "counters": {}, "gauges": {}, "timers": {}, "events": []}


class NullRecorder(Recorder):
    """The default recorder: records nothing, costs (almost) nothing."""


#: Shared no-op instance installed by default.
NULL_RECORDER = NullRecorder()


class _StageTimer:
    """Context manager feeding one monotonic-clock interval to a recorder."""

    __slots__ = ("_recorder", "_name", "_start")

    def __init__(self, recorder: "MetricsRecorder", name: str) -> None:
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> "_StageTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._recorder.observe(
            self._name, time.perf_counter() - self._start
        )
        return None


class MetricsRecorder(Recorder):
    """In-memory metrics collector with a dict :meth:`snapshot`.

    Thread-safe: the streaming writer's producer thread and any analysis
    thread reading :meth:`snapshot` mid-run see consistent totals.  A
    snapshot is plain dicts, so it is JSON-serializable as-is.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        #: name -> monotonic time of the gauge's last update, so a stale
        #: gauge (last value before all sessions closed, say) is
        #: distinguishable from a live one.
        self._gauge_updated: dict[str, float] = {}
        self._timers: defaultdict[str, Histogram] = defaultdict(Histogram)
        self._events: deque[dict] = deque(maxlen=MAX_EVENTS)
        self._windows = RollingWindows()

    # -- recording ------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(n)
            self._windows.note_count(name, n)

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)
            self._gauge_updated[name] = time.monotonic()

    def timer(self, name: str) -> _StageTimer:
        return _StageTimer(self, name)

    def observe(self, name: str, seconds: float) -> None:
        """Fold one timed interval into the stage timer ``name``."""
        seconds = float(seconds)
        with self._lock:
            self._timers[name].observe(seconds)
            self._windows.note_observe(name, seconds)

    def event(self, name: str, detail: str = "") -> None:
        detail = str(detail)
        if len(detail) > MAX_EVENT_DETAIL:
            detail = detail[: MAX_EVENT_DETAIL - 1] + "…"
        with self._lock:
            self._events.append({"name": name, "detail": detail})
            self._counters[f"events.{name}"] = (
                self._counters.get(f"events.{name}", 0) + 1
            )
            self._windows.note_count(f"events.{name}")

    # -- reading --------------------------------------------------------

    def counter(self, name: str) -> int:
        """Current value of one counter (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def counters(self) -> dict[str, int]:
        """A copy of every counter, without building a :meth:`snapshot`."""
        with self._lock:
            return dict(self._counters)

    def stage_seconds(self, name: str) -> float:
        """Total seconds accumulated under one stage timer."""
        with self._lock:
            hist = self._timers.get(name)
            return 0.0 if hist is None else hist.seconds

    def snapshot(self) -> dict:
        """Everything recorded so far, as a JSON-serializable dict."""
        with self._lock:
            return self._snapshot_locked()

    def _snapshot_locked(self) -> dict:
        now = time.monotonic()
        return {
            "enabled": True,
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "gauge_age_seconds": {
                name: max(0.0, now - self._gauge_updated.get(name, now))
                for name in sorted(self._gauges)
            },
            "timers": {
                name: hist.to_json()
                for name, hist in sorted(self._timers.items())
            },
            "events": list(self._events),
            "windows": self._windows.snapshot(),
        }

    def merge(self, other: dict) -> None:
        """Fold another recorder's :meth:`snapshot` into this one.

        Counters and timers add; gauges take the other side's value
        (it is newer); events append.  Used to aggregate worker-side
        snapshots into the session recorder.  The whole fold happens
        under one lock acquisition, so a concurrent :meth:`snapshot`
        sees either none or all of the other recorder's aggregates —
        never a torn state with counters folded but timers pending.
        """
        now = time.monotonic()
        ages = other.get("gauge_age_seconds", {})
        with self._lock:
            for name, n in other.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + int(n)
                self._windows.note_count(name, n)
            for name, value in other.get("gauges", {}).items():
                self._gauges[name] = float(value)
                self._gauge_updated[name] = now - float(ages.get(name, 0.0))
            for name, view in other.get("timers", {}).items():
                hist = Histogram.from_json(view)
                self._timers[name].merge(hist)
                self._windows.note_timer(name, hist)
            self._events.extend(other.get("events", ()))
            self._merge_extra_locked(other)

    def _merge_extra_locked(self, other: dict) -> None:
        """Hook for subclasses folding extra snapshot sections (called
        under the merge lock)."""

    def reset(self) -> None:
        """Drop everything recorded so far."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._gauge_updated.clear()
            self._timers.clear()
            self._events.clear()
            self._windows = RollingWindows()
            self._reset_extra_locked()

    def _reset_extra_locked(self) -> None:
        """Hook for subclasses clearing extra state (under the lock)."""


# -- the active recorder slot -------------------------------------------
#
# Two layers: a context-local slot (a ContextVar, so concurrent asyncio
# tasks — e.g. two tenants of the HTTP service — each see their own
# recorder without clobbering each other) over a process-global fallback
# slot (what worker processes and plain scripts use).  ``recording()``
# scopes install into the context-local layer; ``set_recorder`` writes
# the global fallback.  Synchronous single-threaded code cannot tell the
# difference: within one context the ContextVar behaves like a global.

_active: Recorder = NULL_RECORDER
_active_lock = threading.Lock()

_active_var: contextvars.ContextVar[Recorder | None] = contextvars.ContextVar(
    "repro_active_recorder", default=None
)


def get_recorder() -> Recorder:
    """The currently active recorder (the no-op one by default).

    Resolution order: the context-local slot set by :func:`recording`,
    then the process-global slot set by :func:`set_recorder`.
    """
    recorder = _active_var.get()
    return recorder if recorder is not None else _active


def set_recorder(recorder: Recorder | None) -> Recorder:
    """Install ``recorder`` (``None`` = disable); returns the previous one.

    Writes the process-global fallback slot; a context-local recorder
    installed by :func:`recording` still wins inside its scope.
    """
    global _active
    with _active_lock:
        previous = _active
        _active = recorder if recorder is not None else NULL_RECORDER
    return previous


def recording(recorder: MetricsRecorder | None = None):
    """Context manager: install a recorder for the enclosed block.

    The recorder is installed in the *context-local* slot, so two
    concurrent asyncio tasks (or ``contextvars``-propagating threads,
    e.g. ``asyncio.to_thread``) can each hold their own scope without
    seeing each other's metrics.

    >>> from repro.telemetry import recording
    >>> with recording() as rec:
    ...     ...  # compress something
    >>> rec.snapshot()["counters"]  # doctest: +SKIP
    """
    return _Recording(recorder)


class _Recording:
    __slots__ = ("_recorder", "_token")

    def __init__(self, recorder: MetricsRecorder | None) -> None:
        self._recorder = recorder if recorder is not None else MetricsRecorder()

    def __enter__(self) -> MetricsRecorder:
        self._token = _active_var.set(self._recorder)
        return self._recorder

    def __exit__(self, exc_type, exc, tb) -> None:
        _active_var.reset(self._token)
        return None
