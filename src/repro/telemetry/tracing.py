"""Hierarchical span tracing on top of the metrics recorder.

The flat :class:`~repro.telemetry.recorder.MetricsRecorder` answers
"where did the seconds go in aggregate"; this module answers "what
happened, in order, inside *this* buffer" — the paper's per-stage
attribution (Figs. 14–15) at the granularity of a single compressed
buffer.  Three pieces:

* :class:`TracingRecorder` — a :class:`MetricsRecorder` that additionally
  collects **spans** (named, timed, parent/child-nested intervals) and
  **provenance records** (one structured record per compressed buffer:
  which method coded it, what ADP measured, how the entropy stage fanned
  out, raw vs. compressed bytes).  It installs into the same module-global
  recorder slot, so instrumentation points stay `get_recorder().span(...)`
  and the disabled cost stays one attribute lookup: the base
  :class:`~repro.telemetry.recorder.Recorder` (and plain
  ``MetricsRecorder``) return a shared no-op span handle.
* a context-local span stack (:mod:`contextvars`), so nesting works per
  thread and the writer's producer thread cannot corrupt another
  thread's ancestry.
* **cross-process propagation**: :meth:`TracingRecorder.export_token`
  captures the current span context as a picklable token; a worker
  process opens its root span with that token as parent
  (``span(..., parent=token)``) and ships its whole snapshot back, where
  :meth:`MetricsRecorder.merge` folds it in.  Worker spans therefore
  re-parent under the session span that dispatched them, even though the
  two processes never share a clock epoch (spans carry wall-aligned
  timestamps; see :data:`Span start time` below).

Span start times are ``epoch_wall + (perf_counter() - epoch_perf)``:
monotonic *within* a process (perf_counter never goes backwards) and
aligned *across* processes to within wall-clock skew, which is what the
Chrome trace-event export needs to lay session and worker tracks side by
side.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
import time

from .recorder import MetricsRecorder

#: Cap on retained finished spans (excess increments ``trace.spans_dropped``).
MAX_SPANS = 100_000
#: Cap on retained provenance records.
MAX_PROVENANCE = 100_000
#: Cap on attribute keys per span (excess keys are dropped, counted).
MAX_ATTRS = 24
#: Cap on one stringified attribute value.
MAX_ATTR_CHARS = 256

#: Context-local stack of *open* :class:`_SpanHandle` objects, innermost
#: last.  Module-level on purpose: contextvars must not be created per
#: instance, and a handle knows which tracer owns it.
_SPAN_STACK: contextvars.ContextVar[tuple] = contextvars.ContextVar(
    "mdz_span_stack", default=()
)

#: Process-wide span id sequence, shared by every recorder instance.  Ids
#: are ``{pid:x}-{n}``: the pid disambiguates across processes (a forked
#: worker inherits the counter position but not the pid), the shared
#: counter disambiguates across recorder *instances* in one process — a
#: job re-run inline after its pool is abandoned builds a fresh worker
#: recorder in the session process, and per-instance counters would make
#: its span ids collide with the session's after the sideband merge.
_ID_COUNTER = itertools.count(1)


def _clean_attr(value):
    """Coerce one attribute value to a bounded, JSON-serializable form.

    Scalars pass through; strings are truncated; shallow dicts (ADP trial
    sizes and the like) are cleaned one level deep; everything else is
    truncated ``repr``.
    """
    if value is None or isinstance(value, (bool, int, float)):
        return value
    if isinstance(value, str):
        if len(value) > MAX_ATTR_CHARS:
            return value[: MAX_ATTR_CHARS - 1] + "…"
        return value
    if isinstance(value, dict):
        return {
            str(k): v if isinstance(v, (bool, int, float, type(None))) else str(v)[:MAX_ATTR_CHARS]
            for k, v in itertools.islice(value.items(), MAX_ATTRS)
        }
    text = repr(value)
    if len(text) > MAX_ATTR_CHARS:
        text = text[: MAX_ATTR_CHARS - 1] + "…"
    return text


def _bounded_update(attrs: dict, extra: dict) -> None:
    """Merge ``extra`` into ``attrs`` respecting the attribute cap."""
    for key, value in extra.items():
        if len(attrs) >= MAX_ATTRS and key not in attrs:
            continue
        attrs[key] = _clean_attr(value)


class _SpanHandle:
    """One *open* span: a context manager pushed on the context stack.

    ``provenance=True`` marks this span as a provenance root: it opens a
    draft record seeded with its ancestors' attributes, collects
    :meth:`TracingRecorder.annotate` contributions from any layer below,
    and emits the finished record when it closes.  ``absorb=True`` makes
    the span swallow annotations instead (used around ADP trial encodes,
    whose losers must not pollute the buffer's provenance).
    """

    __slots__ = (
        "tracer",
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "provenance",
        "absorb",
        "draft",
        "_start_perf",
        "start",
        "_stack_token",
        "tid",
    )

    def __init__(self, tracer, name, parent_id, provenance, absorb, attrs):
        self.tracer = tracer
        self.name = name
        self.attrs = {}
        _bounded_update(self.attrs, attrs)
        self.span_id = tracer._next_span_id()
        self.parent_id = parent_id
        self.provenance = provenance
        self.absorb = absorb
        self.draft = None

    def __enter__(self) -> "_SpanHandle":
        stack = _SPAN_STACK.get()
        if self.parent_id is None and stack:
            self.parent_id = stack[-1].span_id
        if self.provenance:
            # Seed the draft with inherited context (dataset, axis, buffer
            # ids set by enclosing spans), outermost first so inner values
            # win, then this span's own attributes.
            draft = {}
            for handle in stack:
                _bounded_update(draft, handle.attrs)
            _bounded_update(draft, self.attrs)
            self.draft = draft
        self._stack_token = _SPAN_STACK.set(stack + (self,))
        self.tid = threading.get_ident()
        tracer = self.tracer
        self._start_perf = time.perf_counter()
        self.start = tracer._epoch_wall + (self._start_perf - tracer._epoch_perf)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._start_perf
        _SPAN_STACK.reset(self._stack_token)
        if exc_type is not None:
            _bounded_update(self.attrs, {"error": repr(exc)})
        self.tracer._finish(self, duration)
        return None

    def annotate(self, **attrs) -> None:
        """Merge attributes into this span (and its provenance draft)."""
        _bounded_update(self.attrs, attrs)
        if self.draft is not None:
            _bounded_update(self.draft, attrs)


class TracingRecorder(MetricsRecorder):
    """Metrics recorder that additionally collects spans and provenance.

    Drop-in for :class:`MetricsRecorder` everywhere (``mdz stats`` could
    run on it unchanged); the extra surface is:

    * :meth:`span` — open a nested, timed span (context manager);
    * :meth:`annotate` — attach attributes to the innermost provenance
      span from any layer below it (the Huffman stage reporting its
      fan-out, the quantizer its out-of-scope count, ...);
    * :meth:`export_token` — capture the current span context for a
      worker process;
    * ``snapshot()["spans"] / ["provenance"]`` — the collected data,
      JSON-serializable, mergeable across processes.
    """

    #: Instrumentation may check this instead of isinstance.
    tracing = True

    def __init__(
        self,
        max_spans: int = MAX_SPANS,
        max_provenance: int = MAX_PROVENANCE,
    ) -> None:
        super().__init__()
        self._spans: list[dict] = []
        self._provenance: list[dict] = []
        self._max_spans = int(max_spans)
        self._max_provenance = int(max_provenance)
        self._pid = os.getpid()
        self._epoch_wall = time.time()
        self._epoch_perf = time.perf_counter()

    # -- span API -------------------------------------------------------

    def span(
        self,
        name: str,
        parent: str | None = None,
        provenance: bool = False,
        absorb: bool = False,
        **attrs,
    ) -> _SpanHandle:
        """Open a span named ``name`` nested under the current one.

        ``parent`` overrides the implicit parent (the innermost open span
        in this context) with an explicit span id — the cross-process
        re-parenting hook.  See :class:`_SpanHandle` for ``provenance``
        and ``absorb``.
        """
        return _SpanHandle(self, name, parent, provenance, absorb, attrs)

    def annotate(self, **attrs) -> None:
        """Attach attributes to the innermost provenance (or any) span.

        Walks the context stack inside-out: an ``absorb`` span swallows
        the annotation (trial encodes), otherwise the innermost
        provenance-rooted span receives it; with no provenance span open
        the innermost span takes it; with no span open it is dropped.
        """
        stack = _SPAN_STACK.get()
        for handle in reversed(stack):
            if handle.absorb:
                _bounded_update(handle.attrs, attrs)
                return
            if handle.provenance:
                handle.annotate(**attrs)
                return
        if stack:
            stack[-1].annotate(**attrs)

    def export_token(self, **attrs) -> tuple[str | None, dict]:
        """Picklable span context for a worker: ``(parent_id, attrs)``.

        ``attrs`` extends the inherited context (all open spans' attrs,
        outermost first) — the writer adds the axis/buffer ids here so
        worker-side provenance still knows which chunk it describes.
        """
        stack = _SPAN_STACK.get()
        merged: dict = {}
        for handle in stack:
            _bounded_update(merged, handle.attrs)
        _bounded_update(merged, attrs)
        parent = stack[-1].span_id if stack else None
        return (parent, merged)

    # -- internals ------------------------------------------------------

    def _next_span_id(self) -> str:
        return f"{self._pid:x}-{next(_ID_COUNTER)}"

    def _finish(self, handle: _SpanHandle, duration: float) -> None:
        span = {
            "name": handle.name,
            "span_id": handle.span_id,
            "parent_id": handle.parent_id,
            "start": handle.start,
            "duration": duration,
            "pid": self._pid,
            "tid": handle.tid,
            "attrs": handle.attrs,
        }
        with self._lock:
            if len(self._spans) < self._max_spans:
                self._spans.append(span)
            else:
                self._counters["trace.spans_dropped"] = (
                    self._counters.get("trace.spans_dropped", 0) + 1
                )
            if handle.draft is not None:
                record = dict(handle.draft)
                record.update(
                    span_id=handle.span_id,
                    parent_id=handle.parent_id,
                    name=handle.name,
                    ts=handle.start,
                    duration=duration,
                    pid=self._pid,
                )
                self._add_provenance_locked(record)

    def _add_provenance_locked(self, record: dict) -> None:
        if len(self._provenance) < self._max_provenance:
            self._provenance.append(record)
        else:
            self._counters["trace.provenance_dropped"] = (
                self._counters.get("trace.provenance_dropped", 0) + 1
            )

    # -- snapshot / merge ----------------------------------------------

    def _snapshot_locked(self) -> dict:
        snap = super()._snapshot_locked()
        snap["spans"] = list(self._spans)
        snap["provenance"] = list(self._provenance)
        snap["trace"] = {"pid": self._pid, "epoch": self._epoch_wall}
        return snap

    def _merge_extra_locked(self, other: dict) -> None:
        for span in other.get("spans", ()):
            if len(self._spans) < self._max_spans:
                self._spans.append(span)
            else:
                self._counters["trace.spans_dropped"] = (
                    self._counters.get("trace.spans_dropped", 0) + 1
                )
        for record in other.get("provenance", ()):
            self._add_provenance_locked(record)

    def _reset_extra_locked(self) -> None:
        self._spans.clear()
        self._provenance.clear()


def current_span_id() -> str | None:
    """Span id of the innermost open span in this context (or ``None``)."""
    stack = _SPAN_STACK.get()
    return stack[-1].span_id if stack else None
