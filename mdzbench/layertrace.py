"""Outside-in layer tracing for the MDZ benchmark.

The benchmark never edits the program to trace it.  Instead,
:class:`LayerTracer` replaces the public entry point of each layer with
a thin wrapper, at the place the caller looks the name up (a function
imported with ``from x import f`` has to be patched in the importing
module, not in ``x``).  Each wrapper records one span — name, start,
end and the span that was open when it began — in memory.  Spans nest
through a :class:`contextvars.ContextVar`, so work handed to a thread by
``asyncio.to_thread`` is parented under the request that caused it.

Self time is a span's duration minus the time covered by its direct
children, so a layer's number excludes the layers it calls.  Worker
processes forked from a traced parent inherit the wrappers; those calls
pass straight through, because the parent cannot see the child's spans
(the executor metrics report how long the parent waited instead).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import os
import time
from collections import defaultdict

#: ADP members, in wire-id order.
MEMBERS = ("vq", "vqt", "mt", "interp", "bitadaptive")
MEMBER_OPS = ("prepare", "serialize", "estimate", "decode")

_PAUSED = contextvars.ContextVar("mdzbench_paused", default=False)


@contextlib.contextmanager
def paused():
    """Record no spans inside this block (for a workload's own checks)."""
    token = _PAUSED.set(True)
    try:
        yield
    finally:
        _PAUSED.reset(token)


def _member_span(op):
    return lambda args: f"member.{args[0].name}.{op}"


def _trial_span(args):
    # ADPSelector.encode runs a multi-way trial only when one is due;
    # the other calls are the cheap single-member path.
    return "adaptive.trial" if args[0].trial_due() else None


def _submit_span(args):
    return "executor.submit" if args[0].parallel else "executor.submit_inline"


def _symbols(args, kwargs, result):
    values = args[0] if args else kwargs["values"]
    return (("huffman.symbols", int(getattr(values, "size", len(values)))),)


def _lossless_bytes(args, kwargs, result):
    data = args[0] if args else kwargs["data"]
    return (("lossless.bytes_in", len(data)), ("lossless.bytes_out", len(result)))


def patch_plan():
    """Every (owner, attribute, span name, counter hook) the tracer wraps.

    Imported lazily so importing this module does not import the program.
    """
    from repro.core import adaptive, interp, levels, mdz, mt, vq, vqt
    from repro.io import container
    from repro.service.sessions import SessionManager
    from repro.stream.executor import ParallelExecutor
    from repro.stream.reader import StreamingReader
    from repro.stream.writer import StreamingWriter
    from repro.sz import bitpack, huffman, pipeline, stages
    from repro.telemetry.quality import QualityAuditor

    plan = [
        (levels, "detect_levels", "cluster.fit", None),
        (adaptive.ADPSelector, "encode", _trial_span, None),
        (mdz.MDZAxisCompressor, "compress_batch", "mdz.compress_batch", None),
        (mdz.MDZAxisCompressor, "decompress_batch", "mdz.decompress_batch", None),
        (huffman.HuffmanCodec, "encode", "huffman.encode", _symbols),
        (huffman.HuffmanCodec, "decode", "huffman.decode", None),
        (vq, "estimate_encoded_bytes", "huffman.estimate", None),
        (pipeline, "estimate_encoded_bytes", "huffman.estimate", None),
        (mdz, "lossless_compress", "lossless.compress", _lossless_bytes),
        (adaptive, "lossless_compress", "lossless.compress", _lossless_bytes),
        (mdz, "lossless_decompress", "lossless.decompress", None),
        # The bitpack encoder is reached through a lambda that reads the
        # module attribute; its decoder was bound into the namespace.
        (bitpack, "bitpack_encode", "bitpack.encode", None),
        (stages.BITPACK, "decode", "bitpack.decode", None),
        (StreamingWriter, "feed", "writer.feed", None),
        (StreamingWriter, "close", "writer.close", None),
        (QualityAuditor, "audit", "quality.audit", None),
        (ParallelExecutor, "submit", _submit_span, None),
        (ParallelExecutor, "_resolve", "executor.wait", None),
        (StreamingReader, "__init__", "reader.open", None),
        (StreamingReader, "read_buffer", "reader.read_buffer", None),
        (StreamingReader, "read_all", "reader.read_all", None),
        (container, "write_container", "container.write", None),
        (container, "read_container", "container.read", None),
        (container, "read_container_batch", "container.read_batch", None),
        (SessionManager, "feed", "service.handler", None),
        (SessionManager, "close", "service.handler", None),
    ]
    # BitAdaptiveMethod inherits MT's methods; the span takes the
    # member's name from ``self.name``, so both are attributed apart.
    for cls in (vq.VQMethod, vqt.VQTMethod, mt.MTMethod, interp.InterpMethod):
        for op in MEMBER_OPS:
            plan.append((cls, op, _member_span(op), None))
    return plan


class LayerTracer:
    """Installs span-recording wrappers and turns spans into metrics."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("mdzbench_span", default=0)
        self._owner = os.getpid()
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name, count in patch_plan():
            raw = (
                owner.__dict__[attr]
                if isinstance(owner, type)
                else getattr(owner, attr)
            )
            self._saved.append((owner, attr, raw))
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(self._wrap(raw.__func__, name, count)))
            else:
                setattr(owner, attr, self._wrap(raw, name, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, fn, name, count):
        tracer = self
        name_of = name if callable(name) else (lambda args: name)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span = name_of(args)
                parent = tracer._current.get()
                sid = next(tracer._ids)
                token = tracer._current.set(sid)
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    tracer._current.reset(token)
                    tracer.spans.append((sid, parent, span, start, end))

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._owner or _PAUSED.get():
                return fn(*args, **kwargs)
            span = name_of(args)
            if span is None:
                return fn(*args, **kwargs)
            parent = tracer._current.get()
            sid = next(tracer._ids)
            token = tracer._current.set(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._current.reset(token)
                tracer.spans.append((sid, parent, span, start, end))
            if count is not None:
                for key, value in count(args, kwargs, result):
                    tracer.counters[key] += value
            return result

        return wrapper

    # -- analysis -------------------------------------------------------

    def by_name(self):
        """``(calls, total seconds, self seconds)`` per span name, plus the
        number of member serializes made inside ADP trials."""
        parents = {}
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, name, start, end in self.spans:
            parents[sid] = (parent, name)
            child_time[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        trial_serializes = 0
        for sid, parent, name, start, end in self.spans:
            total[name] += end - start
            self_time[name] += end - start - child_time[sid]
            calls[name] += 1
            if name.endswith(".serialize") and _inside(parents, parent, "adaptive.trial"):
                trial_serializes += 1
        return calls, total, self_time, trial_serializes

    def layer_metrics(
        self,
        iterations: int,
        overhead_pct: float,
        client_handler_s: float = 0.0,
    ) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per traced workload iteration.

        ``client_handler_s`` is the client-observed latency summed over
        the requests whose server side is a ``service.handler`` span.
        """
        calls, total, self_time, trial_serializes = self.by_name()

        n = max(iterations, 1)
        out: dict[str, tuple[float, str]] = {}

        def per_iter(metric, value, unit):
            out[metric] = (value / n, unit)

        per_iter("cluster.fit_s", self_time["cluster.fit"], "s")
        per_iter("cluster.fit_calls", calls["cluster.fit"], "count")
        per_iter("adaptive.trial_s", self_time["adaptive.trial"], "s")
        per_iter("adaptive.trials", calls["adaptive.trial"], "count")
        out["adaptive.winner_share"] = (
            calls["adaptive.trial"] / trial_serializes if trial_serializes else 0.0,
            "ratio",
        )
        for member in MEMBERS:
            for op in MEMBER_OPS:
                span = f"member.{member}.{op}"
                per_iter(f"{span}_s", self_time[span], "s")
                per_iter(f"{span}_calls", calls[span], "count")
        for layer, ops in (
            ("huffman", ("encode", "decode", "estimate")),
            ("lossless", ("compress", "decompress")),
            ("bitpack", ("encode", "decode")),
        ):
            for op in ops:
                per_iter(f"{layer}.{op}_s", self_time[f"{layer}.{op}"], "s")
        per_iter("huffman.symbols", self.counters["huffman.symbols"], "count")
        per_iter("lossless.bytes_in", self.counters["lossless.bytes_in"], "B")
        per_iter("lossless.bytes_out", self.counters["lossless.bytes_out"], "B")
        per_iter("mdz.compress_batch_s", self_time["mdz.compress_batch"], "s")
        per_iter("mdz.compress_batch_calls", calls["mdz.compress_batch"], "count")
        per_iter("mdz.decompress_batch_s", self_time["mdz.decompress_batch"], "s")
        batch_total = total["mdz.compress_batch"]
        out["mdz.unattributed_share"] = (
            self_time["mdz.compress_batch"] / batch_total if batch_total else 0.0,
            "ratio",
        )
        per_iter("writer.feed_s", self_time["writer.feed"], "s")
        per_iter("writer.close_s", self_time["writer.close"], "s")
        per_iter("quality.audit_s", self_time["quality.audit"], "s")
        per_iter("quality.audits", calls["quality.audit"], "count")
        per_iter(
            "executor.submit_s",
            self_time["executor.submit"] + self_time["executor.submit_inline"],
            "s",
        )
        per_iter("executor.wait_s", self_time["executor.wait"], "s")
        per_iter("executor.jobs", calls["executor.submit"], "count")
        per_iter("executor.inline_jobs", calls["executor.submit_inline"], "count")
        per_iter("reader.open_s", self_time["reader.open"], "s")
        per_iter("reader.read_buffer_s", self_time["reader.read_buffer"], "s")
        per_iter("reader.read_all_s", self_time["reader.read_all"], "s")
        per_iter("container.write_s", self_time["container.write"], "s")
        per_iter("container.read_s", self_time["container.read"], "s")
        per_iter("container.read_batch_s", self_time["container.read_batch"], "s")
        per_iter("service.handler_s", self_time["service.handler"], "s")
        handled = calls["service.handler"]
        out["service.edge_ms"] = (
            (client_handler_s - total["service.handler"]) / handled * 1e3
            if handled
            else 0.0,
            "ms",
        )
        out["trace.overhead_pct"] = (overhead_pct, "%")
        return out


def _inside(parents, sid, name) -> bool:
    """True when span ``sid`` or one of its ancestors is called ``name``."""
    while sid:
        parent, span = parents.get(sid, (0, None))
        if span == name:
            return True
        sid = parent
    return False
