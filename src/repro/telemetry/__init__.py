"""Zero-dependency metrics/tracing layer for the compression pipeline.

The paper's Section III pipeline — prediction, quantization, Huffman,
trailing dictionary coder — is modular, and after the streaming subsystem
made it parallel, the only way to tune it is to *see* it: where the bytes
of a container come from and where the wall-clock goes, stage by stage.
This package provides that visibility without adding a dependency or a
cost when disabled:

* :class:`Recorder` — the protocol: ``count`` (monotonic counters),
  ``gauge`` (latest-value gauges), ``timer`` (monotonic-clock stage
  timers as context managers), ``event`` (bounded log of noteworthy
  occurrences), ``snapshot`` (a JSON-serializable dict of everything);
* :class:`NullRecorder` — the default no-op implementation; the hot path
  pays one attribute lookup and an empty call, nothing else;
* :class:`MetricsRecorder` — the collecting implementation; each stage
  timer is a :class:`Histogram` (count, sum, min/max and fixed-bucket
  counts), so snapshots report p50/p95/p99 per stage and merge by
  addition;
* :class:`Histogram` — the one histogram type and quantile estimator
  behind every timer view: lifetime timers, :class:`RollingWindows`,
  the Prometheus exposition (:mod:`repro.telemetry.prom`) and ``mdz
  top`` report the same quantile for the same buckets;
* :class:`TracingRecorder` — a ``MetricsRecorder`` that additionally
  collects hierarchical spans (``span``/``annotate``/``export_token``,
  see :mod:`repro.telemetry.tracing`) and one provenance record per
  compressed buffer; :mod:`repro.telemetry.export` turns its snapshots
  into Chrome trace-event JSON (Perfetto-loadable) and provenance JSONL;
* :func:`get_recorder` / :func:`set_recorder` / :func:`recording` — the
  module-global active-recorder slot, so instrumentation points fetch
  the recorder at call time instead of threading it through every
  constructor.

Metric names are dotted paths grouped by subsystem:

========================  =====================================================
prefix                    meaning
========================  =====================================================
``sz.huffman.*``          entropy-coding stage (symbols, bytes, encode/decode)
``sz.oos.*``              out-of-scope side channel (points, varint bytes)
``sz.lossless.*``         trailing dictionary coder (bytes in/out, timings)
``mdz.*``                 per-buffer front end (method choice, buffer count)
``adp.*``                 adaptive selection (trials, winners, trial sizes)
``stream.*``              streaming writer (flushes, chunks, queue depth)
``stream.executor.*``     worker pool (dispatch/inline/fallback, teardown)
========================  =====================================================

Typical use::

    from repro import MDZ, MDZConfig
    from repro.telemetry import recording

    with recording() as rec:
        blob = MDZ(MDZConfig()).compress(positions)
    print(rec.snapshot()["timers"])

The CLI exposes the same data as ``mdz stats`` / ``--metrics-json``,
and the span/provenance layer as ``mdz trace``.
"""

from .export import (
    provenance_lines,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_provenance,
)
from .logging import (
    JsonLogFormatter,
    configure_json_logging,
    get_logger,
)
from .quality import DEFAULT_AUDIT_INTERVAL, QualityAuditor, QualityReport
from .recorder import (
    MetricsRecorder,
    NullRecorder,
    NULL_RECORDER,
    Recorder,
    get_recorder,
    recording,
    set_recorder,
)
from .histogram import TIMER_BUCKETS, Histogram
from .timeseries import RollingWindows
from .tracing import TracingRecorder, current_span_id

__all__ = [
    "DEFAULT_AUDIT_INTERVAL",
    "Histogram",
    "JsonLogFormatter",
    "MetricsRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "QualityAuditor",
    "QualityReport",
    "Recorder",
    "RollingWindows",
    "TIMER_BUCKETS",
    "TracingRecorder",
    "configure_json_logging",
    "current_span_id",
    "get_logger",
    "get_recorder",
    "provenance_lines",
    "recording",
    "set_recorder",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_provenance",
]
