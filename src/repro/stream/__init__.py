"""Streaming compression subsystem: the chunked ``MDZ2`` container, a
parallel compression executor, and the in-situ pipeline.

:class:`StreamingWriter` is the one container writer.  The one-shot
front end (:class:`repro.core.mdz.MDZ` + :mod:`repro.io.container`)
holds the whole trajectory, resolves its error bounds over it, and feeds
it through a serial writer; in-situ producers feed snapshots as they
come.  :class:`StreamingReader` is the one reader: it also reads the
legacy monolithic ``MDZ1`` format, which
:func:`repro.io.container.open_layout` opens as a chunk layout.

* :mod:`repro.stream.format` — the append-only ``MDZ2`` frame layout
  (CRC-checked self-delimiting chunks, footer index, crash recovery);
* :mod:`repro.stream.writer` — :class:`StreamingWriter`, a
  ``feed(snapshot)`` front end with incremental per-buffer flushing;
* :mod:`repro.stream.reader` — :class:`StreamingReader`, random-access
  and sequential decoding of either generation, with opt-in recovery of
  truncated ``MDZ2`` files;
* :mod:`repro.stream.executor` — :class:`ParallelExecutor`, a
  ``multiprocessing`` pool fed through shared memory, with bounded
  backpressure and ordered reassembly whose output is byte-identical to
  the writer's in-session encode;
* :mod:`repro.stream.pipeline` — one-call helpers tying it together.

Fault tolerance lives at three layers: the writer commits chunk frames
atomically against a fence (rolled back and retried on ``OSError``),
the executor retries failed worker jobs with capped backoff before it
abandons the pool (queued jobs re-run inline, later buffers encode in
session), and the reader's salvage mode skips damaged frames
and accounts for exactly which snapshots were lost
(:class:`~repro.stream.reader.SalvageReport`).  :mod:`repro.faults`
exercises all of it deterministically.
"""

from .executor import (
    AxisJobSpec,
    FlushJobSpec,
    ParallelExecutor,
    backoff_delay,
    encode_axis_buffer,
    encode_flush,
)
from .format import (
    ChunkEntry,
    Quarantine,
    StreamLayout,
    is_stream_container,
    parse_stream,
    repair_stream,
    verify_stream,
)
from .pipeline import stream_compress, stream_compress_dump, stream_decompress
from .reader import BufferStatus, SalvageReport, StreamingReader
from .writer import StreamingWriter, StreamStats

__all__ = [
    "AxisJobSpec",
    "BufferStatus",
    "ChunkEntry",
    "FlushJobSpec",
    "ParallelExecutor",
    "backoff_delay",
    "Quarantine",
    "SalvageReport",
    "StreamLayout",
    "StreamingReader",
    "StreamingWriter",
    "StreamStats",
    "encode_axis_buffer",
    "encode_flush",
    "is_stream_container",
    "parse_stream",
    "repair_stream",
    "stream_compress",
    "stream_compress_dump",
    "stream_decompress",
    "verify_stream",
]
