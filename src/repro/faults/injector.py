"""Fault injection shims: the file handle, the executor, the file bytes.

Three injection sites, matching the three fault groups of
:mod:`repro.faults.plan`:

* :class:`FaultyFile` wraps the binary file object a
  :class:`~repro.stream.writer.StreamingWriter` writes to, arming
  ``io_error``/``torn_write`` specs against the logical byte position of
  the output stream;
* :class:`FaultyExecutor` subclasses
  :class:`~repro.stream.executor.ParallelExecutor` and wraps selected
  jobs in :func:`_flaky_call`, which fails deterministically for the
  first ``times`` attempts — attempts are counted in a file so the
  count survives the process boundary (pool workers share nothing
  else);
* :func:`apply_posthoc` damages finished archive bytes (``corrupt``,
  ``truncate``).

Every fired fault is recorded twice: as a telemetry counter/event
(``faults.injected.<kind>``) and on the injector's ``injected`` list,
which the chaos harness folds into its result for post-mortems.
"""

from __future__ import annotations

import errno
import os
from pathlib import Path
from typing import BinaryIO, Iterable

from ..stream.executor import ParallelExecutor
from ..telemetry import get_recorder
from .plan import FaultSpec


class FaultyFile:
    """A writable binary file wrapper that injects write-path faults.

    Parameters
    ----------
    fh:
        The real file object.  Must support ``write``; ``seek`` /
        ``truncate`` / ``flush`` / ``tell`` / ``fileno`` / ``close``
        are passed through when present (the writer's fence rollback
        depends on ``seek`` + ``truncate`` reaching the real file).
    specs:
        Write-path :class:`FaultSpec` entries (``io_error``,
        ``torn_write``).  Each spec fires when a ``write`` call covers
        its ``offset`` in the logical output stream, at most ``times``
        times, then stays cleared.

    Attributes
    ----------
    injected:
        Human-readable record of every fault fired, in order.
    position:
        The wrapper's view of the stream position (mirrors the
        underlying file through writes and seeks).
    """

    def __init__(self, fh: BinaryIO, specs: Iterable[FaultSpec] = ()) -> None:
        self._fh = fh
        self._specs = [s for s in specs]
        for s in self._specs:
            if s.kind not in ("io_error", "torn_write"):
                raise ValueError(
                    f"FaultyFile cannot inject {s.kind!r} faults"
                )
        self._remaining = [s.times for s in self._specs]
        self.injected: list[str] = []
        try:
            self.position = fh.tell()
        except (OSError, AttributeError):
            self.position = 0

    # -- fault machinery ------------------------------------------------

    def _armed_spec(self, size: int) -> tuple[int, FaultSpec] | None:
        """The first armed spec this write would cover, if any."""
        for i, spec in enumerate(self._specs):
            if self._remaining[i] <= 0:
                continue
            if self.position <= spec.offset < self.position + size:
                return i, spec
        return None

    def _fire(self, i: int, spec: FaultSpec, detail: str) -> None:
        self._remaining[i] -= 1
        note = f"{spec.kind}@{spec.offset}: {detail}"
        self.injected.append(note)
        recorder = get_recorder()
        recorder.count(f"faults.injected.{spec.kind}")
        recorder.event("faults.injected", note)

    # -- file protocol --------------------------------------------------

    def write(self, data: bytes) -> int:
        """Write ``data``, or fire the armed fault covering this span.

        ``io_error`` raises before any byte lands; ``torn_write``
        persists the first ``spec.length`` bytes (advancing the
        position, as a real torn write would) and then raises.  The
        raised :class:`OSError` carries ``ENOSPC``/``EIO`` so it is
        indistinguishable from the real thing to the code under test.
        """
        hit = self._armed_spec(len(data))
        if hit is None:
            n = self._fh.write(data)
            self.position += n
            return n
        i, spec = hit
        if spec.kind == "io_error":
            self._fire(i, spec, f"ENOSPC on {len(data)}-byte write")
            raise OSError(errno.ENOSPC, "injected: no space left on device")
        # torn_write: part of the frame lands, then the "crash".
        torn = data[: max(spec.length, 0)]
        if torn:
            self.position += self._fh.write(torn)
            self._fh.flush()
        self._fire(
            i, spec, f"wrote {len(torn)}/{len(data)} bytes then EIO"
        )
        raise OSError(errno.EIO, "injected: torn write")

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        new = self._fh.seek(offset, whence)
        self.position = new
        return new

    def truncate(self, size: int | None = None) -> int:
        return self._fh.truncate(size)

    def tell(self) -> int:
        return self._fh.tell()

    def flush(self) -> None:
        self._fh.flush()

    def fileno(self) -> int:
        return self._fh.fileno()

    def close(self) -> None:
        self._fh.close()

    @property
    def exhausted(self) -> bool:
        """True when every spec has fired its full ``times`` budget."""
        return all(r <= 0 for r in self._remaining)


def _flaky_call(counter_path: str, fail_times: int, fn, *args):
    """Run ``fn(*args)``, failing deterministically the first attempts.

    The attempt count lives in the *size* of the file at
    ``counter_path`` — one byte appended per attempt — which is the
    simplest cross-process counter there is: pool workers share no
    memory with the session, but they share the filesystem.  Attempts
    ``1..fail_times`` raise :class:`OSError`; later attempts run the
    real job, so executor retry logic (resubmission, inline fallback)
    is exercised end to end.

    Module-level and argument-picklable by construction, since it must
    cross the ``multiprocessing`` boundary.
    """
    with open(counter_path, "ab") as fh:
        fh.write(b"x")
    attempts = os.path.getsize(counter_path)
    if attempts <= fail_times:
        raise OSError(
            errno.EIO,
            f"injected worker fault (attempt {attempts}/{fail_times})",
        )
    return fn(*args)


class FaultyExecutor(ParallelExecutor):
    """A :class:`ParallelExecutor` that makes chosen jobs fail.

    Jobs are counted in submission order (``push`` entries — in-session
    results — do not count); a job whose index matches a
    ``worker_fail`` spec is wrapped in :func:`_flaky_call` with a fresh
    counter file, so it fails its first ``spec.times`` attempts whether
    they run in a pool worker or inline.  Because the executor's retry
    path resubmits the *wrapped* callable, the attempt counter keeps
    advancing across retries — exactly the behaviour of a real flaky
    worker.

    Indices address *axis* jobs: a batched
    :class:`~repro.stream.executor.FlushJobSpec` submission covers
    ``len(spec.jobs)`` consecutive indices, so a plan written against
    the per-axis dispatch keeps hitting the same (buffer, axis) job
    under the batched transport.  A batch containing a marked axis
    fails as a unit — the coarsest failure a real worker crash would
    produce anyway.

    Worker faults need ``workers >= 2``: a serial writer encodes every
    buffer in its own session and submits no jobs, so nothing fires.

    Parameters
    ----------
    specs:
        ``worker_fail`` :class:`FaultSpec` entries.
    counter_dir:
        Directory for attempt-counter files (must outlive the run).
    workers / max_pending:
        Passed through to :class:`ParallelExecutor`.
    """

    def __init__(
        self,
        specs: Iterable[FaultSpec] = (),
        counter_dir: str | Path | None = None,
        workers: int = 0,
        max_pending: int | None = None,
    ) -> None:
        super().__init__(workers=workers, max_pending=max_pending)
        self._fault_by_job: dict[int, FaultSpec] = {}
        for s in specs:
            if s.kind != "worker_fail":
                raise ValueError(
                    f"FaultyExecutor cannot inject {s.kind!r} faults"
                )
            self._fault_by_job[s.job_index] = s
        if self._fault_by_job and counter_dir is None:
            raise ValueError(
                "worker_fail specs need a counter_dir for attempt files"
            )
        self._counter_dir = Path(counter_dir) if counter_dir else None
        self._job_counter = 0
        self.injected: list[str] = []

    def submit(self, fn, *args, slot=None) -> None:
        """Submit a job, wrapping it when it covers a marked axis index."""
        jobs = getattr(args[0], "jobs", None) if args else None
        count = len(jobs) if jobs is not None else 1
        first = self._job_counter
        self._job_counter += count
        hit = None
        for job in range(first, first + count):
            spec = self._fault_by_job.get(job)
            if spec is not None:
                hit = (job, spec)
                break
        if hit is None:
            super().submit(fn, *args, slot=slot)
            return
        job, spec = hit
        counter = self._counter_dir / f"job{job}.attempts"
        counter.touch()
        note = f"worker_fail@job{job}: fails first {spec.times} attempts"
        self.injected.append(note)
        recorder = get_recorder()
        recorder.count("faults.injected.worker_fail")
        recorder.event("faults.injected", note)
        super().submit(
            _flaky_call, str(counter), spec.times, fn, *args, slot=slot
        )


def apply_posthoc(blob: bytes, specs: Iterable[FaultSpec]) -> bytes:
    """Apply ``corrupt``/``truncate`` specs to finished archive bytes.

    Specs are applied in order; offsets may be negative (from the end)
    and are clamped to the blob, so a plan generated against a size
    hint never raises on a smaller-than-expected archive — a fault that
    falls entirely past the end is simply a no-op.
    """
    out = bytearray(blob)
    for spec in specs:
        if spec.kind == "corrupt":
            start = spec.offset if spec.offset >= 0 else len(out) + spec.offset
            start = max(0, min(start, len(out)))
            end = min(start + spec.length, len(out))
            for i in range(start, end):
                out[i] ^= spec.xor_mask & 0xFF
        elif spec.kind == "truncate":
            cut = spec.offset if spec.offset >= 0 else len(out) + spec.offset
            del out[max(0, min(cut, len(out))) :]
        else:
            raise ValueError(
                f"apply_posthoc cannot apply {spec.kind!r} faults"
            )
    return bytes(out)
