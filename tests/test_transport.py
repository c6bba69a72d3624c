"""Degraded-path coverage for the executor's shared-memory transport.

A buffer reaches a worker only through shared memory: its batch through
a ring slot, its frozen session state through a published segment.
Everything else is the one fallback — the writer encodes the buffer in
its own session — so there are two rungs, pool + shared memory and
in-session, and both must produce byte-identical archives.  These tests
force the fallback (a serial writer, a pool that dies mid-backpressure
wait, shared memory that is unavailable from the start or fails
mid-stream), check that a segment missing from the worker cache
unpickles its published session clone, and check the lifecycle
guarantee that no ``/dev/shm`` segment outlives
``close``/``terminate``/``abort``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import MDZConfig
from repro.stream import (
    AxisJobSpec,
    FlushJobSpec,
    ParallelExecutor,
    StreamingWriter,
    backoff_delay,
    encode_flush,
    stream_compress,
)
from repro.stream import executor as executor_mod
from repro.stream import writer as writer_mod
from repro.telemetry import MetricsRecorder, recording
from repro.telemetry.tracing import TracingRecorder


def _trajectory(snapshots=24, atoms=120, seed=3):
    rng = np.random.default_rng(seed)
    levels = rng.integers(0, 6, (atoms, 3)) * 2.0
    return (
        levels[None] + rng.normal(0, 0.03, (snapshots, atoms, 3))
    ).astype(np.float32)


def _compress(traj, workers=0, executor=None, buffer_size=4):
    config = MDZConfig(
        buffer_size=buffer_size, error_bound=1e-3, error_bound_mode="absolute"
    )
    sink = io.BytesIO()
    with StreamingWriter(
        sink, config, workers=workers, executor=executor
    ) as writer:
        writer.feed_many(traj)
    return sink.getvalue()


@pytest.fixture
def segments(monkeypatch) -> list[str]:
    """Names of the shared-memory segments this test's executors create.

    Every segment the parent process owns comes from
    ``_create_segment``; workers only attach.  Checking these names, not
    the whole ``/dev/shm`` listing, keeps a segment of another process
    (a parallel benchmark run, a second test session) out of the test.
    """
    names: list[str] = []
    create = executor_mod._create_segment

    def _recording(nbytes):
        segment = create(nbytes)
        names.append(segment.name)
        return segment

    monkeypatch.setattr(executor_mod, "_create_segment", _recording)
    return names


def _alive(names) -> set[str]:
    """Those of ``names`` still linked in ``/dev/shm``."""
    return {name for name in names if os.path.exists(f"/dev/shm/{name}")}


def _double(x):
    return 2 * x


class _FailingHandle:
    """A pool result that never completes and fails when awaited.

    ``ready()`` is False so the non-blocking collect pass skips the job;
    the failure is only discovered when someone *waits* on it — which is
    exactly what the backpressure loop does when the queue is full."""

    def ready(self):
        return False

    def get(self, timeout=None):
        raise RuntimeError("worker died")


class _DyingPool:
    """Accepts submissions but every job is lost — the executor's retry
    path resubmits into the same void until it abandons the pool."""

    def apply_async(self, fn, args):
        return _FailingHandle()

    def terminate(self):
        pass

    def join(self):
        pass


class TestValidation:
    def test_explicit_max_pending_zero_rejected(self):
        with pytest.raises(ValueError, match="max_pending"):
            ParallelExecutor(workers=2, max_pending=0)

    def test_negative_max_pending_rejected(self):
        with pytest.raises(ValueError, match="max_pending"):
            ParallelExecutor(workers=2, max_pending=-3)

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelExecutor(workers=-1)

    def test_explicit_max_pending_one_honored(self):
        # Regression: the old falsy test replaced 0 with the default and
        # would also have replaced nothing else — but an explicit small
        # bound must stick.
        ex = ParallelExecutor(workers=4, max_pending=1)
        assert ex.max_pending == 1
        ex.close()

    def test_default_max_pending(self):
        ex = ParallelExecutor(workers=3)
        assert ex.max_pending == 12
        ex.close()
        serial = ParallelExecutor(workers=0)
        assert serial.max_pending == 4
        serial.close()


class TestBackoffDelay:
    def test_first_retry_waits_base(self):
        assert backoff_delay(1, 0.05, 1.0) == pytest.approx(0.05)

    def test_doubles_per_retry(self):
        assert backoff_delay(2, 0.05, 1.0) == pytest.approx(0.10)
        assert backoff_delay(3, 0.05, 1.0) == pytest.approx(0.20)

    def test_capped(self):
        assert backoff_delay(30, 0.05, 1.0) == 1.0

    def test_matches_documented_policy(self):
        # The docstrings promise min(base * 2**(attempt-1), cap); keep
        # the helper pinned to that exact formula.
        for attempt in range(1, 8):
            assert backoff_delay(attempt, 0.01, 0.5) == min(
                0.01 * 2 ** (attempt - 1), 0.5
            )


class TestPoolDeathDegradation:
    def test_pool_death_mid_backpressure_wait(self, monkeypatch):
        """A pool that loses every job while submit blocks on a full
        queue must degrade to inline execution, byte-identically."""
        traj = _trajectory()
        serial = _compress(traj, workers=0)

        monkeypatch.setattr(
            ParallelExecutor, "RETRY_BASE_DELAY", 0.001, raising=True
        )
        ex = ParallelExecutor(workers=2, max_pending=1)
        ex._pool = _DyingPool()  # pool "started", then every worker dies
        with recording(MetricsRecorder()) as rec:
            blob = _compress(traj, executor=ex)
        ex.close()

        assert blob == serial
        counters = rec.snapshot()["counters"]
        # The second dispatch hit max_pending=1, waited on the first
        # job, watched it fail, and the abandon sweep re-ran it inline.
        assert counters["stream.executor.backpressure_waits"] >= 1
        assert counters["stream.executor.pool_abandoned"] == 1
        assert counters["stream.executor.jobs_rerun_inline"] >= 1
        assert counters["stream.executor.job_retries"] >= 1

    def test_slot_released_by_abandon_sweep(self, segments):
        """Payload slots held by queued jobs are freed when the pool is
        abandoned, and the ring is unlinked once idle."""
        ex = ParallelExecutor(workers=2, max_pending=2)
        ex.RETRY_BASE_DELAY = 0.001
        ex._pool = _DyingPool()
        slot = ex.acquire_slot(1024)
        assert slot is not None
        assert _alive(segments) == {slot.segment.name}
        ex.submit(_double, 21, slot=slot)
        ex._abandon_pool()
        assert not ex.parallel
        assert ex.drain() == [42]
        assert not _alive(segments)  # ring idle -> unlinked
        ex.close()

    def test_dead_pool_at_acquire_returns_none(self):
        ex = ParallelExecutor(workers=2)
        ex._broken = True
        assert ex.acquire_slot(1024) is None
        assert ex.publish(b"state") is None
        ex.close()


class TestShmLifecycle:
    def test_no_leak_after_close(self, segments):
        traj = _trajectory()
        serial = _compress(traj, workers=0)
        parallel = _compress(traj, workers=2)
        assert parallel == serial
        assert segments and not _alive(segments)

    def test_no_leak_after_terminate(self, segments):
        ex = ParallelExecutor(workers=2, max_pending=2)
        slot = ex.acquire_slot(4096)
        handle = ex.publish(b"frozen session state")
        assert slot is not None and handle is not None
        assert _alive(segments) == {slot.segment.name, handle[0]}
        ex.submit(_double, 1, slot=slot)
        ex.terminate()
        assert not _alive(segments)

    def test_no_leak_after_writer_abort(self, segments):
        traj = _trajectory()
        config = MDZConfig(
            buffer_size=4, error_bound=1e-3, error_bound_mode="absolute"
        )
        writer = StreamingWriter(io.BytesIO(), config, workers=2)
        writer.feed_many(traj[:12])
        assert _alive(segments)
        writer.abort()
        assert not _alive(segments)

    def test_repeated_parallel_sessions_keep_tracker_quiet(self):
        """Three parallel sessions in one process leave the resource
        tracker consistent: a worker attaching a segment used to drop the
        owner's registration, and the owner's unlink then made the
        tracker print a ``KeyError`` traceback per segment."""
        script = textwrap.dedent(
            """
            import io
            import numpy as np
            from repro.core.config import MDZConfig
            from repro.stream import StreamingWriter
            from repro.stream import executor

            created = []
            create = executor._create_segment

            def _recording(nbytes):
                segment = create(nbytes)
                created.append(segment.name)
                return segment

            executor._create_segment = _recording
            rng = np.random.default_rng(1)
            data = rng.uniform(0, 10, (200, 3)) + np.cumsum(
                rng.normal(0, 0.01, (60, 200, 3)), axis=0
            )
            archives = set()
            for _ in range(3):
                sink = io.BytesIO()
                with StreamingWriter(
                    sink, MDZConfig(buffer_size=5), workers=2
                ) as writer:
                    writer.feed_many(data)
                archives.add(sink.getvalue())
            print(len(archives))
            print(" ".join(created))
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=300,
            env={
                **os.environ,
                "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
            },
        )
        assert result.returncode == 0, result.stderr
        assert "KeyError" not in result.stderr, result.stderr
        # A segment left linked at exit is unlinked by the tracker, which
        # says so on stderr.
        assert "leaked shared_memory" not in result.stderr, result.stderr
        count, created = result.stdout.splitlines()
        assert count == "1"  # identical archives
        assert created and not _alive(created.split())

    def test_slot_grows_for_larger_payload(self, segments):
        ring = executor_mod._ShmRing(1)
        index, seg = ring.try_acquire(100)
        assert seg.size >= 100
        ring.release(index)
        index, grown = ring.try_acquire(10 * seg.size)
        assert grown.size >= 10 * seg.size
        ring.release(index)
        assert _alive(segments) == {grown.name}  # outgrown slot unlinked
        ring.destroy()
        assert not _alive(segments)

    def test_shm_unavailable_encodes_in_session(self, monkeypatch):
        """When segment creation fails, the pool is abandoned and the
        stream encodes in session with identical bytes."""
        traj = _trajectory()
        serial = _compress(traj, workers=0)

        def _no_shm(nbytes):
            raise OSError("shm exhausted")

        monkeypatch.setattr(executor_mod, "_create_segment", _no_shm)
        with recording(MetricsRecorder()) as rec:
            parallel = _compress(traj, workers=2)
        assert parallel == serial
        snap = rec.snapshot()
        assert snap["counters"]["stream.executor.pool_abandoned"] == 1
        assert "stream.executor.dispatched" not in snap["counters"]
        assert "stream.executor.shm_bytes" not in snap["counters"]
        assert any(
            event["name"] == "stream.executor.shm_unavailable"
            for event in snap["events"]
        )

    def test_shm_failure_mid_stream_encodes_rest_in_session(
        self, monkeypatch, segments
    ):
        """Slot creation starts failing after two flushes went to the
        pool: those jobs finish or re-run inline from their segments,
        the remaining buffers encode in session, and nothing leaks."""
        traj = _trajectory(snapshots=40)
        serial = _compress(traj, workers=0)
        try_acquire = executor_mod._ShmRing.try_acquire
        calls = []

        def _failing_from_third(ring, nbytes):
            # One slot per pool flush; a freed slot is reused without a
            # new segment, so the failure is keyed to flushes, not to
            # _create_segment calls.
            calls.append(nbytes)
            if len(calls) >= 3:
                raise OSError("shm exhausted")
            return try_acquire(ring, nbytes)

        monkeypatch.setattr(
            executor_mod._ShmRing, "try_acquire", _failing_from_third
        )
        with recording(MetricsRecorder()) as rec:
            parallel = _compress(traj, workers=2)
        assert segments and not _alive(segments)
        assert parallel == serial
        counters = rec.snapshot()["counters"]
        assert counters["stream.executor.dispatched"] == 2
        assert counters["stream.executor.pool_abandoned"] == 1
        assert len(calls) == 3  # nothing tried shared memory afterwards

    def test_serial_writer_submits_nothing(self, monkeypatch):
        """A serial writer encodes every buffer in its own session: no
        job spec, no submit, no worker session, no worker span."""

        def _forbidden(*args, **kwargs):
            raise AssertionError("a serial writer built a pool job")

        monkeypatch.setattr(writer_mod, "AxisJobSpec", _forbidden)
        monkeypatch.setattr(ParallelExecutor, "submit", _forbidden)
        executor_mod._SESSIONS.clear()
        traj = _trajectory()
        rec = TracingRecorder()
        with recording(rec):
            _compress(traj, workers=0)
        snap = rec.snapshot()
        assert not executor_mod._SESSIONS
        counters = snap["counters"]
        assert "stream.executor.inline" not in counters
        assert "stream.executor.dispatched" not in counters
        assert not any(
            name.startswith("stream.executor.state_cache.")
            for name in counters
        )
        assert not any(
            span["name"] == "stream.worker.encode_axis"
            for span in snap["spans"]
        )
        # Provenance covers every (buffer, axis) chunk exactly once.
        keys = {
            (r["buffer"], r["axis"])
            for r in snap["provenance"]
            if "buffer" in r
        }
        assert len(keys) == len(snap["provenance"]) == 6 * 3


def _publish(payload: bytes):
    segment = executor_mod._create_segment(len(payload))
    segment.buf[: len(payload)] = payload
    return segment


@contextlib.contextmanager
def _state_spec(traj):
    """A flush job for axis 0 of ``traj``, its pickled session clone and
    batch in real segments, plus the in-session reference bytes.

    Yields ``(flush, clone, expected)``, ``clone`` being the pickled
    ``session.clone(method)``; the segments are unlinked on exit."""
    config = MDZConfig(
        buffer_size=4, error_bound=1e-3, error_bound_mode="absolute"
    )
    from repro.baselines.api import SessionMeta
    from repro.core.mdz import MDZAxisCompressor

    axis = np.ascontiguousarray(traj[:, :, 0].astype(np.float64))
    session = MDZAxisCompressor(config)
    session.begin(1e-3, SessionMeta(n_atoms=traj.shape[1]))
    session.compress_batch(axis[:4])  # establishes the frozen state
    session.compress_batch(axis[4:8])  # second buffer: ADP trial
    method = session.pending_method()
    assert method is not None
    clone = pickle.dumps(session.clone(method), pickle.HIGHEST_PROTOCOL)
    state_segment = _publish(clone)
    ring = executor_mod._ShmRing(1)
    try:
        batch = axis[8:12][None]
        index, segment = ring.try_acquire(batch.nbytes)
        slot = executor_mod._ShmSlot(ring=ring, index=index, segment=segment)
        spec = AxisJobSpec(session_shm=(state_segment.name, len(clone)))
        flush = FlushJobSpec(jobs=(spec,), shm=slot.pack(batch))
        yield flush, clone, session.compress_batch(axis[8:12])
    finally:
        ring.destroy()
        executor_mod._destroy_segment(state_segment)


class TestSessionCache:
    def test_segment_miss_unpickles_the_clone(self):
        """A segment the worker cache has never seen unpickles the
        published clone — bytes identical to in-session encode."""
        traj = _trajectory()
        executor_mod._SESSIONS.clear()
        with _state_spec(traj) as (flush, _, expected):
            with recording(MetricsRecorder()) as rec:
                [blob] = encode_flush(flush)
        assert blob == expected
        counters = rec.snapshot()["counters"]
        assert counters["stream.executor.state_cache.miss"] == 1
        assert "stream.executor.state_cache.hit" not in counters

    def test_segment_hit_reuses_cached_session(self):
        traj = _trajectory()
        executor_mod._SESSIONS.clear()
        with _state_spec(traj) as (flush, _, expected):
            with recording(MetricsRecorder()) as rec:
                [first] = encode_flush(flush)
                [second] = encode_flush(flush)
        assert first == expected
        assert second == expected
        counters = rec.snapshot()["counters"]
        assert counters["stream.executor.state_cache.miss"] == 1
        assert counters["stream.executor.state_cache.hit"] == 1

    def test_cache_is_bounded(self):
        traj = _trajectory()
        executor_mod._SESSIONS.clear()
        with _state_spec(traj) as (flush, clone, expected):
            segments = [
                _publish(clone)
                for _ in range(executor_mod._SESSION_CACHE_MAX + 3)
            ]
            try:
                for segment in segments:
                    spec = AxisJobSpec(session_shm=(segment.name, len(clone)))
                    [blob] = encode_flush(
                        dataclasses.replace(flush, jobs=(spec,))
                    )
                    assert blob == expected
                assert (
                    len(executor_mod._SESSIONS)
                    == executor_mod._SESSION_CACHE_MAX
                )
            finally:
                for segment in segments:
                    executor_mod._destroy_segment(segment)

    def test_closed_executor_leaves_no_cached_session(self, monkeypatch):
        """The parent caches sessions when jobs of a dead pool re-run
        inline; closing the executor destroys their segments and drops
        those entries, so no cache key outlives the segment it names."""
        executor_mod._SESSIONS.clear()
        traj = _trajectory()
        serial = _compress(traj, workers=0)
        monkeypatch.setattr(ParallelExecutor, "RETRY_BASE_DELAY", 0.001)
        ex = ParallelExecutor(workers=2)
        ex._pool = _DyingPool()  # every job is lost, then re-run inline
        blob = _compress(traj, executor=ex)
        published = [seg.name for seg in ex._published]
        assert published
        assert set(executor_mod._SESSIONS) == set(published)
        ex.close()
        assert blob == serial
        assert not executor_mod._SESSIONS


class TestBatchedDispatch:
    def test_one_ipc_round_trip_per_flush(self):
        """All axes of a flush travel as one submission."""
        traj = _trajectory(snapshots=16)
        with recording(MetricsRecorder()) as rec:
            parallel = _compress(traj, workers=2)
        counters = rec.snapshot()["counters"]
        # 4 buffers, ADP trials on the first two -> 2 dispatched flushes,
        # each one job covering 3 axes.
        assert counters["stream.executor.dispatched"] == 2
        assert counters["stream.executor.shm_bytes"] > 0
        assert parallel == _compress(traj, workers=0)

    def test_backpressure_one_slot(self):
        """max_pending=1 recycles a single payload slot across flushes."""
        traj = _trajectory(snapshots=40)
        serial = _compress(traj, workers=0)
        ex = ParallelExecutor(workers=2, max_pending=1)
        assert _compress(traj, executor=ex) == serial
        ex.close()

    def test_float64_source_byte_identical(self):
        traj = _trajectory().astype(np.float64)
        assert _compress(traj, workers=2) == _compress(traj, workers=0)
