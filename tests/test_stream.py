"""Tests for the streaming subsystem: MDZ2 format, writer/reader, executor."""

import io

import numpy as np
import pytest

from repro.core.config import MDZConfig
from repro.exceptions import CompressionError, ContainerFormatError
from repro.io.container import (
    container_version,
    read_container,
    read_container_batch,
    read_container_info,
    write_container,
)
from repro.stream import (
    ParallelExecutor,
    StreamingReader,
    StreamingWriter,
    parse_stream,
    stream_compress,
    stream_decompress,
)
from repro.telemetry import recording


def _stream_blob(trajectory, config=None, workers=0):
    sink = io.BytesIO()
    stream_compress(trajectory, sink, config=config, workers=workers)
    return sink.getvalue()


class TestStreamRoundTrip:
    def test_full_round_trip_within_bound(self, trajectory):
        blob = _stream_blob(trajectory, MDZConfig(buffer_size=4))
        out = stream_decompress(blob)
        assert out.shape == trajectory.shape
        bounds = StreamingReader(blob).error_bounds
        for a in range(3):
            err = np.abs(out[:, :, a] - trajectory[:, :, a]).max()
            assert err <= bounds[a] * (1 + 1e-9)

    def test_partial_final_buffer(self, trajectory):
        # 12 snapshots with BS=5 -> buffers of 5, 5, 2.
        blob = _stream_blob(trajectory, MDZConfig(buffer_size=5))
        reader = StreamingReader(blob)
        assert reader.n_buffers == 3
        assert reader.snapshots == 12
        assert reader.read_all().shape == trajectory.shape

    @pytest.mark.parametrize("method", ["vq", "vqt", "mt", "adp"])
    def test_all_methods(self, trajectory, method):
        config = MDZConfig(buffer_size=4, method=method)
        out = stream_decompress(_stream_blob(trajectory, config))
        assert out.shape == trajectory.shape

    def test_single_axis_snapshots(self, crystal_stream):
        # (atoms,) snapshots are promoted to one axis.
        sink = io.BytesIO()
        with StreamingWriter(sink, MDZConfig(buffer_size=10)) as writer:
            for row in crystal_stream:
                writer.feed(row)
        out = stream_decompress(sink.getvalue())
        assert out.shape == (*crystal_stream.shape, 1)

    def test_path_target(self, tmp_path, trajectory):
        path = tmp_path / "run.mdz"
        stream_compress(trajectory, path, MDZConfig(buffer_size=4))
        out = StreamingReader(path).read_all()
        assert out.shape == trajectory.shape

    def test_stats(self, trajectory):
        sink = io.BytesIO()
        stats = stream_compress(trajectory, sink, MDZConfig(buffer_size=4))
        assert stats.snapshots == 12
        assert stats.buffers == 3
        assert stats.chunks == 9
        # raw_bytes reflects the true source dtype (float64 fixture),
        # not the old hardcoded float32 convention.
        assert stats.source_itemsize == trajectory.dtype.itemsize
        assert stats.raw_bytes == trajectory.nbytes
        assert stats.bytes_written == len(sink.getvalue())
        assert stats.compression_ratio > 1.0

    def test_stats_source_itemsize_float32(self, trajectory):
        sink = io.BytesIO()
        f32 = trajectory.astype(np.float32)
        stats = stream_compress(f32, sink, MDZConfig(buffer_size=4))
        assert stats.source_itemsize == 4
        assert stats.raw_bytes == f32.nbytes
        assert stats.to_dict()["source_itemsize"] == 4

    def test_matches_monolithic_reconstruction_bound(self, trajectory):
        # Same data through the one-shot and the streaming path obeys the
        # same per-axis bounds when those bounds are absolute (no range
        # estimate at all).
        config = MDZConfig(
            error_bound=0.02, error_bound_mode="absolute", buffer_size=4
        )
        mono = read_container(write_container(trajectory, config))
        streamed = stream_decompress(_stream_blob(trajectory, config))
        assert np.abs(mono - trajectory).max() <= 0.02 * (1 + 1e-9)
        assert np.abs(streamed - trajectory).max() <= 0.02 * (1 + 1e-9)


class TestGivenErrorBounds:
    """``StreamingWriter(error_bounds=...)``: resolved per-axis bounds
    from the caller instead of the first buffer's value range."""

    def test_bounds_recorded_and_honoured(self, trajectory):
        bounds = [0.01, 0.02, 0.03]
        sink = io.BytesIO()
        with StreamingWriter(
            sink, MDZConfig(buffer_size=4), error_bounds=bounds
        ) as writer:
            writer.feed_many(trajectory)
        reader = StreamingReader(sink.getvalue())
        assert reader.error_bounds == tuple(bounds)
        errors = np.abs(reader.read_all() - trajectory).max(axis=(0, 1))
        assert np.all(errors <= np.array(bounds) * (1 + 1e-9))

    def test_wrong_length_rejected(self, trajectory):
        writer = StreamingWriter(io.BytesIO(), error_bounds=[0.01, 0.01])
        with pytest.raises(CompressionError, match="3 axes"):
            writer.feed(trajectory[0])
        writer.abort()

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), 0.0, -0.01]
    )
    def test_non_finite_or_non_positive_rejected(self, tmp_path, bad):
        target = tmp_path / "never.mdz"
        with pytest.raises(CompressionError, match="finite and positive"):
            StreamingWriter(target, error_bounds=[0.01, bad, 0.01])
        assert not target.exists()


class TestRandomAccess:
    def test_read_buffer_matches_full_decode(self, trajectory):
        blob = _stream_blob(trajectory, MDZConfig(buffer_size=4))
        reader = StreamingReader(blob)
        full = reader.read_all()
        for b, t0 in enumerate(range(0, 12, 4)):
            assert np.array_equal(reader.read_buffer(b), full[t0 : t0 + 4])

    def test_vq_buffer_access(self, trajectory):
        config = MDZConfig(buffer_size=4, method="vq")
        blob = _stream_blob(trajectory, config)
        reader = StreamingReader(blob)
        assert np.array_equal(reader.read_buffer(2), reader.read_all()[8:12])

    def test_out_of_range_rejected(self, trajectory):
        blob = _stream_blob(trajectory, MDZConfig(buffer_size=4))
        with pytest.raises(ContainerFormatError, match="out of range"):
            StreamingReader(blob).read_buffer(99)

    def test_iter_buffers(self, trajectory):
        blob = _stream_blob(trajectory, MDZConfig(buffer_size=5))
        parts = list(StreamingReader(blob).iter_buffers())
        assert [p.shape[0] for p in parts] == [5, 5, 2]
        assert np.array_equal(np.concatenate(parts), stream_decompress(blob))


#: name -> (config fields, whether a buffer decodes without buffer 0).
RANDOM_ACCESS_CASES = {
    "vq": ({"method": "vq"}, True),
    "vqt": ({"method": "vqt"}, True),
    "interp": ({"method": "interp"}, True),
    "pool-vq-vqt-interp": ({"adp_members": ("vq", "vqt", "interp")}, True),
    "mt": ({"method": "mt"}, False),
    "default-pool": ({}, False),
}


class TestRandomAccessRule:
    """One rule decides whether a buffer needs buffer 0: a member that
    can code it has ``needs_reference``.  Reads and salvage follow it."""

    @pytest.fixture(scope="class")
    def forty(self):
        rng = np.random.default_rng(11)
        levels = rng.integers(0, 8, (150, 3)) * 2.0
        vib = rng.normal(0.0, 0.03, (40, 150, 3))
        drift = np.cumsum(rng.normal(0.0, 0.002, (40, 1, 3)), axis=0)
        return levels[None] + vib + drift

    @pytest.mark.parametrize("name", list(RANDOM_ACCESS_CASES))
    def test_buffer_0_damage(self, forty, name):
        fields, alone = RANDOM_ACCESS_CASES[name]
        blob = _stream_blob(forty, MDZConfig(buffer_size=5, **fields))
        [entry] = [
            c for c in parse_stream(blob).chunks
            if (c.buffer_index, c.axis) == (0, 0)
        ]
        damaged = bytearray(blob)
        damaged[entry.offset + entry.length // 2] ^= 0xFF
        salvaged = StreamingReader(bytes(damaged), salvage=True)
        full = StreamingReader(blob).read_all()
        if alone:
            assert salvaged.salvage_report().readable_snapshots == 35
            assert np.array_equal(salvaged.read_all(), full[5:])
        else:
            assert salvaged.salvage_report().readable_snapshots == 0
            assert salvaged.read_all().shape == (0, 150, 3)

    @pytest.mark.parametrize("name", list(RANDOM_ACCESS_CASES))
    def test_read_buffer_decodes_what_it_needs(self, forty, name):
        fields, alone = RANDOM_ACCESS_CASES[name]
        blob = _stream_blob(forty, MDZConfig(buffer_size=5, **fields))
        reader = StreamingReader(blob)
        with recording() as rec:
            target = reader.read_buffer(5)
        chunks = rec.snapshot()["timers"]["mdz.decompress_batch"]["count"]
        assert chunks == (3 if alone else 6)
        assert np.array_equal(target, reader.read_all()[25:30])


class TestContainerDispatch:
    def test_container_version(self, trajectory, mdz1_archive):
        mono = mdz1_archive
        streamed = _stream_blob(trajectory)
        assert container_version(mono) == 1
        assert container_version(streamed) == 2

    def test_version_rejects_garbage(self):
        with pytest.raises(ContainerFormatError):
            container_version(b"\x00\x01\x02\x03 not a container")

    def test_read_container_handles_mdz2(self, trajectory):
        blob = _stream_blob(trajectory, MDZConfig(buffer_size=4))
        assert np.array_equal(read_container(blob), stream_decompress(blob))

    def test_read_container_batch_handles_mdz2(self, trajectory):
        blob = _stream_blob(trajectory, MDZConfig(buffer_size=4))
        full = read_container(blob)
        assert np.array_equal(read_container_batch(blob, 1), full[4:8])

    def test_read_container_info_handles_mdz2(self, trajectory):
        blob = _stream_blob(trajectory, MDZConfig(buffer_size=4))
        info = read_container_info(blob)
        assert info.snapshots == 12
        assert info.atoms == 150
        assert info.axes == 3
        assert info.n_buffers == 3
        assert len(info.methods_per_axis) == 3
        assert sum(info.methods_per_axis[0].values()) == 3


class TestWriterLifecycle:
    def test_empty_stream_rejected(self):
        writer = StreamingWriter(io.BytesIO())
        with pytest.raises(CompressionError, match="empty"):
            writer.close()

    def test_close_is_idempotent(self, trajectory):
        writer = StreamingWriter(io.BytesIO(), MDZConfig(buffer_size=4))
        writer.feed_many(trajectory)
        stats = writer.close()
        assert writer.close() is stats

    def test_feed_after_close_rejected(self, trajectory):
        writer = StreamingWriter(io.BytesIO(), MDZConfig(buffer_size=4))
        writer.feed_many(trajectory)
        writer.close()
        with pytest.raises(CompressionError, match="closed"):
            writer.feed(trajectory[0])

    def test_shape_mismatch_rejected(self, trajectory):
        writer = StreamingWriter(io.BytesIO(), MDZConfig(buffer_size=4))
        writer.feed(trajectory[0])
        with pytest.raises(CompressionError, match="shape"):
            writer.feed(trajectory[0, :50])
        writer.abort()

    def test_bad_rank_rejected(self):
        writer = StreamingWriter(io.BytesIO())
        with pytest.raises(CompressionError, match="snapshot"):
            writer.feed(np.zeros((2, 3, 4)))
        writer.abort()


class TestWriterSync:
    """``sync=True`` fsyncs once per committed chunk and moves no byte."""

    def test_file_target_fsyncs_every_chunk(
        self, trajectory, tmp_path, monkeypatch
    ):
        from repro.stream import writer as writer_module

        synced_fds = []
        real_fsync = writer_module.os.fsync

        def counting_fsync(fd):
            synced_fds.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(writer_module.os, "fsync", counting_fsync)
        config = MDZConfig(buffer_size=4)
        with StreamingWriter(tmp_path / "sync.mdz", config, sync=True) as w:
            w.feed_many(trajectory)
        assert len(synced_fds) == 9  # 3 buffers x 3 axes
        with StreamingWriter(tmp_path / "plain.mdz", config) as w:
            w.feed_many(trajectory)
        assert len(synced_fds) == 9
        assert (tmp_path / "sync.mdz").read_bytes() == (
            tmp_path / "plain.mdz"
        ).read_bytes()

    def test_memory_target(self, trajectory):
        """An in-memory target has no descriptor to fsync: the same
        bytes, no error."""
        config = MDZConfig(buffer_size=4)
        synced, plain = io.BytesIO(), io.BytesIO()
        for sink, sync in ((synced, True), (plain, False)):
            with StreamingWriter(sink, config, sync=sync) as w:
                w.feed_many(trajectory)
        assert synced.getvalue() == plain.getvalue()


#: Config fields per parallel byte-identity case: every member, the
#: five-member pool, and the settings a worker must encode with.
PARALLEL_CASES = {
    "adp": {},
    "vq": {"method": "vq"},
    "vqt": {"method": "vqt"},
    "mt": {"method": "mt"},
    "interp": {"method": "interp"},
    "bitadaptive": {"method": "bitadaptive"},
    "five-member-pool": {
        "adp_members": ("vq", "vqt", "mt", "interp", "bitadaptive")
    },
    "seq1": {"sequence_mode": "seq1"},
    "entropy-streams-1": {"entropy_streams": 1},
    "lzma": {"lossless_backend": "lzma"},
}


class TestParallelByteIdentity:
    @pytest.mark.parametrize("method", list(PARALLEL_CASES))
    def test_workers_match_serial_bytes(self, trajectory, method):
        config = MDZConfig(buffer_size=3, **PARALLEL_CASES[method])
        serial = _stream_blob(trajectory, config, workers=0)
        parallel = _stream_blob(trajectory, config, workers=2)
        assert parallel == serial

    def test_injected_executor(self, trajectory):
        config = MDZConfig(buffer_size=4)
        with ParallelExecutor(workers=2) as executor:
            sink = io.BytesIO()
            writer = StreamingWriter(sink, config, executor=executor)
            writer.feed_many(trajectory)
            writer.close()
        assert sink.getvalue() == _stream_blob(trajectory, config)

    def test_one_executor_serves_two_writers(self, trajectory):
        """Workers cache sessions across writers of one pool; the second
        writer, with another input and bound, must not encode with the
        first one's sessions."""
        runs = [
            (trajectory, MDZConfig(buffer_size=3, method="mt")),
            (
                trajectory[:, ::-1] * 1.5 + 0.25,
                MDZConfig(
                    buffer_size=3, method="mt", error_bound=5e-3,
                    error_bound_mode="absolute",
                ),
            ),
        ]
        with ParallelExecutor(workers=2) as executor:
            archives = []
            for data, config in runs:
                sink = io.BytesIO()
                writer = StreamingWriter(sink, config, executor=executor)
                writer.feed_many(data)
                writer.close()
                archives.append(sink.getvalue())
        for archive, (data, config) in zip(archives, runs):
            assert archive == _stream_blob(data, config)
        assert archives[0] != archives[1]


def _double(x):
    return 2 * x


def _boom(x):
    raise ValueError(f"boom {x}")


class _ExplodingPool:
    """Stub pool whose dispatch always fails (simulates a dead pool)."""

    def apply_async(self, fn, args):
        raise RuntimeError("pool is dead")

    def terminate(self):
        pass

    def join(self):
        pass


class TestParallelExecutor:
    def test_serial_runs_inline_in_order(self):
        ex = ParallelExecutor(workers=0)
        for i in range(5):
            ex.submit(_double, i)
        assert not ex.parallel
        assert ex.drain() == [0, 2, 4, 6, 8]
        ex.close()

    def test_push_preserves_fifo_order(self):
        ex = ParallelExecutor(workers=0)
        ex.submit(_double, 1)
        ex.push("in-session")
        ex.submit(_double, 3)
        assert ex.drain() == [2, "in-session", 6]
        ex.close()

    def test_serial_ready_returns_everything(self):
        ex = ParallelExecutor(workers=0)
        ex.submit(_double, 7)
        assert ex.ready() == [14]
        assert ex.ready() == []
        ex.close()

    def test_pool_results_in_submission_order(self):
        with ParallelExecutor(workers=2) as ex:
            for i in range(8):
                ex.submit(_double, i)
            assert ex.drain() == [2 * i for i in range(8)]

    def test_backpressure_bounds_inflight(self):
        ex = ParallelExecutor(workers=2, max_pending=3)
        for i in range(10):
            ex.submit(_double, i)
            assert ex._inflight() <= 3
        assert ex.drain() == [2 * i for i in range(10)]
        ex.close()

    def test_dead_pool_degrades_to_inline(self):
        ex = ParallelExecutor(workers=2)
        ex._pool = _ExplodingPool()
        ex.submit(_double, 5)
        ex.submit(_double, 6)
        assert not ex.parallel  # fell back after the dispatch failure
        assert ex.drain() == [10, 12]
        ex.close()

    def test_job_error_surfaces(self):
        with pytest.raises(ValueError, match="boom"):
            with ParallelExecutor(workers=2) as ex:
                ex.submit(_boom, 1)
                ex.drain()

    def test_terminate_discards_queue(self):
        ex = ParallelExecutor(workers=0)
        ex.submit(_double, 1)
        ex.terminate()
        assert ex.drain() == []


class TestCrashRecovery:
    def test_abort_leaves_recoverable_file(self, trajectory):
        sink = io.BytesIO()
        writer = StreamingWriter(sink, MDZConfig(buffer_size=4))
        writer.feed_many(trajectory[:8])  # two full buffers
        writer.abort()
        blob = sink.getvalue()
        with pytest.raises(ContainerFormatError, match="footer"):
            StreamingReader(blob)
        reader = StreamingReader(blob, recover=True)
        assert reader.recovered
        assert reader.n_buffers == 2
        full = stream_decompress(_stream_blob(trajectory, MDZConfig(buffer_size=4)))
        assert np.array_equal(reader.read_all(), full[:8])

    def test_exception_in_with_block_aborts(self, trajectory):
        sink = io.BytesIO()
        with pytest.raises(RuntimeError, match="simulated"):
            with StreamingWriter(sink, MDZConfig(buffer_size=4)) as writer:
                writer.feed_many(trajectory[:4])
                raise RuntimeError("simulated producer crash")
        reader = StreamingReader(sink.getvalue(), recover=True)
        assert reader.n_buffers == 1

    def test_truncation_drops_torn_buffer(self, trajectory):
        blob = _stream_blob(trajectory, MDZConfig(buffer_size=4))
        last_chunk = parse_stream(blob).chunks[-1]
        torn = blob[: last_chunk.offset + last_chunk.length // 2]
        reader = StreamingReader(torn, recover=True)
        assert reader.n_buffers == 2  # the third buffer lost an axis
        full = stream_decompress(blob)
        assert np.array_equal(reader.read_all(), full[:8])

    def test_truncation_without_recover_is_an_error(self, trajectory):
        blob = _stream_blob(trajectory, MDZConfig(buffer_size=4))
        with pytest.raises(ContainerFormatError):
            StreamingReader(blob[: len(blob) // 2])


class TestCorruption:
    def test_bad_magic_rejected(self, trajectory):
        blob = bytearray(_stream_blob(trajectory))
        blob[0] ^= 0xFF
        with pytest.raises(ContainerFormatError, match="magic"):
            StreamingReader(bytes(blob))

    def test_flipped_payload_byte_detected(self, trajectory):
        blob = bytearray(_stream_blob(trajectory, MDZConfig(buffer_size=4)))
        entry = parse_stream(bytes(blob)).chunks[0]
        blob[entry.offset + entry.length // 2] ^= 0x01
        with pytest.raises(ContainerFormatError, match="checksum"):
            StreamingReader(bytes(blob)).read_all()

    def test_corrupt_header_rejected(self, trajectory):
        blob = bytearray(_stream_blob(trajectory))
        blob[12] ^= 0x01  # inside the header JSON
        with pytest.raises(ContainerFormatError, match="header"):
            StreamingReader(bytes(blob))

    def test_recovery_scan_stops_at_corrupt_chunk(self, trajectory):
        blob = bytearray(_stream_blob(trajectory, MDZConfig(buffer_size=4)))
        entry = parse_stream(bytes(blob)).chunks[3]  # first chunk of buffer 1
        blob[entry.offset] ^= 0x01
        trailer = 12
        torn = bytes(blob)[: len(blob) - trailer]  # also drop the trailer
        reader = StreamingReader(torn, recover=True)
        assert reader.n_buffers == 1  # nothing after the bad frame is trusted
