"""Tests for the telemetry layer: recorders, instrumentation, CLI surface."""

import io
import json

import numpy as np
import pytest

from repro.core.config import MDZConfig
from repro.core.mdz import MDZ
from repro.stream import StreamingReader, StreamingWriter, stream_compress
from repro.telemetry import (
    NULL_RECORDER,
    MetricsRecorder,
    NullRecorder,
    get_recorder,
    recording,
    set_recorder,
)


class TestRecorderPrimitives:
    def test_default_is_null_recorder(self):
        assert get_recorder() is NULL_RECORDER
        assert not get_recorder().enabled

    def test_null_recorder_is_inert(self):
        rec = NullRecorder()
        rec.count("x", 5)
        rec.gauge("y", 1.0)
        rec.event("z", "detail")
        with rec.timer("stage"):
            pass
        snap = rec.snapshot()
        assert snap["enabled"] is False
        assert snap["counters"] == {}

    def test_counters_accumulate(self):
        rec = MetricsRecorder()
        rec.count("a")
        rec.count("a", 4)
        assert rec.counter("a") == 5
        assert rec.counter("never") == 0
        rec.event("e")
        counters = rec.counters()
        assert counters == rec.snapshot()["counters"] == {"a": 5, "events.e": 1}
        counters["a"] = 0  # a copy: the recorder keeps its own
        assert rec.counter("a") == 5

    def test_gauge_keeps_latest(self):
        rec = MetricsRecorder()
        rec.gauge("depth", 3)
        rec.gauge("depth", 1)
        assert rec.snapshot()["gauges"]["depth"] == 1.0

    def test_timer_records_count_and_seconds(self):
        rec = MetricsRecorder()
        with rec.timer("stage"):
            pass
        with rec.timer("stage"):
            pass
        cell = rec.snapshot()["timers"]["stage"]
        assert cell["count"] == 2
        assert cell["seconds"] >= 0.0
        assert rec.stage_seconds("stage") == cell["seconds"]

    def test_observe_folds_external_interval(self):
        rec = MetricsRecorder()
        rec.observe("flush", 0.5)
        rec.observe("flush", 0.25)
        cell = rec.snapshot()["timers"]["flush"]
        assert cell["count"] == 2
        assert cell["seconds"] == pytest.approx(0.75)

    def test_events_are_counted_and_bounded(self):
        from repro.telemetry.recorder import MAX_EVENTS

        rec = MetricsRecorder()
        for i in range(MAX_EVENTS + 10):
            rec.event("overflow", str(i))
        snap = rec.snapshot()
        assert len(snap["events"]) == MAX_EVENTS
        assert snap["counters"]["events.overflow"] == MAX_EVENTS + 10
        # Oldest entries were dropped, newest survive.
        assert snap["events"][-1]["detail"] == str(MAX_EVENTS + 9)

    def test_snapshot_is_json_serializable(self):
        rec = MetricsRecorder()
        rec.count("a", 2)
        rec.gauge("g", 1.5)
        with rec.timer("t"):
            pass
        rec.event("e", "detail")
        json.dumps(rec.snapshot())

    def test_merge_adds_counters_and_timers(self):
        a, b = MetricsRecorder(), MetricsRecorder()
        a.count("n", 1)
        b.count("n", 2)
        b.gauge("g", 7)
        b.observe("t", 0.5)
        b.event("e")
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["n"] == 3
        assert snap["gauges"]["g"] == 7.0
        cell = snap["timers"]["t"]
        assert cell["count"] == 1
        assert cell["seconds"] == 0.5
        assert cell["min"] == cell["max"] == 0.5
        assert snap["events"]

    def test_timer_percentiles_and_extrema(self):
        rec = MetricsRecorder()
        for ms in (1, 1, 1, 1, 1, 1, 1, 1, 1, 200):
            rec.observe("t", ms / 1e3)
        cell = rec.snapshot()["timers"]["t"]
        assert cell["min"] == pytest.approx(1e-3)
        assert cell["max"] == pytest.approx(0.2)
        # Histogram-estimated: p50 near the 1 ms mass, p99 near the
        # 200 ms outlier, both clamped inside [min, max].
        assert cell["min"] <= cell["p50"] <= 2e-3
        assert 0.1 <= cell["p99"] <= cell["max"]
        assert cell["p50"] <= cell["p95"] <= cell["p99"]

    def test_merged_histograms_add(self):
        a, b = MetricsRecorder(), MetricsRecorder()
        a.observe("t", 0.001)
        b.observe("t", 0.001)
        b.observe("t", 4.0)
        a.merge(b.snapshot())
        cell = a.snapshot()["timers"]["t"]
        assert cell["count"] == 3
        assert cell["max"] == 4.0
        assert sum(cell["hist"].values()) == 3

    def test_event_detail_is_capped(self):
        from repro.telemetry.recorder import MAX_EVENT_DETAIL

        rec = MetricsRecorder()
        rec.event("boom", "x" * (MAX_EVENT_DETAIL * 4))
        detail = rec.snapshot()["events"][0]["detail"]
        assert len(detail) == MAX_EVENT_DETAIL
        assert detail.endswith("…")

    def test_reset_clears_everything(self):
        rec = MetricsRecorder()
        rec.count("a")
        rec.reset()
        snap = rec.snapshot()
        assert snap["counters"] == {} and snap["timers"] == {}

    def test_recording_restores_previous(self):
        before = get_recorder()
        with recording() as rec:
            assert get_recorder() is rec
        assert get_recorder() is before

    def test_recording_restores_on_exception(self):
        before = get_recorder()
        with pytest.raises(RuntimeError):
            with recording():
                raise RuntimeError("boom")
        assert get_recorder() is before

    def test_set_recorder_none_reinstalls_null(self):
        previous = set_recorder(MetricsRecorder())
        try:
            assert get_recorder().enabled
            set_recorder(None)
            assert get_recorder() is NULL_RECORDER
        finally:
            set_recorder(previous)

    def test_interleaved_recording_scopes_do_not_clobber(self):
        """Two concurrent tasks' recording() scopes stay isolated.

        The slot is a ContextVar: each asyncio task (tenant) sees its
        own recorder even while the scopes overlap in time — the
        regression the multi-tenant service depends on.
        """
        import asyncio

        async def tenant(name: str, results: dict) -> None:
            with recording() as rec:
                for _ in range(3):
                    get_recorder().count(f"tenant.{name}")
                    await asyncio.sleep(0)  # interleave with the other
            results[name] = rec.snapshot()["counters"]

        async def main() -> dict:
            results: dict = {}
            await asyncio.gather(tenant("a", results), tenant("b", results))
            return results

        results = asyncio.run(main())
        assert results["a"] == {"tenant.a": 3}
        assert results["b"] == {"tenant.b": 3}

    def test_recording_scope_propagates_into_to_thread(self):
        """asyncio.to_thread copies the context, recorder included."""
        import asyncio

        async def main() -> dict:
            with recording() as rec:
                await asyncio.to_thread(
                    lambda: get_recorder().count("from.thread")
                )
            return rec.snapshot()["counters"]

        assert asyncio.run(main()) == {"from.thread": 1}

    def test_context_local_scope_wins_over_global_slot(self):
        fallback = MetricsRecorder()
        previous = set_recorder(fallback)
        try:
            with recording() as scoped:
                get_recorder().count("scoped")
            get_recorder().count("global")
            assert scoped.snapshot()["counters"] == {"scoped": 1}
            assert fallback.snapshot()["counters"] == {"global": 1}
        finally:
            set_recorder(previous)


@pytest.fixture
def trajectory(rng) -> np.ndarray:
    levels = rng.integers(0, 8, 60) * 2.0
    return levels[None, :, None] + rng.normal(0, 0.03, (12, 60, 3))


class TestPipelineInstrumentation:
    def test_compress_records_stage_metrics(self, trajectory):
        with recording() as rec:
            blob = MDZ(MDZConfig(buffer_size=4)).compress(trajectory)
        snap = rec.snapshot()
        # 3 buffers x 3 axes.
        assert snap["counters"]["mdz.buffers"] == 9
        method_total = sum(
            v for k, v in snap["counters"].items() if k.startswith("mdz.method.")
        )
        assert method_total == 9
        assert snap["counters"]["mdz.compressed_bytes"] > 0
        assert snap["counters"]["sz.lossless.bytes_out"] > 0
        for stage in (
            "mdz.compress_batch",
            "sz.huffman.encode",
            "sz.lossless.compress",
        ):
            assert snap["timers"][stage]["seconds"] >= 0.0
        # The per-buffer blobs the recorder saw are exactly what landed in
        # the container payload (plus framing).
        assert snap["counters"]["mdz.compressed_bytes"] < len(blob)

    def test_adp_trials_recorded(self, trajectory):
        with recording() as rec:
            MDZ(MDZConfig(buffer_size=4, method="adp")).compress(trajectory)
        snap = rec.snapshot()
        # Trials at buffer 0 and the follow-up at buffer 1, per axis.
        assert snap["counters"]["adp.trials"] == 6
        winners = sum(
            v for k, v in snap["counters"].items() if k.startswith("adp.winner.")
        )
        assert winners == snap["counters"]["adp.trials"]
        assert snap["counters"]["adp.trial_bytes.vq"] > 0

    def test_fixed_method_has_no_adp_metrics(self, trajectory):
        with recording() as rec:
            MDZ(MDZConfig(buffer_size=4, method="vq")).compress(trajectory)
        snap = rec.snapshot()
        assert "adp.trials" not in snap["counters"]
        assert snap["counters"]["mdz.method.vq"] == 9

    def test_decompress_records_decode_stages(self, trajectory):
        blob = MDZ(MDZConfig(buffer_size=4)).compress(trajectory)
        with recording() as rec:
            MDZ().decompress(blob)
        snap = rec.snapshot()
        assert snap["timers"]["mdz.decompress_batch"]["count"] == 9
        assert snap["timers"]["sz.lossless.decompress"]["count"] >= 9
        assert snap["counters"]["sz.huffman.decode.symbols"] > 0

    def test_disabled_recorder_unchanged_by_compression(self, trajectory):
        MDZ(MDZConfig(buffer_size=4)).compress(trajectory)
        assert get_recorder().snapshot()["counters"] == {}


class TestStreamInstrumentation:
    def test_stream_records_chunks_and_queue(self, trajectory):
        sink = io.BytesIO()
        with recording() as rec:
            stats = stream_compress(
                trajectory, sink, MDZConfig(buffer_size=4)
            )
        snap = rec.snapshot()
        assert snap["counters"]["stream.chunks_written"] == stats.chunks == 9
        # In serial mode every chunk is encoded in session and pushed.
        assert snap["counters"]["stream.executor.pushed"] == stats.chunks
        assert "stream.executor.inline" not in snap["counters"]
        assert snap["gauges"]["stream.queue_depth"] == 0.0
        assert snap["timers"]["stream.flush"]["count"] == stats.buffers
        # Chunk frames are the container minus magic/header/footer.
        assert 0 < snap["counters"]["stream.chunk_bytes"] < stats.bytes_written

    def test_stage_seconds_bounded_by_wall_clock(self, trajectory):
        import time

        sink = io.BytesIO()
        with recording() as rec:
            t0 = time.perf_counter()
            stream_compress(trajectory, sink, MDZConfig(buffer_size=4))
            wall = time.perf_counter() - t0
        snap = rec.snapshot()
        # Every serial stage ran inside the wall-clock interval; the flush
        # timer (which contains compress_batch, which contains huffman and
        # lossless) cannot exceed it.
        assert snap["timers"]["stream.flush"]["seconds"] <= wall
        assert (
            snap["timers"]["sz.huffman.encode"]["seconds"]
            <= snap["timers"]["mdz.compress_batch"]["seconds"]
            <= snap["timers"]["stream.flush"]["seconds"]
        )

    def test_level_fit_timed_once_per_axis(self, trajectory):
        """The VQ level fit runs, and is timed, on the first buffer only."""
        with recording() as rec:
            writer = StreamingWriter(io.BytesIO(), MDZConfig(buffer_size=4))
            for snapshot in trajectory[:4]:
                writer.feed(snapshot)
            first = rec.snapshot()["timers"]["levels.fit"]["count"]
            for snapshot in trajectory[4:]:
                writer.feed(snapshot)
            stats = writer.close()
        assert stats.buffers == 3
        assert first == trajectory.shape[2] == 3
        assert rec.snapshot()["timers"]["levels.fit"]["count"] == 3


class TestCLITelemetry:
    def test_stats_command_prints_stage_table(self, tmp_path, capsys, trajectory):
        from repro.cli import main

        npy = tmp_path / "traj.npy"
        np.save(npy, trajectory)
        assert main(["stats", str(npy), "--buffer-size", "4"]) == 0
        out = capsys.readouterr().out
        assert "mdz.compress_batch" in out
        assert "sz.lossless.bytes_out" in out
        assert "% wall" in out

    def test_stats_metrics_json(self, tmp_path, trajectory):
        from repro.cli import main

        npy = tmp_path / "traj.npy"
        np.save(npy, trajectory)
        metrics = tmp_path / "metrics.json"
        out_mdz = tmp_path / "out.mdz"
        assert (
            main(
                [
                    "stats",
                    str(npy),
                    "--buffer-size",
                    "4",
                    "--output",
                    str(out_mdz),
                    "--metrics-json",
                    str(metrics),
                ]
            )
            == 0
        )
        snap = json.loads(metrics.read_text())
        assert snap["enabled"] is True
        assert snap["container_bytes"] == out_mdz.stat().st_size
        assert snap["wall_seconds"] > 0
        assert snap["counters"]["stream.chunks_written"] == 9
        # The kept container is a valid MDZ2 stream.
        assert StreamingReader(out_mdz.read_bytes()).snapshots == 12

    def test_compress_metrics_json(self, tmp_path, trajectory):
        from repro.cli import main

        npy = tmp_path / "traj.npy"
        np.save(npy, trajectory)
        metrics = tmp_path / "metrics.json"
        out = tmp_path / "out.mdz"
        assert (
            main(
                [
                    "compress",
                    str(npy),
                    str(out),
                    "--buffer-size",
                    "4",
                    "--metrics-json",
                    str(metrics),
                ]
            )
            == 0
        )
        snap = json.loads(metrics.read_text())
        assert snap["counters"]["mdz.buffers"] == 9
        assert snap["container_bytes"] == out.stat().st_size

    def test_compress_without_flag_leaves_telemetry_off(
        self, tmp_path, trajectory
    ):
        from repro.cli import main

        npy = tmp_path / "traj.npy"
        np.save(npy, trajectory)
        assert main(["compress", str(npy), str(tmp_path / "o.mdz")]) == 0
        assert get_recorder() is NULL_RECORDER
