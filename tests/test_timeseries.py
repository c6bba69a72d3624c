"""Rolling windows and the bucket math of the shared histogram type.

:class:`RollingWindows` is driven with an injectable clock, so every
assertion about 1m/5m rates, bucket recycling, and uptime clamping is
deterministic — no sleeps.
"""

from __future__ import annotations

import pytest

from repro.telemetry import (
    Histogram,
    MetricsRecorder,
    RollingWindows,
    TIMER_BUCKETS,
)


class _Clock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now


def _unclamped(buckets: dict[int, int]) -> Histogram:
    """A histogram with bucket counts only, as a scrape rebuilds it."""
    return Histogram.from_json({
        "count": sum(buckets.values()),
        "seconds": 0.0,
        "hist": {str(k): n for k, n in buckets.items()},
    })


class TestBucketMath:
    def test_bounds_bracket_their_bucket(self):
        for seconds in (2e-6, 1e-3, 0.5, 30.0):
            hist = Histogram()
            hist.observe(seconds)
            (index,) = hist.buckets
            lo, hi = TIMER_BUCKETS[index - 1], TIMER_BUCKETS[index]
            assert lo <= seconds <= hi
            # Without extrema the lone sample's median sits halfway
            # across its bucket; with them it is clamped to the sample.
            estimate, width = _unclamped({index: 1}).quantile(0.5)
            assert lo < estimate < hi
            assert width == pytest.approx(hi - lo)
            assert hist.quantile(0.5) == (seconds, width)

    def test_first_and_overflow_buckets(self):
        hist = Histogram()
        hist.observe(0.0)
        hist.observe(1e30)
        assert set(hist.buckets) == {0, len(TIMER_BUCKETS)}
        estimate, width = hist.quantile(0.25)
        assert 0.0 <= estimate <= TIMER_BUCKETS[0]
        assert width == TIMER_BUCKETS[0]
        # The overflow bucket extrapolates one more doubling instead of
        # +inf, so reported percentile widths stay finite.
        estimate, width = hist.quantile(0.99)
        assert TIMER_BUCKETS[-1] <= estimate <= 2 * TIMER_BUCKETS[-1]
        assert width == pytest.approx(TIMER_BUCKETS[-1])

    def test_percentile_interpolates(self):
        hist = _unclamped({10: 50, 12: 50})
        p25, _ = hist.quantile(0.25)
        assert p25 == pytest.approx((TIMER_BUCKETS[9] + TIMER_BUCKETS[10]) / 2)
        p50, _ = hist.quantile(0.50)
        assert p50 == TIMER_BUCKETS[10]
        p99, width = hist.quantile(0.99)
        lo, hi = TIMER_BUCKETS[11], TIMER_BUCKETS[12]
        assert p99 == pytest.approx(lo + 0.98 * (hi - lo))
        assert width == pytest.approx(hi - lo)


class TestRollingWindows:
    def test_rates_reflect_recent_counts_only(self):
        clock = _Clock()
        win = RollingWindows(bucket_seconds=5.0, buckets=72, clock=clock)
        win.note_count("reqs", 100)
        clock.now += 60.0
        win.note_count("reqs", 30)
        view = win.window(60.0)
        # The 100-count bucket fell off the 1m edge; only 30 remain.
        assert view["counters"]["reqs"] == 30
        assert view["rates"]["reqs"] == 30 / view["seconds"]
        assert win.window(300.0)["counters"]["reqs"] == 130

    def test_span_clamped_to_uptime(self):
        clock = _Clock()
        win = RollingWindows(bucket_seconds=5.0, clock=clock)
        win.note_count("x", 10)
        clock.now += 2.0
        view = win.window(60.0)
        # Two seconds of history cannot claim a 60-second denominator.
        assert view["seconds"] <= 5.0
        assert view["rates"]["x"] >= 10 / 5.0

    def test_buckets_recycle_after_full_rotation(self):
        clock = _Clock()
        win = RollingWindows(bucket_seconds=1.0, buckets=4, clock=clock)
        win.note_count("x", 1)
        clock.now += 10.0  # far past the ring's span
        win.note_count("x", 2)
        assert win.window(4.0)["counters"]["x"] == 2

    def test_timer_percentiles_windowed(self):
        clock = _Clock()
        win = RollingWindows(bucket_seconds=5.0, clock=clock)
        lifetime = Histogram()
        for _ in range(100):
            win.note_observe("stage", 1e-3)
            lifetime.observe(1e-3)
        view = win.window(60.0)
        cell = view["timers"]["stage"]
        assert cell["count"] == 100
        for q in ("p50", "p95", "p99"):
            assert cell[q] == pytest.approx(1e-3)
        assert cell == lifetime.to_json()

    def test_snapshot_shape(self):
        win = RollingWindows(clock=_Clock())
        win.note_count("c", 1)
        snap = win.snapshot()
        assert set(snap) == {"bucket_seconds", "1m", "5m"}
        assert snap["1m"]["counters"]["c"] == 1


class TestRecorderIntegration:
    def test_snapshot_carries_windows_and_gauge_ages(self):
        rec = MetricsRecorder()
        rec.count("hits", 3)
        rec.gauge("depth", 7.0)
        with rec.timer("work"):
            pass
        snap = rec.snapshot()
        assert snap["windows"]["1m"]["counters"]["hits"] == 3
        assert "work" in snap["windows"]["1m"]["timers"]
        assert snap["gauge_age_seconds"]["depth"] >= 0.0
        assert "bucket_widths" in snap["timers"]["work"]
        widths = snap["timers"]["work"]["bucket_widths"]
        assert set(widths) == {"p50", "p95", "p99"}
        assert all(w > 0 for w in widths.values())

    def test_merge_folds_windows_and_ages(self):
        worker = MetricsRecorder()
        worker.count("jobs", 5)
        worker.gauge("ratio", 2.0)
        with worker.timer("encode"):
            pass
        main = MetricsRecorder()
        main.merge(worker.snapshot())
        snap = main.snapshot()
        assert snap["windows"]["1m"]["counters"]["jobs"] == 5
        assert snap["windows"]["1m"]["timers"]["encode"]["count"] == 1
        assert snap["gauge_age_seconds"]["ratio"] >= 0.0

    def test_reset_clears_windows(self):
        rec = MetricsRecorder()
        rec.count("x")
        rec.reset()
        snap = rec.snapshot()
        assert snap["windows"]["1m"]["counters"] == {}
        assert snap["gauge_age_seconds"] == {}

    def test_events_feed_window_counters(self):
        rec = MetricsRecorder()
        rec.event("pool_died", "detail")
        snap = rec.snapshot()
        assert snap["windows"]["1m"]["counters"]["events.pool_died"] == 1
