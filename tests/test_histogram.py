"""The one histogram type: merge, scrape round-trip and the estimator.

Every timer view — the recorder's lifetime timers, its rolling windows,
the ``/metrics`` exposition and ``mdz top`` — goes through
:class:`repro.telemetry.Histogram`, so these properties are what keeps
the views in agreement.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import TIMER_BUCKETS, Histogram, MetricsRecorder, prom
from repro.telemetry.histogram import QUANTILES

#: Durations from 0 to 100 s: zero, exact bucket edges, and values past
#: the last edge (~67 s) all occur.
durations = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=100.0),
        st.sampled_from((0.0, 100.0) + TIMER_BUCKETS),
    ),
    max_size=60,
)


def _histogram(values) -> Histogram:
    hist = Histogram()
    for value in values:
        hist.observe(value)
    return hist


def _snapshot(values) -> dict:
    rec = MetricsRecorder()
    for value in values:
        rec.observe("stage", value)
    return rec.snapshot()


def _scrape(snapshot: dict) -> Histogram:
    families = prom.parse(prom.render(snapshot))
    return prom.histogram(families["mdz_stage_seconds"])


@settings(max_examples=60, deadline=None)
@given(durations, durations)
def test_merge_equals_observing_both(first, second):
    merged = _histogram(first)
    merged.merge(_histogram(second))
    both = _histogram(first + second)
    assert merged.count == both.count
    assert merged.buckets == both.buckets
    assert (merged.min, merged.max) == (both.min, both.max)
    assert merged.seconds == pytest.approx(both.seconds)


@settings(max_examples=60, deadline=None)
@given(durations.filter(bool))
def test_scrape_reproduces_snapshot_exactly(values):
    snapshot = _snapshot(values)
    view = snapshot["timers"]["stage"]
    scraped = _scrape(snapshot)
    assert scraped.count == view["count"]
    assert scraped.seconds == view["seconds"]
    assert {str(k): n for k, n in scraped.buckets.items()} == view["hist"]


@settings(max_examples=60, deadline=None)
@given(durations.filter(bool), st.lists(st.floats(0.0, 1.0), min_size=2))
def test_quantile_monotone_and_inside_extrema(values, qs):
    hist = _histogram(values)
    estimates = [hist.quantile(q)[0] for q in sorted(qs)]
    assert estimates == sorted(estimates)
    assert all(hist.min <= e <= hist.max for e in estimates)


@settings(max_examples=60, deadline=None)
@given(durations.filter(bool))
def test_snapshot_quantile_is_clamped_scrape_quantile(values):
    snapshot = _snapshot(values)
    view = snapshot["timers"]["stage"]
    scraped = _scrape(snapshot)
    for label, q in QUANTILES:
        estimate, width = scraped.quantile(q)
        assert view[label] == min(max(estimate, view["min"]), view["max"])
        assert view["bucket_widths"][label] == width


def test_json_round_trip():
    hist = _histogram([0.0, 3e-6, 1e-3, 1e-3, 0.5, 90.0])
    view = hist.to_json()
    assert list(view) == [
        "count", "seconds", "min", "max", "p50", "p95", "p99",
        "bucket_widths", "hist",
    ]
    assert Histogram.from_json(view).to_json() == view
    assert Histogram().to_json() == {"count": 0, "seconds": 0.0}


def test_every_view_reports_the_same_quantiles():
    """Lifetime timer, 1m window and scrape agree on one sample."""
    rec = MetricsRecorder()
    for seconds, n in ((1.2e-3, 50), (1.9e-3, 50), (0.3e-3, 5), (0.4, 1)):
        for _ in range(n):
            rec.observe("stage", seconds)
    snapshot = rec.snapshot()
    lifetime = snapshot["timers"]["stage"]
    window = snapshot["windows"]["1m"]["timers"]["stage"]
    scraped = _scrape(snapshot)
    expected = {"p50": 1.51552e-3, "p95": 2.003968e-3, "p99": 2.0473856e-3}
    for label, q in QUANTILES:
        assert lifetime[label] == pytest.approx(expected[label])
        assert window[label] == lifetime[label]
        assert scraped.quantile(q)[0] == lifetime[label]
