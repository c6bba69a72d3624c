"""Prometheus exposition: render, parse, validate, quantile estimation.

The renderer and the miniature parser are exercised against each other
(round-trip), against hand-written expositions (format details: label
escaping, TYPE rules, cumulative buckets), and against the recorder's
real snapshots — the same path ``GET /metrics`` serves.
"""

from __future__ import annotations

import math

import pytest

from repro.telemetry import MetricsRecorder, TIMER_BUCKETS
from repro.telemetry import prom


def _snapshot():
    rec = MetricsRecorder()
    rec.count("service.requests", 7)
    rec.gauge("quality.ratio", 3.5)
    for seconds in (1e-4, 2e-4, 1e-3):
        rec.observe("stream.flush", seconds)
    return rec.snapshot()


class TestRender:
    def test_families_and_types(self):
        families = prom.validate(prom.render(_snapshot()))
        assert families["mdz_service_requests_total"]["type"] == "counter"
        assert families["mdz_quality_ratio"]["type"] == "gauge"
        assert families["mdz_stream_flush_seconds"]["type"] == "histogram"
        # Gauges grow a staleness companion.
        assert families["mdz_quality_ratio_age_seconds"]["type"] == "gauge"

    def test_histogram_is_cumulative_with_inf(self):
        families = prom.validate(prom.render(_snapshot()))
        samples = families["mdz_stream_flush_seconds"]["samples"]
        buckets = [(float(lb["le"]), v) for n, lb, v in samples
                   if n.endswith("_bucket")]
        assert len(buckets) == len(TIMER_BUCKETS) + 1
        counts = [v for _, v in sorted(buckets)]
        assert counts == sorted(counts)
        assert math.isinf(sorted(buckets)[-1][0])
        count = [v for n, _, v in samples if n.endswith("_count")][0]
        assert count == 3

    def test_labels_escaped_and_stamped(self):
        text = prom.render(
            {"counters": {"hits": 1}}, labels={"session": 'a"b\\c\nd'}
        )
        families = prom.parse(text)
        (_, labels, value), = families["mdz_hits_total"]["samples"]
        assert labels["session"] == 'a"b\\c\nd'
        assert value == 1

    def test_render_many_single_type_per_family(self):
        text = prom.render_many([
            ({"counters": {"hits": 1}}, None),
            ({"counters": {"hits": 2}}, {"session": "t1"}),
            ({"counters": {"hits": 3}}, {"session": "t2"}),
        ])
        assert text.count("# TYPE mdz_hits_total counter") == 1
        families = prom.validate(text)
        assert len(families["mdz_hits_total"]["samples"]) == 3

    def test_type_conflict_raises(self):
        with pytest.raises(ValueError, match="declared both"):
            prom.render_many([
                ({"counters": {"x": 1}}, None),
                ({"gauges": {"x_total": 2}}, None),
            ])

    def test_metric_name_flattening(self):
        assert prom.metric_name("sz.huffman.encode", "_seconds") == \
            "mdz_sz_huffman_encode_seconds"
        assert prom.metric_name("a-b c") == "mdz_a_b_c"


class TestParseValidate:
    def test_rejects_duplicate_type(self):
        bad = (
            "# TYPE mdz_x counter\nmdz_x 1\n"
            "# TYPE mdz_x counter\nmdz_x 2\n"
        )
        with pytest.raises(ValueError, match="duplicate TYPE"):
            prom.parse(bad)

    def test_rejects_garbage_line(self):
        with pytest.raises(ValueError, match="unparseable"):
            prom.parse("this is not a metric\n")

    def test_validate_rejects_noncumulative_histogram(self):
        bad = (
            "# TYPE mdz_t_seconds histogram\n"
            'mdz_t_seconds_bucket{le="0.1"} 5\n'
            'mdz_t_seconds_bucket{le="1"} 3\n'
            'mdz_t_seconds_bucket{le="+Inf"} 3\n'
            "mdz_t_seconds_sum 1\nmdz_t_seconds_count 3\n"
        )
        with pytest.raises(ValueError, match="not cumulative"):
            prom.validate(bad)

    def test_validate_rejects_inf_count_mismatch(self):
        bad = (
            "# TYPE mdz_t_seconds histogram\n"
            'mdz_t_seconds_bucket{le="+Inf"} 3\n'
            "mdz_t_seconds_sum 1\nmdz_t_seconds_count 4\n"
        )
        with pytest.raises(ValueError, match="!= _count"):
            prom.validate(bad)

    def test_validate_rejects_undeclared_samples(self):
        with pytest.raises(ValueError, match="without a TYPE"):
            prom.validate("mdz_orphan 1\n")

    def test_help_comments_pass_through(self):
        text = "# HELP mdz_x something\n# TYPE mdz_x counter\nmdz_x 1\n"
        assert prom.validate(text)["mdz_x"]["samples"] == [("mdz_x", {}, 1.0)]


class TestHistogramQuantile:
    def test_matches_bucket_containing_mass(self):
        families = prom.parse(prom.render(_snapshot()))
        hist = prom.histogram(families["mdz_stream_flush_seconds"])
        p50, _ = hist.quantile(0.50)
        # Samples: 1e-4, 2e-4, 1e-3; the median lives near 2e-4's bucket.
        assert 1e-4 <= p50 <= 5e-4
        p99, _ = hist.quantile(0.99)
        assert p99 >= p50

    def test_empty_histogram_returns_none(self):
        entry = {"samples": [("x_bucket", {"le": "+Inf"}, 0.0)]}
        assert prom.histogram(entry).quantile(0.5) is None

    def test_labelled_series_add(self):
        lo, hi = repr(TIMER_BUCKETS[9]), repr(TIMER_BUCKETS[10])
        text = (
            "# TYPE mdz_t_seconds histogram\n"
            f'mdz_t_seconds_bucket{{session="a",le="{lo}"}} 4\n'
            f'mdz_t_seconds_bucket{{session="a",le="{hi}"}} 4\n'
            'mdz_t_seconds_bucket{session="a",le="+Inf"} 4\n'
            'mdz_t_seconds_sum{session="a"} 0.0015\n'
            'mdz_t_seconds_count{session="a"} 4\n'
            f'mdz_t_seconds_bucket{{session="b",le="{lo}"}} 0\n'
            f'mdz_t_seconds_bucket{{session="b",le="{hi}"}} 6\n'
            'mdz_t_seconds_bucket{session="b",le="+Inf"} 6\n'
            'mdz_t_seconds_sum{session="b"} 0.005\n'
            'mdz_t_seconds_count{session="b"} 6\n'
        )
        hist = prom.histogram(prom.validate(text)["mdz_t_seconds"])
        assert hist.count == 10
        assert hist.seconds == pytest.approx(0.0065)
        # a's 4 fill the bucket ending at the first edge, b's 6 the next.
        assert hist.buckets == {9: 4, 10: 6}
        assert hist.quantile(0.4) == (TIMER_BUCKETS[9], TIMER_BUCKETS[9] / 2)

    @pytest.mark.parametrize("labels", [{"le": "1"}, {}])
    def test_rejects_bucket_off_the_grid(self, labels):
        entry = {"samples": [("t_bucket", labels, 1.0)]}
        with pytest.raises(ValueError, match="TIMER_BUCKETS edge"):
            prom.histogram(entry)


def test_roundtrip_value_formats():
    snap = {"gauges": {"inf": math.inf, "neg": -2.5, "int": 3.0}}
    families = prom.parse(prom.render(snap))
    values = {n: e["samples"][0][2] for n, e in families.items()
              if not n.endswith("_age_seconds")}
    assert values["mdz_inf"] == math.inf
    assert values["mdz_neg"] == -2.5
    assert values["mdz_int"] == 3
