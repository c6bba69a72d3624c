"""``mdz top``: frame rendering, rate computation, gauge selection.

The dashboard is driven with synthetic parsed expositions (and real
recorder snapshots rendered through :mod:`repro.telemetry.prom`), so the
tests pin its arithmetic — counter deltas, session counting, quantiles —
without a live service or a TTY.
"""

from __future__ import annotations

from repro import top
from repro.telemetry import MetricsRecorder, prom


def _families(**sections):
    rec = MetricsRecorder()
    for name, n in sections.get("counters", {}).items():
        rec.count(name, n)
    for name, v in sections.get("gauges", {}).items():
        rec.gauge(name, v)
    for name, values in sections.get("timers", {}).items():
        for v in values:
            rec.observe(name, v)
    return prom.parse(prom.render(rec.snapshot()))


def test_counter_totals_sum_across_labels():
    text = prom.render_many([
        ({"counters": {"stream.raw_bytes": 100}}, None),
        ({"counters": {"stream.raw_bytes": 50}}, {"session": "t1"}),
    ])
    totals = top.counter_totals(prom.parse(text))
    assert totals["mdz_stream_raw_bytes_total"] == 150


def test_rates_from_consecutive_scrapes():
    prev = {"mdz_x_total": 100.0}
    cur = {"mdz_x_total": 160.0, "mdz_new_total": 5.0}
    rates = top.rates(prev, cur, 30.0)
    assert rates["mdz_x_total"] == 2.0
    assert rates["mdz_new_total"] == 5.0 / 30.0
    assert top.rates(None, cur, 30.0) is None  # first sample: no rates


def test_rates_clamp_counter_resets():
    assert top.rates({"mdz_x_total": 10.0}, {"mdz_x_total": 3.0}, 1.0) == {
        "mdz_x_total": 0.0
    }


def test_session_tokens_counted():
    text = prom.render_many([
        ({"counters": {"hits": 1}}, {"session": "aaa"}),
        ({"counters": {"hits": 2}}, {"session": "bbb"}),
        ({"counters": {"hits": 3}}, None),
    ])
    assert top.session_tokens(prom.parse(text)) == {"aaa", "bbb"}


def test_latest_gauge_prefers_unlabeled_then_freshest():
    text = prom.render_many([
        ({"gauges": {"quality.ratio": 3.0},
          "gauge_age_seconds": {"quality.ratio": 40.0}},
         {"session": "old"}),
        ({"gauges": {"quality.ratio": 5.0},
          "gauge_age_seconds": {"quality.ratio": 2.0}},
         {"session": "fresh"}),
    ])
    value, age = top.latest_gauge(prom.parse(text), "mdz_quality_ratio")
    assert value == 5.0 and age == 2.0

    unlabeled = prom.parse(prom.render(
        {"gauges": {"quality.ratio": 7.0},
         "gauge_age_seconds": {"quality.ratio": 0.5}}
    ))
    value, age = top.latest_gauge(unlabeled, "mdz_quality_ratio")
    assert value == 7.0 and age == 0.5


def test_render_frame_contains_all_panels():
    families = _families(
        counters={
            "stream.raw_bytes": 10_000_000,
            "stream.chunk_bytes": 2_000_000,
            "service.requests": 42,
            "quality.audits": 6,
            "stream.executor.state_cache.hit": 9,
            "stream.executor.state_cache.miss": 1,
        },
        gauges={"quality.max_abs_error": 1.5e-4, "service.inflight": 2},
        timers={"stream.flush": [0.01, 0.02, 0.04]},
    )
    text = top.render(families, color=False)
    assert "throughput" in text and "quality" in text
    assert "10.00 MB" in text
    assert "CR    5.0x" in text
    assert "state-cache hit rate  90.0%" in text
    assert "stream_flush" in text
    assert "bound violations      0" in text
    assert "max |err|" in text
    assert "\x1b[" not in text  # color=False means no ANSI at all


def test_stage_panel_prints_snapshot_quantiles():
    """The stage panel reports the quantiles ``mdz stats`` reports."""
    rec = MetricsRecorder()
    for seconds, n in ((1.2e-3, 50), (1.9e-3, 50), (0.3e-3, 5), (0.4, 1)):
        for _ in range(n):
            rec.observe("mdz.compress_batch", seconds)
    snap = rec.snapshot()
    frame = top.render(prom.parse(prom.render(snap)), color=False)
    (row,) = [line for line in frame.splitlines() if "compress_batch" in line]
    view = snap["timers"]["mdz.compress_batch"]
    assert row.endswith(
        "".join(f"{view[q] * 1e3:9.3f}" for q in ("p50", "p95", "p99"))
    )
    assert row.endswith("    1.516    2.004    2.047")


def test_render_colors_violations_red():
    families = _families(counters={"quality.bound_violations": 3})
    text = top.render(families, color=True)
    assert "\x1b[31m" in text  # red
    clean = top.render(families, color=False)
    assert "bound violations      3" in clean


def test_render_rates_mode_label():
    families = _families(counters={"service.requests": 10})
    totals = top.counter_totals(families)
    text = top.render(families, top.rates(totals, totals, 1.0), color=False)
    assert "[rates/s]" in text
    assert "[totals (first sample)]" not in text


def test_render_snapshot_file(tmp_path):
    import json

    rec = MetricsRecorder()
    rec.count("stream.raw_bytes", 4_000_000)
    rec.gauge("quality.psnr", 70.0)
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(rec.snapshot()))
    text = top.render_snapshot_file(str(path))
    assert "4.00 MB" in text
    assert "psnr dB" in text


def test_run_against_live_exposition(tmp_path, monkeypatch):
    """Two iterations over a canned scrape function: totals then rates."""
    import io

    frames = [
        _families(counters={"service.requests": 10}),
        _families(counters={"service.requests": 20}),
    ]
    calls = {"n": 0}

    def fake_scrape(url, timeout=5.0):
        calls["n"] += 1
        return frames[min(calls["n"] - 1, len(frames) - 1)]

    monkeypatch.setattr(top, "scrape", fake_scrape)
    monkeypatch.setattr(top.time, "sleep", lambda s: None)
    out = io.StringIO()
    code = top.run("http://x", interval=0.0, iterations=2, color=False,
                   out=out)
    assert code == 0 and calls["n"] == 2
    text = out.getvalue()
    assert "[totals (first sample)]" in text
    assert "[rates/s]" in text


def test_run_handles_unreachable_service(monkeypatch):
    import io

    def fail(url, timeout=5.0):
        raise OSError("connection refused")

    monkeypatch.setattr(top, "scrape", fail)
    out = io.StringIO()
    assert top.run("http://nope", once=True, color=False, out=out) == 1
    assert "cannot scrape" in out.getvalue()
