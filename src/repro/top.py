"""``mdz top``: a terminal dashboard over the Prometheus exposition.

Polls ``GET /metrics`` of a running service (or renders one recorder
snapshot from a ``--metrics-json`` file) and paints a compact ANSI
dashboard: windowed throughput, request and error rates, stage latency
percentiles, cache hit rates, live sessions, and the quality-audit
gauges.  Counter *rates* are deltas between consecutive scrapes, so the
first refresh shows totals and every later one shows per-second rates;
``--once`` prints a single frame (totals only) and exits — that is what
CI archives.

No curses, no third-party client: plain ANSI escape codes over the
repository's own :mod:`repro.telemetry.prom` parser, so the dashboard
doubles as a consumer test of the exposition format.
"""

from __future__ import annotations

import time
import urllib.request

from .telemetry import prom
from .telemetry.histogram import QUANTILES

#: ANSI fragments; kept as data so ``color=False`` rendering stays trivial.
_CSI = "\x1b["
_RESET = _CSI + "0m"
_BOLD = _CSI + "1m"
_DIM = _CSI + "2m"
_RED = _CSI + "31m"
_GREEN = _CSI + "32m"
_YELLOW = _CSI + "33m"
_CLEAR = _CSI + "2J" + _CSI + "H"


def scrape(url: str, timeout: float = 5.0) -> dict[str, dict]:
    """Fetch and parse one ``/metrics`` exposition."""
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        text = resp.read().decode()
    return prom.parse(text)


def counter_totals(families: dict[str, dict]) -> dict[str, float]:
    """Sum each counter family across its label sets."""
    totals: dict[str, float] = {}
    for name, entry in families.items():
        if entry.get("type") != "counter":
            continue
        totals[name] = sum(v for _, _, v in entry["samples"])
    return totals


def gauge_values(families: dict[str, dict]) -> dict[str, float]:
    """Unlabeled value of each gauge family (server-wide series)."""
    values: dict[str, float] = {}
    for name, entry in families.items():
        if entry.get("type") != "gauge":
            continue
        for _, labels, value in entry["samples"]:
            if not labels:
                values[name] = value
    return values


def latest_gauge(
    families: dict[str, dict], name: str
) -> tuple[float, float | None] | None:
    """``(value, age_seconds)`` of one gauge family, or ``None``.

    Prefers the unlabeled (server-wide) series; with only labeled series
    (per-session quality gauges), picks the one whose companion
    ``<name>_age_seconds`` sample is smallest — the most recently
    updated tenant.
    """
    entry = families.get(name)
    if entry is None:
        return None
    ages = {
        tuple(sorted(lbls.items())): value
        for _, lbls, value in families.get(f"{name}_age_seconds", {}).get(
            "samples", []
        )
    }
    best: tuple[float, float | None] | None = None
    best_age = None
    for _, lbls, value in entry.get("samples", []):
        age = ages.get(tuple(sorted(lbls.items())))
        if not lbls:
            return (value, age)
        if best is None or (
            age is not None and (best_age is None or age < best_age)
        ):
            best, best_age = (value, age), age
    return best


def session_tokens(families: dict[str, dict]) -> set[str]:
    """Distinct ``session`` label values present in the exposition."""
    tokens: set[str] = set()
    for entry in families.values():
        for _, labels, _ in entry["samples"]:
            token = labels.get("session")
            if token:
                tokens.add(token)
    return tokens


def rates(
    prev: dict[str, float] | None,
    cur: dict[str, float],
    seconds: float,
) -> dict[str, float] | None:
    """Per-second counter rates between two scrapes (``None`` on first)."""
    if prev is None or seconds <= 0:
        return None
    return {
        name: max(0.0, cur[name] - prev.get(name, 0.0)) / seconds
        for name in cur
    }


def _mb(value: float) -> str:
    return f"{value / 1e6:8.2f}"


def _paint(text: str, code: str, color: bool) -> str:
    return f"{code}{text}{_RESET}" if color else text


def render(
    families: dict[str, dict],
    counter_rates: dict[str, float] | None = None,
    *,
    source: str = "",
    color: bool = True,
) -> str:
    """One dashboard frame as a string (no trailing clear/refresh codes)."""
    totals = counter_totals(families)
    gauges = gauge_values(families)
    lines: list[str] = []

    def head(title: str) -> None:
        lines.append(_paint(f"-- {title} " + "-" * max(0, 56 - len(title)),
                            _BOLD, color))

    stamp = time.strftime("%H:%M:%S")
    mode = "rates/s" if counter_rates is not None else "totals (first sample)"
    lines.append(
        _paint(f"mdz top  {stamp}  {source}  [{mode}]", _BOLD, color)
    )

    # Throughput: raw in vs compressed out, from the stream counters.
    head("throughput")
    raw = "mdz_stream_raw_bytes_total"
    out = "mdz_stream_chunk_bytes_total"
    view = counter_rates if counter_rates is not None else totals
    unit = "MB/s" if counter_rates is not None else "MB"
    raw_v, out_v = view.get(raw, 0.0), view.get(out, 0.0)
    ratio = totals.get(raw, 0.0) / max(totals.get(out, 0.0), 1.0)
    lines.append(
        f"  raw in   {_mb(raw_v)} {unit}    compressed out {_mb(out_v)} {unit}"
        f"    session CR {ratio:6.1f}x"
    )
    snaps = view.get("mdz_stream_snapshots_total", 0.0)
    label = "snapshots/s" if counter_rates is not None else "snapshots"
    lines.append(f"  {label:12s} {snaps:10.1f}")

    # Service plane: requests, errors, rejections, admission, tenants.
    head("service")
    req = view.get("mdz_service_requests_total", 0.0)
    err = view.get("mdz_service_errors_total", 0.0)
    rej = view.get("mdz_service_rejected_total", 0.0)
    err_text = f"errors {err:8.1f}"
    if totals.get("mdz_service_errors_total", 0.0) > 0:
        err_text = _paint(err_text, _YELLOW, color)
    lines.append(
        f"  requests {req:8.1f}   {err_text}   rejected {rej:8.1f}"
    )
    inflight = gauges.get("mdz_service_inflight", 0.0)
    sessions = len(session_tokens(families))
    lines.append(f"  inflight {inflight:8.0f}   live sessions {sessions:4d}")

    # Worker-pool health: shared-state cache and dispatch mix.
    head("executor")
    hits = totals.get("mdz_stream_executor_state_cache_hit_total", 0.0)
    misses = totals.get("mdz_stream_executor_state_cache_miss_total", 0.0)
    if hits + misses:
        lines.append(
            f"  state-cache hit rate {100.0 * hits / (hits + misses):5.1f}%"
            f"   ({hits:.0f} hit / {misses:.0f} miss)"
        )
    dispatched = totals.get("mdz_stream_executor_dispatched_total", 0.0)
    inline = totals.get("mdz_stream_executor_inline_total", 0.0)
    waits = totals.get("mdz_stream_executor_backpressure_waits_total", 0.0)
    lines.append(
        f"  dispatched {dispatched:8.0f}   inline {inline:8.0f}"
        f"   backpressure waits {waits:6.0f}"
    )

    # Stage latencies: the busiest histogram families, with quantiles
    # from the same estimator as the snapshot's timer views.
    hists = [
        (name, prom.histogram(entry))
        for name, entry in families.items()
        if entry.get("type") == "histogram"
    ]
    hists.sort(key=lambda kv: -kv[1].count)
    if hists:
        head("stage latency (ms)")
        lines.append(
            f"  {'stage':34s}{'calls':>8s}{'p50':>9s}{'p95':>9s}{'p99':>9s}"
        )
        for name, hist in hists[:8]:
            if not hist.count:
                continue
            cells = "".join(
                f"{hist.quantile(q)[0] * 1e3:9.3f}" for _, q in QUANTILES
            )
            short = name.removeprefix("mdz_").removesuffix("_seconds")
            lines.append(f"  {short:34s}{hist.count:8d}" + cells)

    # Quality plane: audit gauges plus the violation counter, loudly.
    head("quality")
    violations = totals.get("mdz_quality_bound_violations_total", 0.0)
    v_text = f"bound violations {violations:6.0f}"
    v_text = _paint(v_text, _RED if violations else _GREEN, color)
    audits = totals.get("mdz_quality_audits_total", 0.0)
    lines.append(f"  audits {audits:8.0f}   {v_text}")
    for name, label in (
        ("mdz_quality_max_abs_error", "max |err|"),
        ("mdz_quality_bound_margin", "bound margin"),
        ("mdz_quality_psnr", "psnr dB"),
        ("mdz_quality_ratio", "ratio"),
        ("mdz_quality_oos_fraction", "oos fraction"),
    ):
        got = latest_gauge(families, name)
        if got is None:
            continue
        value, age = got
        age_text = f"  ({age:.0f}s ago)" if age is not None else ""
        lines.append(
            f"  {label:14s} {value:12.6g}" + _paint(age_text, _DIM, color)
        )
    return "\n".join(lines)


def render_snapshot_file(path: str, *, color: bool = False) -> str:
    """One frame from a saved snapshot (local mode, no service).

    Accepts either a ``--metrics-json`` snapshot or a saved Prometheus
    exposition (e.g. a ``curl :8321/metrics`` capture) — the two
    offline artifacts MDZ produces.
    """
    import json

    text = open(path).read()
    try:
        snapshot = json.loads(text)
    except ValueError:
        families = prom.parse(text)
    else:
        families = prom.parse(prom.render(snapshot))
    return render(families, source=path, color=color)


def run(
    url: str,
    interval: float = 2.0,
    once: bool = False,
    iterations: int | None = None,
    color: bool | None = None,
    out=None,
) -> int:
    """The ``mdz top`` loop; returns the process exit code.

    ``iterations`` bounds the number of frames (tests); ``None`` runs
    until interrupted.  ``color=None`` autodetects from the stream.
    """
    import sys

    stream = out if out is not None else sys.stdout
    paint = stream.isatty() if color is None else color
    metrics_url = url.rstrip("/") + "/metrics"
    prev: dict[str, float] | None = None
    prev_t = 0.0
    frame = 0
    try:
        while True:
            try:
                families = scrape(metrics_url)
            except OSError as exc:
                print(f"mdz top: cannot scrape {metrics_url}: {exc}",
                      file=stream)
                return 1
            now = time.monotonic()
            totals = counter_totals(families)
            counter_rates = rates(prev, totals, now - prev_t)
            text = render(
                families, counter_rates, source=metrics_url, color=paint
            )
            if paint and not once:
                stream.write(_CLEAR)
            print(text, file=stream)
            stream.flush()
            prev, prev_t = totals, now
            frame += 1
            if once or (iterations is not None and frame >= iterations):
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0
