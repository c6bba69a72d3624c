"""MDZ benchmark entry point.

Run from the root of a checkout::

    python3 mdzbench/run.py --workload copper-stream --seed 1 --seconds 22 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` alternates
untraced and traced phases and reports the per-layer metrics.  Every
metric is printed as ``name value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``mdzbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Set-ups per run; ``setup_s`` is their median (plus the import time,
#: which only the first one pays).
SETUP_REPEATS = 3

#: Phases of a traced run, alternating untraced and traced.
TRACE_PHASES = 4


def end_to_end(stats, setup_s: float, tail_pct: float, write_timed: bool) -> dict:
    """The end-to-end metrics: medians over the run's samples.

    With ``write_timed`` (a parallel write, whose pieces the host-speed
    factor cannot scale), the per-session write metrics are the run's
    quickest quartile instead: a slower host or a busier scheduler only
    ever adds time, so the quickest sessions are the least disturbed.
    """
    import numpy as np

    median = statistics.median
    if write_timed:
        write_rate = float(np.percentile(stats.compress_mb_s, 75))
        write_start = float(np.percentile(stats.session_start_ms, 25))
    else:
        write_rate = median(stats.compress_mb_s)
        write_start = median(stats.session_start_ms)
    return {
        "setup_s": (setup_s, "s"),
        "compress_mb_s": (write_rate, "MB/s"),
        "session_start_ms": (write_start, "ms"),
        "decompress_mb_s": (median(stats.decompress_mb_s), "MB/s"),
        "random_read_ms": (median(stats.random_read_ms), "ms"),
        "compression_ratio": (median(stats.compression_ratio), "ratio"),
        "peak_mem_mb": (median(stats.peak_bytes) / 1e6, "MB"),
        "feed_p50_ms": (median(stats.feed_ms), "ms"),
        "feed_tail_ms": (float(np.percentile(stats.feed_ms, tail_pct)), "ms"),
        "sessions_per_s": (stats.sessions_per_s(), "1/s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import workloads  # imports numpy and the program
    from hostspeed import REFERENCE_S

    import_s = time.perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            f"{', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    workdir = ROOT / ".mdzbench_work" / str(os.getpid())
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        setups = []
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.teardown()
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setups)
        # The set-ups' own samples: the host speed while they ran.
        setup_factor = workload.speed.factor()
        workload.speed.samples.clear()
        if args.trace:
            metrics, notes = traced_run(workload, args.seconds)
        else:
            stats, as_timed = workloads.Stats(), workloads.Stats()
            workload.run_phase(args.seconds, stats, as_timed)
            factor = workload.speed.factor()
            write_timed = getattr(workload, "workers", 0) > 0
            metrics = end_to_end(
                stats, setup_s / setup_factor, workload.tail_pct, write_timed
            )
            raw = end_to_end(as_timed, setup_s, workload.tail_pct, write_timed)
            notes = [
                f"host-speed factor {factor:.4f} (set-up {setup_factor:.4f}): "
                f"median of {len(workload.speed.samples)} reference-kernel "
                f"samples / {REFERENCE_S} s",
                "as timed: "
                + ", ".join(f"{k} {v:.6g}" for k, (v, _) in raw.items()),
                f"sessions {stats.sessions}",
                f"feed samples {len(stats.feed_ms)}, tail = "
                f"p{workload.tail_pct:g}",
                f"random reads {len(stats.random_read_ms)}",
                "peak samples (MB) "
                + " ".join(f"{b / 1e6:.0f}" for b in stats.peak_bytes),
            ]
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    checks = workload.checks
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {checks.failed / max(checks.attempted, 1):.6g} ratio")
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


def traced_run(workload, seconds: float):
    """Alternate untraced and traced phases; returns per-layer metrics."""
    from layertrace import LayerTracer
    from workloads import Stats

    plain, traced = Stats(), Stats()
    tracer = LayerTracer()
    for phase in range(TRACE_PHASES):
        if phase % 2:
            tracer.install()
        try:
            workload.run_phase(
                seconds / TRACE_PHASES, traced if phase % 2 else plain
            )
        finally:
            tracer.uninstall()
    overhead = (
        statistics.median(plain.compress_mb_s)
        / statistics.median(traced.compress_mb_s)
        - 1.0
    ) * 100.0
    metrics = tracer.layer_metrics(
        traced.sessions, overhead, traced.handler_client_s
    )
    n = max(traced.sessions, 1)
    notes = [
        f"traced sessions {traced.sessions}, untraced sessions {plain.sessions}",
        f"{len(tracer.spans)} spans; per traced session:",
        f"{'span':28s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}",
    ]
    calls, total, self_time, _ = tracer.by_name()
    for name in sorted(total, key=total.get, reverse=True):
        notes.append(
            f"{name:28s} {calls[name] / n:9.1f} {total[name] / n:10.4f} "
            f"{self_time[name] / n:10.4f}"
        )
    return metrics, notes


if __name__ == "__main__":
    sys.exit(main())
