"""Command-line interface: ``mdz`` compress/stream/decompress/info/stats/bench.

Usage (after ``python setup.py develop`` / ``pip install -e .``)::

    mdz compress  traj.npy traj.mdz --error-bound 1e-3 --buffer-size 10
    mdz compress  run.dump traj.mdz            # LAMMPS-style text dumps
    mdz stream    run.dump traj.mdz --workers 4    # chunked MDZ2 pipeline
    mdz decompress traj.mdz restored.npy
    mdz info      traj.mdz
    mdz verify    traj.mdz                     # integrity audit, no decode
    mdz repair    traj.mdz fixed.mdz           # rebuild from intact chunks
    mdz stats     traj.npy                     # per-stage time/byte profile
    mdz trace     traj.npy -o trace.json --provenance prov.jsonl
    mdz bench     traj.npy --compressors mdz,sz2,tng
    mdz serve     --port 8321                  # compression-as-a-service

Both ``compress`` and ``stream`` write the chunked, crash-recoverable
``MDZ2`` container.  ``compress`` loads the whole trajectory and
resolves a value-range bound against each axis's full range;
``stream`` feeds snapshots one at a time (the bound then comes from the
first buffer), optionally fanning compression across ``--workers``
processes.  ``decompress``/``info``/``verify`` also read legacy
``MDZ1`` containers, which nothing writes any more.

``verify`` audits a container without decoding payloads: frame CRCs,
footer/index agreement, and (MDZ2) the rolling checksum chain; exit code
0 means intact, 1 means damage was found (details on stdout, JSON via
``--json``).  ``repair`` rebuilds a damaged MDZ2 archive from its intact
chunk frames and reports exactly which snapshots could not be saved —
see the "Crash safety" walkthrough in the README.

``stats`` compresses with the telemetry layer enabled and prints where the
wall-clock and the container bytes go, stage by stage (prediction +
quantization live inside ``mdz.compress_batch``; the Huffman and
dictionary-coder stages are broken out), with p50/p95/p99 per stage from
the recorder's fixed-bucket histograms.  ``trace`` goes one level deeper:
it runs the same pipeline under a hierarchical span tracer and exports a
Chrome trace-event JSON (loadable in Perfetto) plus an optional JSONL
provenance dump with one record per compressed buffer — which method coded
it, what ADP measured, the entropy fan-out, raw vs. compressed bytes.
``compress``/``stream``/``stats``/``trace`` all accept
``--metrics-json PATH`` to dump the full telemetry snapshot for machine
consumption.

``serve`` runs the asyncio HTTP front end (:mod:`repro.service`):
one-shot compress/decompress/verify endpoints plus token-keyed
multi-tenant streaming sessions — see ``docs/service.md`` for the API
reference and backpressure semantics.

Input trajectories are ``.npy`` arrays of shape (snapshots, atoms, 3) (or
(snapshots, atoms)) or LAMMPS-style text dumps (``.dump``/``.lammpstrj``).
The same entry point is importable: ``python -m repro.cli ...``.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .core.config import MDZConfig
from .core.mdz import MDZ
from .core.registry import method_names
from .exceptions import ReproError
from .io.container import read_container_info
from .io.dump import frames_to_array, read_dump
from .telemetry import MetricsRecorder, recording


def _load_npy(path: Path) -> np.ndarray:
    """``np.load`` with unreadable-file errors normalized to ReproError."""
    try:
        return np.load(path)
    except ValueError as exc:
        # Not a .npy file (garbage header, pickled payload, truncation).
        raise ReproError(f"cannot read {path}: {exc}") from exc


def _load_trajectory(path: Path) -> np.ndarray:
    """Read a (snapshots, atoms, 3) trajectory from .npy or a text dump."""
    if path.suffix == ".npy":
        data = _load_npy(path)
    elif path.suffix in (".dump", ".lammpstrj", ".txt"):
        data = frames_to_array(read_dump(path))
    else:
        raise ReproError(
            f"unsupported trajectory format {path.suffix!r} "
            "(expected .npy, .dump, or .lammpstrj)"
        )
    if data.ndim == 2:
        data = data[:, :, None]
    if data.ndim != 3:
        raise ReproError(
            f"expected (snapshots, atoms[, axes]) data, got {data.shape}"
        )
    return data


def _metrics_scope(args: argparse.Namespace):
    """A recording scope when ``--metrics-json`` was given, else a no-op."""
    import contextlib

    if getattr(args, "metrics_json", None):
        return recording()
    return contextlib.nullcontext(None)


def _write_metrics(
    args: argparse.Namespace, rec: MetricsRecorder | None, **extras
) -> None:
    """Dump a telemetry snapshot (plus run-level extras) to the JSON path."""
    if rec is None:
        return
    snapshot = rec.snapshot()
    snapshot.update(extras)
    Path(args.metrics_json).write_text(json.dumps(snapshot, indent=2))
    print(f"telemetry snapshot -> {args.metrics_json}")


def _cmd_compress(args: argparse.Namespace) -> int:
    data = _load_trajectory(Path(args.input))
    config = _config_from_args(args)
    with _metrics_scope(args) as rec:
        t0 = time.perf_counter()
        blob = MDZ(config).compress(data)
        elapsed = time.perf_counter() - t0
    Path(args.output).write_bytes(blob)
    raw = data.astype(np.float32).nbytes
    print(
        f"{args.input}: {data.shape[0]} snapshots x {data.shape[1]} atoms "
        f"x {data.shape[2]} axes"
    )
    print(
        f"compressed {raw / 1e6:.2f} MB -> {len(blob) / 1e6:.3f} MB "
        f"(CR {raw / len(blob):.1f}x) in {elapsed:.2f}s"
    )
    _write_metrics(
        args, rec, wall_seconds=elapsed, container_bytes=len(blob), raw_bytes=raw
    )
    return 0


def _parse_members(value: str) -> tuple:
    """Split a ``--methods`` list: comma-separated members."""
    return tuple(part.strip() for part in value.split(",") if part.strip())


def _config_from_args(args: argparse.Namespace) -> MDZConfig:
    extra = {}
    members = getattr(args, "methods", None)
    if members:
        extra["adp_members"] = members
    return MDZConfig(
        error_bound=args.error_bound,
        error_bound_mode=args.bound_mode,
        buffer_size=args.buffer_size,
        method=args.method,
        sequence_mode=args.sequence,
        quantization_scale=args.scale,
        entropy_streams=getattr(args, "entropy_streams", None),
        audit_interval=getattr(args, "audit_interval", 32),
        **extra,
    )


def _iter_snapshots(path: Path):
    """Lazily yield (atoms, axes) snapshots from .npy or a text dump."""
    if path.suffix == ".npy":
        return iter(_load_npy(path))
    if path.suffix in (".dump", ".lammpstrj", ".txt"):
        from .io.dump import read_dump

        return (frame.positions for frame in read_dump(path))
    raise ReproError(
        f"unsupported trajectory format {path.suffix!r} "
        "(expected .npy, .dump, or .lammpstrj)"
    )


def _cmd_stream(args: argparse.Namespace) -> int:
    from .stream import StreamingWriter

    snapshots = _iter_snapshots(Path(args.input))
    with _metrics_scope(args) as rec:
        t0 = time.perf_counter()
        with StreamingWriter(
            args.output, _config_from_args(args), workers=args.workers
        ) as writer:
            for snapshot in snapshots:
                writer.feed(snapshot)
            stats = writer.close()
        elapsed = time.perf_counter() - t0
    mode = f"{args.workers} workers" if args.workers > 1 else "serial"
    print(
        f"{args.input}: streamed {stats.snapshots} snapshots "
        f"({stats.buffers} buffers, {mode})"
    )
    print(
        f"compressed {stats.raw_bytes / 1e6:.2f} MB -> "
        f"{stats.bytes_written / 1e6:.3f} MB "
        f"(CR {stats.compression_ratio:.1f}x) in {elapsed:.2f}s "
        f"({stats.raw_bytes / 1e6 / max(elapsed, 1e-9):.1f} MB/s)"
    )
    _write_metrics(
        args,
        rec,
        wall_seconds=elapsed,
        container_bytes=stats.bytes_written,
        raw_bytes=stats.raw_bytes,
        stream=stats.to_dict(),
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import ServiceConfig, serve

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        spool_dir=args.spool_dir,
        max_pending=args.max_pending,
        max_body=args.max_body_mb * 1024 * 1024,
        session_ttl=args.session_ttl,
        log_json=args.log_json,
    )
    print(
        f"mdz service on http://{config.host}:{config.port} "
        f"(max-pending {config.max_pending}, session TTL "
        f"{config.session_ttl:.0f}s) — Ctrl-C for graceful shutdown"
    )
    try:
        asyncio.run(serve(config))
    except KeyboardInterrupt:
        # Pre-3.11 path: the interrupt escapes asyncio.run after the
        # graceful-shutdown finally block already ran.
        pass
    # On 3.11+ asyncio.run converts Ctrl-C into a task cancellation that
    # serve() absorbs after finalizing sessions, so we land here either way.
    print("shutdown: live sessions finalized")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from .top import render_snapshot_file, run

    if args.file:
        print(render_snapshot_file(args.file, color=not args.no_color))
        return 0
    return run(
        args.url,
        interval=args.interval,
        once=args.once,
        color=False if args.no_color else None,
    )


def _format_stage_table(
    snapshot: dict, wall_seconds: float, container_bytes: int
) -> str:
    """Human-readable per-stage breakdown of one telemetry snapshot."""
    lines = []
    timers = snapshot.get("timers", {})
    gauges = snapshot.get("gauges", {})
    if timers:
        lines.append(
            f"{'stage':28s}{'calls':>8s}{'seconds':>10s}{'% wall':>8s}"
            f"{'p50 ms':>10s}{'p95 ms':>10s}{'p99 ms':>10s}{'±p95 ms':>9s}"
        )
        for name, cell in sorted(
            timers.items(), key=lambda kv: -kv[1]["seconds"]
        ):
            share = 100.0 * cell["seconds"] / max(wall_seconds, 1e-12)
            quantiles = "".join(
                f"{cell[q] * 1e3:10.3f}" if q in cell else f"{'-':>10s}"
                for q in ("p50", "p95", "p99")
            )
            widths = cell.get("bucket_widths", {})
            width = (
                f"{widths['p95'] * 1e3:9.3f}" if "p95" in widths else f"{'-':>9s}"
            )
            lines.append(
                f"{name:28s}{cell['count']:8d}{cell['seconds']:10.3f}"
                f"{share:7.1f}%{quantiles}{width}"
            )
        lines.append(
            "  (percentiles interpolate within power-of-two histogram "
            "buckets; ±p95 ms is the"
        )
        lines.append(
            "   width of the bucket holding p95 — the quantile's "
            "resolution; all three widths"
        )
        lines.append("   are in the JSON snapshot under bucket_widths)")
    if gauges:
        ages = snapshot.get("gauge_age_seconds", {})
        lines.append("")
        lines.append(f"{'gauge':36s}{'value':>14s}{'age':>8s}")
        for name, value in sorted(gauges.items()):
            age = ages.get(name)
            age_text = f"{age:7.1f}s" if age is not None else f"{'-':>8s}"
            lines.append(f"{name:36s}{value:14.6g}{age_text}")
    windows = snapshot.get("windows", {})
    window_rows = [
        (label, windows[label])
        for label in ("1m", "5m")
        if windows.get(label, {}).get("rates")
    ]
    if window_rows:
        lines.append("")
        lines.append(f"{'counter rate (/s)':36s}" + "".join(
            f"{label:>12s}" for label, _ in window_rows
        ))
        names = sorted({
            name for _, w in window_rows for name in w["rates"]
        })
        for name in names:
            cells = "".join(
                f"{w['rates'].get(name, 0.0):12.2f}" for _, w in window_rows
            )
            lines.append(f"{name:36s}{cells}")
    counters = snapshot.get("counters", {})
    byte_counters = {k: v for k, v in counters.items() if k.endswith("bytes")}
    other_counters = {
        k: v for k, v in counters.items() if not k.endswith("bytes")
    }
    if byte_counters:
        lines.append("")
        lines.append(f"{'bytes':28s}{'total':>14s}{'% container':>12s}")
        for name, value in sorted(byte_counters.items()):
            share = 100.0 * value / max(container_bytes, 1)
            lines.append(f"{name:28s}{value:14d}{share:11.1f}%")
    if other_counters:
        lines.append("")
        lines.append(f"{'counter':40s}{'value':>10s}")
        for name, value in sorted(other_counters.items()):
            lines.append(f"{name:40s}{value:10d}")
    events = snapshot.get("events", [])
    if events:
        lines.append("")
        lines.append(f"events ({len(events)}):")
        for ev in events:
            lines.append(f"  {ev['name']}: {ev['detail']}")
    return "\n".join(lines)


def _cmd_stats(args: argparse.Namespace) -> int:
    from .stream import stream_compress

    snapshots = _iter_snapshots(Path(args.input))
    sink = open(args.output, "wb") if args.output else io.BytesIO()
    try:
        with recording() as rec:
            t0 = time.perf_counter()
            stats = stream_compress(
                snapshots, sink, _config_from_args(args), workers=args.workers
            )
            elapsed = time.perf_counter() - t0
    finally:
        if args.output:
            sink.close()
    if getattr(args, "prom", False):
        from .telemetry import prom

        sys.stdout.write(prom.render(rec.snapshot()))
        if getattr(args, "metrics_json", None):
            _write_metrics(
                args,
                rec,
                wall_seconds=elapsed,
                container_bytes=stats.bytes_written,
                raw_bytes=stats.raw_bytes,
            )
        return 0
    print(
        f"{args.input}: {stats.snapshots} snapshots ({stats.buffers} "
        f"buffers) -> {stats.bytes_written} bytes "
        f"(CR {stats.compression_ratio:.1f}x) in {elapsed:.2f}s"
    )
    print()
    print(_format_stage_table(rec.snapshot(), elapsed, stats.bytes_written))
    if getattr(args, "metrics_json", None):
        _write_metrics(
            args,
            rec,
            wall_seconds=elapsed,
            container_bytes=stats.bytes_written,
            raw_bytes=stats.raw_bytes,
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .stream import stream_compress
    from .telemetry.export import write_chrome_trace, write_provenance
    from .telemetry.tracing import TracingRecorder

    snapshots = _iter_snapshots(Path(args.input))
    sink = open(args.container, "wb") if args.container else io.BytesIO()
    recorder = TracingRecorder()
    try:
        with recording(recorder):
            t0 = time.perf_counter()
            with recorder.span(
                "mdz.trace",
                dataset=Path(args.input).name,
                workers=args.workers,
            ):
                stats = stream_compress(
                    snapshots,
                    sink,
                    _config_from_args(args),
                    workers=args.workers,
                )
            elapsed = time.perf_counter() - t0
    finally:
        if args.container:
            sink.close()
    snap = recorder.snapshot()
    write_chrome_trace(args.output, snap)
    mode = f"{args.workers} workers" if args.workers > 1 else "serial"
    print(
        f"{args.input}: traced {stats.snapshots} snapshots "
        f"({stats.buffers} buffers, {mode}, "
        f"CR {stats.compression_ratio:.1f}x) in {elapsed:.2f}s"
    )
    print(
        f"trace: {len(snap['spans'])} spans -> {args.output} "
        "(open in https://ui.perfetto.dev or chrome://tracing)"
    )
    if args.provenance:
        n = write_provenance(args.provenance, snap)
        print(f"provenance: {n} buffer records -> {args.provenance}")
    if getattr(args, "metrics_json", None):
        _write_metrics(
            args,
            recorder,
            wall_seconds=elapsed,
            container_bytes=stats.bytes_written,
            raw_bytes=stats.raw_bytes,
        )
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    blob = Path(args.input).read_bytes()
    t0 = time.perf_counter()
    data = MDZ().decompress(blob)
    elapsed = time.perf_counter() - t0
    out = data.astype(np.float32) if args.float32 else data
    np.save(args.output, out)
    print(
        f"decompressed {data.shape[0]} snapshots x {data.shape[1]} atoms "
        f"in {elapsed:.2f}s -> {args.output}"
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    info = read_container_info(Path(args.input).read_bytes())
    print(f"container: {args.input}")
    print(
        f"  snapshots={info.snapshots} atoms={info.atoms} axes={info.axes} "
        f"buffer_size={info.buffer_size}"
    )
    print(
        "  error bounds: "
        + ", ".join(f"{b:.3e}" for b in info.error_bounds)
    )
    line = f"  method={info.method} sequence={info.sequence}"
    if info.members is not None:
        line += f" members={','.join(info.members)}"
    print(line)
    print(f"  buffers={info.n_buffers} payload={info.payload_bytes / 1e3:.1f} KB")
    for axis, methods in enumerate(info.methods_per_axis):
        summary = ", ".join(f"{m}x{c}" for m, c in sorted(methods.items()))
        print(f"  axis {axis}: {summary}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .exceptions import ContainerFormatError
    from .io.container import verify_container

    blob = Path(args.input).read_bytes()
    try:
        report = verify_container(blob)
    except ContainerFormatError as exc:
        raise ReproError(f"{args.input}: {exc}") from exc
    report["path"] = args.input
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2))
    verdict = "intact" if report["intact"] else "DAMAGED"
    print(f"{args.input}: {report['format']} {verdict}")
    print(
        f"  chunks={report['chunks']} snapshots={report['snapshots']}"
        + (
            f" footer={report['footer']} rolling={report['rolling']}"
            if report["format"] == "MDZ2"
            else ""
        )
    )
    for err in report.get("errors", []):
        print(f"  problem: {err}")
    for warning in report.get("warnings", []):
        print(f"  warning: {warning}")
    if not report["intact"] and report["format"] == "MDZ2":
        print(f"  hint: `mdz repair {args.input} <output>` rebuilds the "
              "archive from its intact chunks")
    return 0 if report["intact"] else 1


def _cmd_repair(args: argparse.Namespace) -> int:
    from .exceptions import ContainerFormatError
    from .io.container import container_version
    from .stream.format import repair_stream
    from .stream.reader import StreamingReader

    blob = Path(args.input).read_bytes()
    try:
        if container_version(blob) != 2:
            raise ReproError(
                f"{args.input}: repair supports chunked MDZ2 archives only "
                "(this is a legacy MDZ1 container, written in one piece "
                "with no per-chunk redundancy to rebuild from)"
            )
        repaired, report = repair_stream(blob)
        salvage = StreamingReader(blob, salvage=True).salvage_report()
    except ContainerFormatError as exc:
        raise ReproError(f"{args.input}: {exc}") from exc
    Path(args.output).write_bytes(repaired)
    print(
        f"{args.input}: kept {report['chunks_kept']} chunks, dropped "
        f"{report['chunks_dropped']} -> {args.output}"
    )
    print(
        f"  snapshots recovered: {salvage.readable_snapshots}"
        + (
            f" of {salvage.expected_snapshots}"
            if salvage.expected_snapshots is not None
            else " (original total unknown: footer lost)"
        )
    )
    if salvage.lost_snapshots:
        print(f"  snapshots lost: {_format_indices(salvage.lost_snapshots)}")
    if salvage.truncated_tail:
        print("  note: file was truncated; snapshots past the damage are gone")
    if args.report:
        payload = salvage.to_json()
        payload["repair"] = report
        Path(args.report).write_text(json.dumps(payload, indent=2))
        print(f"  salvage report -> {args.report}")
    return 0


def _format_indices(indices: list[int]) -> str:
    """Compact ``0-4, 9, 12-14`` rendering of sorted snapshot indices."""
    if not indices:
        return "none"
    runs: list[str] = []
    start = prev = indices[0]
    for i in indices[1:]:
        if i == prev + 1:
            prev = i
            continue
        runs.append(f"{start}-{prev}" if prev > start else f"{start}")
        start = prev = i
    runs.append(f"{start}-{prev}" if prev > start else f"{start}")
    return ", ".join(runs)


def _cmd_bench(args: argparse.Namespace) -> int:
    from .baselines.api import available_compressors
    from .io.batch import run_stream

    data = _load_trajectory(Path(args.input))
    names = [c.strip() for c in args.compressors.split(",") if c.strip()]
    unknown = sorted(set(names) - set(available_compressors()))
    if unknown:
        raise ReproError(
            f"unknown compressor(s): {', '.join(unknown)}; "
            f"registered: {', '.join(available_compressors())}"
        )
    print(
        f"{'compressor':12s} {'CR':>8s} {'comp MB/s':>10s} {'dec MB/s':>10s}"
    )
    for name in names:
        total = raw = comp_s = dec_s = 0
        for axis in range(data.shape[2]):
            stream = data[:, :, axis]
            decoded = run_stream(
                name,
                stream,
                None if name in _LOSSLESS else args.error_bound,
                args.buffer_size,
                decompress=True,
            )
            total += decoded.result.compressed_bytes
            raw += decoded.result.raw_bytes
            comp_s += decoded.result.compress_seconds
            dec_s += decoded.result.decompress_seconds
        mb = raw / 1e6
        print(
            f"{name:12s} {raw / total:8.2f} {mb / comp_s:10.1f} "
            f"{mb / dec_s:10.1f}"
        )
    return 0


_LOSSLESS = {"zstd", "zlib", "brotli", "fpc", "fpzip", "zfp-lossless"}


def build_parser() -> argparse.ArgumentParser:
    """The ``mdz`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="mdz",
        description="MDZ error-bounded lossy compressor for MD trajectories",
    )
    parser.add_argument(
        "--version", action="version", version=f"mdz {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_compression_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", help=".npy or LAMMPS-style dump file")
        p.add_argument("output", help="output .mdz container")
        p.add_argument(
            "--error-bound",
            type=float,
            default=1e-3,
            help="epsilon (default 1e-3)",
        )
        p.add_argument(
            "--bound-mode",
            choices=("value_range", "absolute"),
            default="value_range",
        )
        p.add_argument("--buffer-size", type=int, default=10)
        p.add_argument(
            "--method",
            choices=("adp", *method_names()),
            default="adp",
        )
        p.add_argument(
            "--methods",
            type=_parse_members,
            default=None,
            metavar="M1,M2,...",
            help="ADP candidate pool (comma-separated members; "
            "default vq,vqt,mt; only meaningful with --method adp)",
        )
        p.add_argument("--sequence", choices=("seq1", "seq2"), default="seq2")
        p.add_argument("--scale", type=int, default=1024)
        p.add_argument(
            "--entropy-streams",
            type=int,
            default=None,
            metavar="N",
            help="Huffman sub-stream fan-out: 1 = legacy single-stream "
            "blobs, N > 1 = that many interleaved H2 streams "
            "(default: auto-scale with array size)",
        )
        p.add_argument(
            "--audit-interval",
            type=int,
            default=32,
            metavar="N",
            help="round-trip decode every Nth buffer per axis to verify "
            "the error bound (0 disables; never changes output bytes; "
            "default 32)",
        )
        p.add_argument(
            "--metrics-json",
            metavar="PATH",
            help="enable telemetry and write the snapshot to PATH",
        )

    comp = sub.add_parser(
        "compress",
        help="compress a whole trajectory (chunked MDZ2, bound from its "
        "full value range)",
    )
    add_compression_options(comp)
    comp.set_defaults(func=_cmd_compress)

    stream = sub.add_parser(
        "stream",
        help="stream-compress a trajectory (chunked MDZ2, optional workers)",
    )
    add_compression_options(stream)
    stream.add_argument(
        "--workers",
        type=int,
        default=0,
        help="compression worker processes (default: serial)",
    )
    stream.set_defaults(func=_cmd_stream)

    stats = sub.add_parser(
        "stats",
        help="profile a compression run: per-stage times and byte accounting",
    )
    stats.add_argument("input", help=".npy or LAMMPS-style dump file")
    stats.add_argument(
        "--output",
        help="also keep the compressed MDZ2 container at this path",
    )
    stats.add_argument(
        "--error-bound", type=float, default=1e-3, help="epsilon (default 1e-3)"
    )
    stats.add_argument(
        "--bound-mode",
        choices=("value_range", "absolute"),
        default="value_range",
    )
    stats.add_argument("--buffer-size", type=int, default=10)
    stats.add_argument(
        "--method",
        choices=("adp", *method_names()),
        default="adp",
    )
    stats.add_argument(
        "--methods",
        type=_parse_members,
        default=None,
        metavar="M1,M2,...",
        help="ADP candidate pool (comma-separated members)",
    )
    stats.add_argument("--sequence", choices=("seq1", "seq2"), default="seq2")
    stats.add_argument("--scale", type=int, default=1024)
    stats.add_argument(
        "--workers",
        type=int,
        default=0,
        help="compression worker processes (default: serial)",
    )
    stats.add_argument(
        "--audit-interval",
        type=int,
        default=32,
        metavar="N",
        help="round-trip decode every Nth buffer per axis (0 disables)",
    )
    stats.add_argument(
        "--metrics-json",
        metavar="PATH",
        help="also write the telemetry snapshot to PATH",
    )
    stats.add_argument(
        "--prom",
        action="store_true",
        help="print the snapshot in Prometheus text format instead of "
        "the stage table",
    )
    stats.set_defaults(func=_cmd_stats)

    trace = sub.add_parser(
        "trace",
        help="trace a compression run: hierarchical spans (Perfetto JSON) "
        "and per-buffer provenance",
    )
    trace.add_argument("input", help=".npy or LAMMPS-style dump file")
    trace.add_argument(
        "-o",
        "--output",
        default="trace.json",
        help="Chrome trace-event JSON output (default: trace.json)",
    )
    trace.add_argument(
        "--provenance",
        metavar="PATH",
        help="also dump one JSONL provenance record per compressed buffer",
    )
    trace.add_argument(
        "--container",
        metavar="PATH",
        help="also keep the compressed MDZ2 container at this path",
    )
    trace.add_argument(
        "--error-bound", type=float, default=1e-3, help="epsilon (default 1e-3)"
    )
    trace.add_argument(
        "--bound-mode",
        choices=("value_range", "absolute"),
        default="value_range",
    )
    trace.add_argument("--buffer-size", type=int, default=10)
    trace.add_argument(
        "--method",
        choices=("adp", *method_names()),
        default="adp",
    )
    trace.add_argument(
        "--methods",
        type=_parse_members,
        default=None,
        metavar="M1,M2,...",
        help="ADP candidate pool (comma-separated members)",
    )
    trace.add_argument("--sequence", choices=("seq1", "seq2"), default="seq2")
    trace.add_argument("--scale", type=int, default=1024)
    trace.add_argument(
        "--workers",
        type=int,
        default=0,
        help="compression worker processes (default: serial)",
    )
    trace.add_argument(
        "--metrics-json",
        metavar="PATH",
        help="also write the aggregate telemetry snapshot to PATH",
    )
    trace.set_defaults(func=_cmd_trace)

    dec = sub.add_parser("decompress", help="decompress a container")
    dec.add_argument("input", help=".mdz container")
    dec.add_argument("output", help="output .npy file")
    dec.add_argument(
        "--float32",
        action="store_true",
        help="store the reconstruction as float32",
    )
    dec.set_defaults(func=_cmd_decompress)

    info = sub.add_parser("info", help="inspect a container")
    info.add_argument("input", help=".mdz container")
    info.set_defaults(func=_cmd_info)

    verify = sub.add_parser(
        "verify",
        help="audit a container's integrity (CRCs, index, rolling chain)",
    )
    verify.add_argument("input", help=".mdz container")
    verify.add_argument(
        "--json",
        metavar="PATH",
        help="also write the full verification report as JSON",
    )
    verify.set_defaults(func=_cmd_verify)

    repair = sub.add_parser(
        "repair",
        help="rebuild a damaged MDZ2 archive from its intact chunks",
    )
    repair.add_argument("input", help="damaged .mdz (MDZ2) container")
    repair.add_argument("output", help="repaired container path")
    repair.add_argument(
        "--report",
        metavar="PATH",
        help="also write the salvage report (lost snapshots) as JSON",
    )
    repair.set_defaults(func=_cmd_repair)

    bench = sub.add_parser("bench", help="compare compressors on a file")
    bench.add_argument("input", help=".npy or dump file")
    bench.add_argument(
        "--compressors",
        default="mdz,sz2,tng,lfzip",
        help="comma-separated registry names",
    )
    bench.add_argument("--error-bound", type=float, default=1e-3)
    bench.add_argument("--buffer-size", type=int, default=10)
    bench.set_defaults(func=_cmd_bench)

    serve = sub.add_parser(
        "serve",
        help="run the compression service (HTTP API, streaming sessions)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321)
    serve.add_argument(
        "--spool-dir",
        metavar="DIR",
        help="directory for session archives (default: a fresh tempdir)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=16,
        help="CPU-bound requests admitted at once; beyond it requests "
        "get 429 + Retry-After (default 16)",
    )
    serve.add_argument(
        "--max-body-mb",
        type=int,
        default=64,
        help="request body cap in MB (default 64)",
    )
    serve.add_argument(
        "--session-ttl",
        type=float,
        default=300.0,
        help="idle seconds before a streaming session expires (default 300)",
    )
    serve.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON logs (one object per line) on stderr",
    )
    serve.set_defaults(func=_cmd_serve)

    top = sub.add_parser(
        "top",
        help="live terminal dashboard over a service's /metrics exposition",
    )
    top.add_argument(
        "--url",
        default="http://127.0.0.1:8321",
        help="service base URL (default http://127.0.0.1:8321)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes (default 2)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="print a single frame and exit (for scripts and CI artifacts)",
    )
    top.add_argument(
        "--file",
        metavar="PATH",
        help="render a --metrics-json snapshot file instead of scraping",
    )
    top.add_argument(
        "--no-color",
        action="store_true",
        help="disable ANSI colors",
    )
    top.set_defaults(func=_cmd_top)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        # One line, not a traceback; OSError covers missing input,
        # unreadable paths, full disks (FileNotFoundError, ...).  The
        # bracketed code is the same stable string the HTTP service puts
        # in its JSON error bodies, so scripts branch on one vocabulary
        # across both surfaces.
        from .service.errors import error_code

        print(f"error: [{error_code(exc)}] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
