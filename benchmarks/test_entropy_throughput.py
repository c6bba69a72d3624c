"""Entropy-stage throughput: legacy scalar decode vs the H2 engine.

Measures Huffman encode/decode on a 1M-symbol quantization-code workload
(the geometric-ish residual distribution the SZ stage produces at scale
1024) through both blob formats: the legacy single-stream path
(``streams=1``, scalar table walker) and the interleaved multi-stream
``H2`` path (auto fan-out, round-based vectorized decoder).  The numbers
land in ``benchmarks/results/BENCH_entropy.json`` so CI can gate on decode
throughput regressions — see the ``entropy-smoke`` job.

Throughput is reported in MB/s of *raw symbol bytes* (int64, 8 B/symbol)
plus Msym/s, which is substrate-independent.

A second case times the batched decoder a read uses: 32 H2 blobs of
31,370 symbols each (the size of one copper-b buffer-axis), decoded in
one :func:`~repro.sz.huffman.decode_blobs` batch and again blob by blob.
"""

from __future__ import annotations

import json
import time

import numpy as np

from conftest import record, run_once
from repro.sz.huffman import HuffmanCodec, decode_blobs
from repro.telemetry import recording

N_SYMBOLS = 1_000_000
#: Acceptance floor: the vectorized decoder must beat the scalar walker by
#: at least this factor on the 1M-symbol workload.
MIN_DECODE_SPEEDUP = 5.0
#: Timed repetitions; the best run is reported (minimum = least noise).
REPS = 3
#: The batched case: blobs per batch and symbols per blob.
BATCH_BLOBS = 32
BATCH_SYMBOLS = 31_370
#: Acceptance floor: one batch must beat decoding its blobs one by one
#: by at least this factor.
MIN_BATCH_SPEEDUP = 2.5


def _workload(n: int = N_SYMBOLS, seed: int = 1234) -> np.ndarray:
    """n quantization-like codes: geometric residuals around mid-scale."""
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, n) * 2 - 1
    return (512 + signs * rng.geometric(0.08, n)).astype(np.int64)


def _best_seconds(fn, *args) -> float:
    best = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


#: Encode sub-stages timed by the codec (see ``HuffmanCodec.encode``).
ENCODE_STAGES = ("histogram", "table", "pack", "write")


def _encode_breakdown(data: np.ndarray, streams: int | None) -> dict:
    """Per-stage encode seconds (histogram / table build / pack / write).

    Runs one cold encode under a metrics recorder so a future encode
    regression is attributable to the stage that caused it.
    """
    with recording() as recorder:
        HuffmanCodec.encode(data, streams=streams)
    return {
        stage: recorder.stage_seconds(f"sz.huffman.encode.{stage}")
        for stage in ENCODE_STAGES
    }


def run_experiment() -> dict:
    data = _workload()
    raw_mb = data.size * data.itemsize / 1e6
    legacy_blob = HuffmanCodec.encode(data, streams=1)
    h2_blob = HuffmanCodec.encode(data)
    assert np.array_equal(HuffmanCodec.decode(legacy_blob), data)
    assert np.array_equal(HuffmanCodec.decode(h2_blob), data)
    results = {
        "benchmark": "entropy_throughput",
        "symbols": int(data.size),
        "raw_mb": raw_mb,
        "alphabet": int(np.unique(data).size),
        "paths": {},
    }
    for path, blob, streams in (
        ("legacy", legacy_blob, 1),
        ("h2", h2_blob, None),
    ):
        encode_s = _best_seconds(HuffmanCodec.encode, data, None, streams)
        decode_s = _best_seconds(HuffmanCodec.decode, blob)
        results["paths"][path] = {
            "blob_bytes": len(blob),
            "encode_s": encode_s,
            "decode_s": decode_s,
            "encode_mb_per_s": raw_mb / encode_s,
            "decode_mb_per_s": raw_mb / decode_s,
            "decode_msym_per_s": data.size / decode_s / 1e6,
            "encode_stages_s": _encode_breakdown(data, streams),
        }
    results["decode_speedup"] = (
        results["paths"]["legacy"]["decode_s"]
        / results["paths"]["h2"]["decode_s"]
    )
    results["batched"] = _batched_case()
    return results


def _batched_case() -> dict:
    """One batch of BATCH_BLOBS H2 blobs against the same blobs one by one."""
    arrays = [_workload(BATCH_SYMBOLS, seed) for seed in range(BATCH_BLOBS)]
    blobs = [HuffmanCodec.encode(a) for a in arrays]
    for got, want in zip(decode_blobs(blobs), arrays):
        assert np.array_equal(got, want)
    raw_mb = sum(a.nbytes for a in arrays) / 1e6
    batch_s = _best_seconds(decode_blobs, blobs)
    one_by_one_s = _best_seconds(
        lambda: [HuffmanCodec.decode(blob) for blob in blobs]
    )
    return {
        "blobs": BATCH_BLOBS,
        "symbols_per_blob": BATCH_SYMBOLS,
        "batch_s": batch_s,
        "one_by_one_s": one_by_one_s,
        "decode_mb_per_s": raw_mb / batch_s,
        "one_by_one_mb_per_s": raw_mb / one_by_one_s,
        "speedup": one_by_one_s / batch_s,
    }


def test_entropy_throughput(benchmark, results_dir):
    results = run_once(benchmark, run_experiment)
    (results_dir / "BENCH_entropy.json").write_text(
        json.dumps(results, indent=2) + "\n"
    )
    legacy = results["paths"]["legacy"]
    h2 = results["paths"]["h2"]
    batched = results["batched"]
    record(
        results_dir,
        "entropy_throughput",
        "\n".join(
            [
                "Entropy stage — 1M-symbol Huffman throughput (MB/s of raw int64)",
                f"{'path':10s}{'encode':>10s}{'decode':>10s}{'Msym/s':>10s}"
                f"{'blob KB':>10s}",
                f"{'legacy':10s}{legacy['encode_mb_per_s']:10.1f}"
                f"{legacy['decode_mb_per_s']:10.1f}"
                f"{legacy['decode_msym_per_s']:10.2f}"
                f"{legacy['blob_bytes'] / 1e3:10.1f}",
                f"{'h2':10s}{h2['encode_mb_per_s']:10.1f}"
                f"{h2['decode_mb_per_s']:10.1f}"
                f"{h2['decode_msym_per_s']:10.2f}"
                f"{h2['blob_bytes'] / 1e3:10.1f}",
                f"decode speedup: {results['decode_speedup']:.1f}x",
                f"batched: {batched['blobs']} x {batched['symbols_per_blob']} "
                f"symbols, {batched['decode_mb_per_s']:.1f} MB/s in one "
                "batch, "
                f"{batched['one_by_one_mb_per_s']:.1f} MB/s one by one "
                f"({batched['speedup']:.1f}x)",
            ]
        ),
    )
    assert results["decode_speedup"] >= MIN_DECODE_SPEEDUP, results
    assert batched["speedup"] >= MIN_BATCH_SPEEDUP, batched
