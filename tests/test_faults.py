"""Chaos tests: deterministic fault injection against the MDZ2 pipeline.

The matrix parametrizes (fault kind x serial/parallel x chunk-boundary
offset; worker faults run parallel only, since a serial writer submits
no worker jobs) and asserts the no-silent-loss invariant for every cell: a run
ends in either a byte-exact archive or a salvage report accounting for
all snapshots, with every salvaged snapshot byte-identical to the
pristine decode.  Chunk-boundary offsets are computed from a pristine
archive's real layout, so faults land exactly at frame starts, inside
payloads, and on the last byte of a frame.
"""

import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import MDZConfig
from repro.exceptions import ContainerFormatError
from repro.faults import (
    ChaosResult,
    FaultPlan,
    FaultSpec,
    FaultyFile,
    apply_posthoc,
    run_chaos,
)
from repro.io.container import verify_container
from repro.stream import (
    StreamingReader,
    StreamingWriter,
    parse_stream,
    repair_stream,
    stream_compress,
    verify_stream,
)
from repro.stream import format as fmt
from repro.telemetry import recording

BUFFER_SIZE = 4
SNAPSHOTS = 16


@pytest.fixture(scope="module")
def positions():
    rng = np.random.default_rng(42)
    return rng.normal(size=(SNAPSHOTS, 20, 3)).cumsum(axis=0)


@pytest.fixture(scope="module")
def config():
    return MDZConfig(error_bound=1e-3, buffer_size=BUFFER_SIZE)


@pytest.fixture(scope="module")
def pristine(positions, config):
    buf = io.BytesIO()
    stream_compress(positions, buf, config)
    return buf.getvalue()


@pytest.fixture(scope="module")
def boundary_offsets(pristine):
    """Three byte offsets probing one mid-stream chunk frame exactly:
    its first header byte, a payload byte, and its final byte."""
    layout = parse_stream(pristine)
    entry = layout.chunks[4]  # a mid-stream chunk (buffer 1, axis 1)
    frame_start = entry.offset - fmt._CHUNK_HEAD.size
    frame_end = entry.offset + entry.length  # exclusive
    return {
        "frame_start": frame_start,
        "mid_payload": entry.offset + entry.length // 2,
        "frame_last_byte": frame_end - 1,
    }


def _assert_no_silent_loss(result: ChaosResult):
    """The invariant every matrix cell must satisfy."""
    assert result.ok, result.to_json()
    if result.outcome == "intact":
        assert result.byte_exact
        assert result.readable_snapshots == result.snapshots_fed
    else:
        assert result.accounted and result.content_exact
        covered = result.readable_snapshots + len(result.lost_snapshots)
        if result.truncated_tail:
            assert covered <= result.snapshots_fed
        else:
            assert covered == result.snapshots_fed
        # Lost indices are unique, sorted, and in range.
        lost = result.lost_snapshots
        assert lost == sorted(set(lost))
        assert all(0 <= i < result.snapshots_fed for i in lost)


# -- the matrix ---------------------------------------------------------


@pytest.mark.parametrize("workers", [0, 2], ids=["serial", "parallel"])
@pytest.mark.parametrize(
    "kind,times",
    [
        ("io_error", 1),  # transient: retries absorb it
        ("io_error", 10),  # permanent: writer crashes at the fence
        ("torn_write", 1),
        ("torn_write", 10),
    ],
    ids=["enospc-1", "enospc-perm", "torn-1", "torn-perm"],
)
@pytest.mark.parametrize(
    "boundary", ["frame_start", "mid_payload", "frame_last_byte"]
)
def test_write_fault_matrix(
    positions, config, boundary_offsets, kind, times, boundary, workers
):
    if workers and boundary != "mid_payload":
        pytest.skip("parallel runs cover one offset (pool startup cost)")
    plan = FaultPlan(
        (
            FaultSpec(
                kind,
                offset=boundary_offsets[boundary],
                length=5,
                times=times,
            ),
        ),
        seed=1,
    )
    result = run_chaos(positions, plan, config, workers=workers)
    _assert_no_silent_loss(result)
    assert result.injected, "the fault never fired"
    if times == 1:
        # A single transient failure must be fully absorbed by retries.
        assert result.outcome == "intact"
        assert result.crashed is None
    else:
        # A permanent fault crashes the writer; the fence guarantees a
        # salvageable prefix (footer-less, so the tail is flagged).
        assert result.outcome == "salvaged"
        assert result.crashed is not None
        assert result.truncated_tail


@pytest.mark.parametrize(
    "boundary", ["frame_start", "mid_payload", "frame_last_byte"]
)
@pytest.mark.parametrize("kind", ["corrupt", "truncate"])
def test_posthoc_fault_matrix(
    positions, config, boundary_offsets, kind, boundary
):
    spec = (
        FaultSpec(kind, offset=boundary_offsets[boundary], length=3)
        if kind == "corrupt"
        else FaultSpec(kind, offset=boundary_offsets[boundary])
    )
    result = run_chaos(positions, FaultPlan((spec,), seed=2), config)
    _assert_no_silent_loss(result)
    assert result.outcome == "salvaged"
    if kind == "corrupt":
        # Footer survived: the loss accounting must be exact.
        assert not result.truncated_tail
        assert (
            result.readable_snapshots + len(result.lost_snapshots)
            == SNAPSHOTS
        )
        assert result.lost_snapshots, "corruption must cost something"


@pytest.mark.parametrize("workers", [2], ids=["parallel"])
@pytest.mark.parametrize("times", [1, 10], ids=["transient", "permanent"])
def test_worker_fault_matrix(positions, config, times, workers):
    plan = FaultPlan(
        (FaultSpec("worker_fail", job_index=2, times=times),), seed=3
    )
    result = run_chaos(positions, plan, config, workers=workers)
    _assert_no_silent_loss(result)
    if times == 1:
        assert result.outcome == "intact"
    else:
        assert result.outcome == "salvaged"
        assert result.crashed is not None


def test_worker_fault_outlasting_pool_retries(positions, config):
    """A fault that outlasts the pool's two resubmissions but not the
    inline retries: the pool is abandoned, the job re-runs inline, and
    the archive is byte-exact."""
    plan = FaultPlan((FaultSpec("worker_fail", job_index=2, times=4),), seed=3)
    with recording() as rec:
        result = run_chaos(positions, plan, config, workers=2)
    _assert_no_silent_loss(result)
    assert result.injected, "the fault never fired"
    assert result.outcome == "intact"
    assert result.byte_exact
    counters = rec.snapshot()["counters"]
    assert counters["stream.executor.pool_abandoned"] == 1
    assert counters["stream.executor.jobs_rerun_inline"] >= 1


def test_combined_faults(positions, config, boundary_offsets):
    """A transient write fault plus post-hoc bit rot in one run."""
    plan = FaultPlan(
        (
            FaultSpec("io_error", offset=boundary_offsets["mid_payload"], times=1),
            FaultSpec(
                "corrupt",
                offset=boundary_offsets["frame_last_byte"],
                length=2,
                xor_mask=0x0F,
            ),
        ),
        seed=4,
    )
    result = run_chaos(positions, plan, config)
    _assert_no_silent_loss(result)
    assert result.outcome == "salvaged"


def test_seeded_plans_are_deterministic(positions, config):
    a = FaultPlan.random(99, size_hint=2000, n_faults=3)
    b = FaultPlan.random(99, size_hint=2000, n_faults=3)
    assert a.to_json() == b.to_json()
    r1 = run_chaos(positions, a, config)
    r2 = run_chaos(positions, b, config)
    assert r1.outcome == r2.outcome
    assert r1.lost_snapshots == r2.lost_snapshots
    assert r1.readable_snapshots == r2.readable_snapshots
    _assert_no_silent_loss(r1)


@pytest.mark.parametrize("seed", range(5))
def test_random_plan_sweep(positions, config, seed, pristine):
    """Seeded random plans never produce silent loss."""
    plan = FaultPlan.random(
        seed, size_hint=len(pristine), n_faults=2, jobs_hint=9
    )
    _assert_no_silent_loss(run_chaos(positions, plan, config))


def test_plan_json_roundtrip():
    plan = FaultPlan.random(7, n_faults=4)
    again = FaultPlan.from_json(json.loads(json.dumps(plan.to_json())))
    assert again == plan


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec("meteor_strike")
    with pytest.raises(ValueError):
        FaultSpec("io_error", times=0)
    with pytest.raises(ValueError):
        FaultSpec("corrupt", xor_mask=0)
    with pytest.raises(ValueError):
        FaultyFile(io.BytesIO(), [FaultSpec("corrupt")])


def test_faulty_file_is_transparent_without_faults(positions, config, pristine):
    """An empty fault set must not change a single byte."""
    buf = io.BytesIO()
    shim = FaultyFile(buf, [])
    with StreamingWriter(shim, config=config) as w:
        w.feed_many(positions)
    assert buf.getvalue() == pristine
    assert shim.injected == []


def test_apply_posthoc_clamps():
    blob = bytes(range(100))
    assert apply_posthoc(blob, [FaultSpec("corrupt", offset=5000)]) == blob
    assert apply_posthoc(blob, [FaultSpec("truncate", offset=-10)]) == blob[:90]
    flipped = apply_posthoc(
        blob, [FaultSpec("corrupt", offset=0, length=1, xor_mask=0xFF)]
    )
    assert flipped[0] == 0xFF and flipped[1:] == blob[1:]


def test_fault_telemetry_counters(positions, config, boundary_offsets):
    """Injected faults and writer retries surface as telemetry."""
    plan = FaultPlan(
        (
            FaultSpec(
                "io_error", offset=boundary_offsets["mid_payload"], times=2
            ),
        )
    )
    with recording() as rec:
        result = run_chaos(positions, plan, config)
    counters = rec.snapshot()["counters"]
    assert counters.get("faults.injected.io_error") == 2
    assert counters.get("stream.writer.write_retries", 0) >= 2
    assert counters.get("stream.writer.rollbacks", 0) >= 2
    assert result.outcome == "intact"


# -- repair and verify (the ISSUE acceptance paths) ---------------------


def test_repair_recovers_all_chunks_before_truncation(pristine):
    layout = parse_stream(pristine)
    # Cut inside chunk 8's payload: chunks 0..7 are fully before the cut.
    cut = layout.chunks[8].offset + 10
    repaired, report = repair_stream(pristine[:cut])
    assert report["chunks_kept"] == 8
    check = verify_stream(repaired)
    assert check["intact"], check
    # The repaired archive decodes its complete-buffer prefix cleanly.
    reader = StreamingReader(repaired)
    decoded = reader.read_all()
    full = StreamingReader(pristine).read_all()
    assert np.array_equal(decoded, full[: decoded.shape[0]])


def test_verify_reports_incomplete_buffer_after_repair(pristine):
    layout = parse_stream(pristine)
    cut = layout.chunks[5].offset + layout.chunks[5].length  # after (1, 2)...
    repaired, _ = repair_stream(pristine[: layout.chunks[4].offset + 3])
    check = verify_stream(repaired)
    assert check["intact"]
    assert check["warnings"], "partial buffer must be flagged"


def test_salvage_report_json_accounts_everything(pristine):
    bad = apply_posthoc(
        pristine,
        [FaultSpec("corrupt", offset=len(pristine) // 2, length=4)],
    )
    report = StreamingReader(bad, salvage=True).salvage_report()
    data = report.to_json()
    assert data["expected_snapshots"] == SNAPSHOTS
    assert (
        data["readable_snapshots"] + len(data["lost_snapshots"])
        == SNAPSHOTS
    )
    statuses = {b["buffer"]: b for b in data["buffers"]}
    for status in statuses.values():
        lo, hi = status["snapshots"]
        covered = set(range(lo, hi))
        if status["decodable"]:
            assert not covered & set(data["lost_snapshots"])
        else:
            assert covered <= set(data["lost_snapshots"])


# -- clean errors on degenerate files (both formats) --------------------


@pytest.mark.parametrize(
    "payload",
    [b"", b"MDZ2", b"MDZ2" + b"\x00" * 8, b"\x01\x04\x00\x00\x00\x00\x00\x00\x00MDZ"],
    ids=["empty", "magic-only", "short-header", "torn-mdz1"],
)
def test_degenerate_files_raise_clean_errors(tmp_path, payload):
    target = tmp_path / "broken.mdz"
    target.write_bytes(payload)
    with pytest.raises(ContainerFormatError) as exc_info:
        StreamingReader(target)
    message = str(exc_info.value)
    assert str(target) in message
    assert "struct" not in message  # never leak struct.error internals


def test_verify_container_dispatches_both_formats(mdz1_archive, pristine):
    mdz1 = mdz1_archive
    r1 = verify_container(mdz1)
    assert r1["format"] == "MDZ1" and r1["intact"]
    r1bad = verify_container(mdz1[:-7])
    assert not r1bad["intact"] and r1bad["errors"]
    r2 = verify_container(pristine)
    assert r2["format"] == "MDZ2" and r2["intact"]
    with pytest.raises(ContainerFormatError):
        verify_container(b"")


# -- CLI round trip -----------------------------------------------------


def _mdz(*argv, cwd):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
    )


def test_cli_verify_and_repair_walkthrough(tmp_path, pristine):
    """The README "Crash safety" walkthrough, as a test."""
    broken = tmp_path / "broken.mdz"
    broken.write_bytes(pristine[: int(len(pristine) * 0.7)])

    audit = _mdz("verify", str(broken), cwd=tmp_path)
    assert audit.returncode == 1
    assert "DAMAGED" in audit.stdout

    fixed = tmp_path / "fixed.mdz"
    report_path = tmp_path / "salvage.json"
    repair = _mdz(
        "repair", str(broken), str(fixed), "--report", str(report_path),
        cwd=tmp_path,
    )
    assert repair.returncode == 0, repair.stderr
    assert "snapshots recovered" in repair.stdout

    audit2 = _mdz("verify", str(fixed), "--json", str(tmp_path / "v.json"),
                  cwd=tmp_path)
    assert audit2.returncode == 0, audit2.stdout
    assert "intact" in audit2.stdout
    report = json.loads(report_path.read_text())
    assert report["readable_snapshots"] >= 1
    assert json.loads((tmp_path / "v.json").read_text())["intact"]


def test_cli_verify_empty_file(tmp_path):
    empty = tmp_path / "empty.mdz"
    empty.write_bytes(b"")
    result = _mdz("verify", str(empty), cwd=tmp_path)
    assert result.returncode == 1
    assert "empty" in result.stderr
    assert "Traceback" not in result.stderr
