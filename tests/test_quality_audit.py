"""The quality-audit plane: sampled round-trip error-bound verification.

Covers the contract end to end: deterministic sampling (serial and
parallel runs audit the same buffers and write byte-identical archives),
metric agreement with the reference definitions in
:mod:`repro.analysis.metrics`, and — through the faults shims — the
hard-violation path: a corrupted encoded chunk must drive
``quality.bound_violations`` from 0 to >= 1 and emit a structured event.
"""

from __future__ import annotations

import logging
import math

import numpy as np
import pytest

from repro.analysis.metrics import max_error, psnr
from repro.baselines.api import SessionMeta
from repro.core.config import MDZConfig
from repro.core.mdz import MDZAxisCompressor
from repro.exceptions import ConfigurationError
from repro.faults import apply_posthoc
from repro.faults.plan import FaultSpec
from repro.stream.writer import StreamingWriter
from repro.telemetry import MetricsRecorder, QualityAuditor, recording


def _trajectory(snapshots=48, atoms=80, axes=3, seed=7):
    rng = np.random.default_rng(seed)
    steps = rng.normal(scale=0.02, size=(snapshots, atoms, axes))
    return np.cumsum(steps, axis=0).astype(np.float64)


def _session(data_2d, bound=1e-3):
    config = MDZConfig(error_bound=bound, error_bound_mode="absolute")
    session = MDZAxisCompressor(config)
    session.begin(bound, SessionMeta(n_atoms=data_2d.shape[1]))
    return session


def _buffer_chunks(data_3d):
    """``(axis, session, blob, original)`` for every axis of one buffer."""
    chunks = []
    for axis in range(data_3d.shape[2]):
        original = data_3d[:, :, axis]
        session = _session(original)
        chunks.append((axis, session, session.compress_batch(original), original))
    return chunks


class TestAuditorUnit:
    def test_clean_roundtrip_is_within_bound(self):
        data = _trajectory()[:, :, 0]
        session = _session(data)
        blob = session.compress_batch(data)
        auditor = QualityAuditor(interval=1)
        with recording() as rec:
            [report] = auditor.audit(0, [(0, session, blob, data)])
        assert report.within_bound
        assert report.max_abs_error <= 1e-3 * (1 + 1e-9)
        assert auditor.violations == 0
        snap = rec.snapshot()
        assert snap["counters"]["quality.audits"] == 1
        assert snap["counters"].get("quality.bound_violations", 0) == 0
        assert "quality.max_abs_error" in snap["gauges"]

    def test_metrics_agree_with_reference_definitions(self):
        """Audit PSNR/max-error match repro.analysis.metrics bit for bit."""
        data = _trajectory()[:, :, 1]
        session = _session(data)
        blob = session.compress_batch(data)
        recon = np.asarray(
            session.clone().decompress_batch(blob), dtype=np.float64
        )
        [report] = QualityAuditor(interval=1).audit(
            0, [(0, session, blob, data)]
        )
        assert report.max_abs_error == pytest.approx(
            max_error(data, recon), rel=0, abs=0
        )
        assert report.psnr == pytest.approx(psnr(data, recon), rel=1e-12)

    def test_corrupted_blob_is_a_hard_violation(self, caplog):
        """Post-hoc corruption through the faults shim trips the counter."""
        data = _trajectory()[:, :, 0]
        session = _session(data)
        blob = session.compress_batch(data)
        bad = apply_posthoc(
            blob,
            [FaultSpec("corrupt", offset=len(blob) // 2, length=8,
                       xor_mask=0x5A)],
        )
        assert bad != blob
        auditor = QualityAuditor(interval=1)
        with recording() as rec, caplog.at_level(
            logging.ERROR, logger="mdz.quality"
        ):
            [report] = auditor.audit(0, [(0, session, bad, data)])
        assert not report.within_bound
        assert auditor.violations == 1
        snap = rec.snapshot()
        assert snap["counters"]["quality.bound_violations"] == 1
        events = [e for e in snap["events"]
                  if e["name"] == "quality.bound_violation"]
        assert len(events) == 1 and "buffer 0 axis 0" in events[0]["detail"]
        # The structured log record fires even without a recorder.
        assert any("error-bound violation" in r.getMessage()
                   for r in caplog.records)

    def test_decode_failure_reports_infinite_error(self):
        data = _trajectory()[:, :, 0]
        session = _session(data)
        [report] = QualityAuditor(interval=1).audit(
            0, [(0, session, b"not a blob", data)]
        )
        assert not report.within_bound
        assert report.decode_error is not None
        assert math.isinf(report.max_abs_error)
        assert report.psnr == -math.inf

    def test_broken_axis_is_the_only_violation(self):
        """One corrupted chunk of a three-axis buffer fails the grouped
        decode; each chunk then decodes alone, so only that axis is a
        violation and the other two are measured within bound."""
        data = _trajectory()
        chunks = _buffer_chunks(data)
        axis, session, blob, original = chunks[1]
        bad = apply_posthoc(
            blob,
            [FaultSpec("corrupt", offset=len(blob) // 2, length=8,
                       xor_mask=0x5A)],
        )
        chunks[1] = (axis, session, bad, original)
        auditor = QualityAuditor(interval=1)
        with recording() as rec:
            reports = auditor.audit(0, chunks)
        assert [r.axis for r in reports] == [0, 1, 2]
        assert [r.within_bound for r in reports] == [True, False, True]
        assert reports[1].decode_error is not None
        assert reports[0].decode_error is None
        assert reports[2].decode_error is None
        assert auditor.violations == 1
        snap = rec.snapshot()
        assert snap["counters"]["quality.bound_violations"] == 1
        assert snap["counters"]["quality.audits"] == 3
        [event] = [e for e in snap["events"]
                   if e["name"] == "quality.bound_violation"]
        assert "buffer 0 axis 1" in event["detail"]

    def test_buffer_decodes_in_one_entropy_pass(self):
        """The three chunks of an audited buffer share one Huffman batch,
        and the audit timer sees the buffer once."""
        data = _trajectory(snapshots=10, atoms=3000)
        chunks = _buffer_chunks(data)
        with recording() as rec:
            reports = QualityAuditor(interval=1).audit(0, chunks)
        assert all(r.within_bound for r in reports)
        timers = rec.snapshot()["timers"]
        assert timers["sz.huffman.decode"]["count"] == 1
        assert timers["quality.audit"]["count"] == 1

    def test_disabled_auditor_is_a_noop(self):
        auditor = QualityAuditor(interval=0)
        assert not auditor.enabled
        assert not auditor.want(0)
        auditor.stash(0, 0, np.zeros((2, 2)))
        assert auditor.pop(0, 0) is None

    def test_sampling_is_by_buffer_index(self):
        auditor = QualityAuditor(interval=4)
        assert [i for i in range(12) if auditor.want(i)] == [0, 4, 8]


class TestWriterIntegration:
    def test_stream_counts_audits(self, tmp_path):
        data = _trajectory(snapshots=40)
        config = MDZConfig(
            error_bound=1e-3, error_bound_mode="absolute",
            buffer_size=8, audit_interval=2,
        )
        with recording() as rec:
            with StreamingWriter(tmp_path / "a.mdz", config) as writer:
                for snap in data:
                    writer.feed(snap)
                stats = writer.close()
        # 5 buffers, indices 0/2/4 sampled, 3 axes each.
        assert stats.audits == 9
        assert stats.audit_violations == 0
        assert stats.to_dict()["audits"] == 9
        assert rec.snapshot()["counters"]["quality.audits"] == 9

    def test_audit_values_are_gauges_not_timers(self, tmp_path):
        """Ratios and bound margins are not durations: they must not land
        in the seconds histograms.  The only ``quality.*`` timer is the
        audit's own wall time."""
        data = _trajectory(snapshots=16)
        config = MDZConfig(
            error_bound=1e-3, error_bound_mode="absolute",
            buffer_size=8, audit_interval=1,
        )
        with recording() as rec:
            with StreamingWriter(tmp_path / "a.mdz", config) as writer:
                for snap in data:
                    writer.feed(snap)
                writer.close()
        snap = rec.snapshot()
        quality_timers = {
            name for name in snap["timers"] if name.startswith("quality.")
        }
        assert quality_timers == {"quality.audit"}
        assert {"quality.ratio", "quality.bound_margin"} <= set(snap["gauges"])

    def test_serial_and_parallel_audit_identically(self, tmp_path):
        """Same sampled buffers, same archive bytes, with and without
        workers — auditing never touches the encode path."""
        data = _trajectory(snapshots=48)
        audited = {}
        blobs = {}
        for label, workers in (("serial", 0), ("parallel", 2)):
            config = MDZConfig(
                error_bound=1e-3, error_bound_mode="absolute",
                buffer_size=6, audit_interval=3,
            )
            path = tmp_path / f"{label}.mdz"
            with StreamingWriter(path, config, workers=workers) as writer:
                for snap in data:
                    writer.feed(snap)
                audited[label] = None
                stats = writer.close()
                audited[label] = sorted(writer.auditor.audited)
            blobs[label] = path.read_bytes()
            assert stats.audit_violations == 0
        assert audited["serial"] == audited["parallel"]
        assert audited["serial"]  # the sample is not empty
        assert blobs["serial"] == blobs["parallel"]

    def test_audit_interval_does_not_change_bytes(self, tmp_path):
        data = _trajectory(snapshots=30)
        blobs = []
        for interval in (0, 1, 32):
            config = MDZConfig(
                error_bound=1e-3, error_bound_mode="absolute",
                buffer_size=5, audit_interval=interval,
            )
            path = tmp_path / f"i{interval}.mdz"
            with StreamingWriter(path, config) as writer:
                for snap in data:
                    writer.feed(snap)
                writer.close()
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_corrupting_encoder_trips_stream_violations(
        self, tmp_path, monkeypatch
    ):
        """End to end: chunks corrupted between encode and commit (the
        faults shim plays bit rot) must surface as stream violations."""
        real = MDZAxisCompressor.compress_batch

        def corrupting(self, batch):
            blob = real(self, batch)
            return apply_posthoc(
                blob,
                [FaultSpec("corrupt", offset=len(blob) // 2, length=8,
                           xor_mask=0x3C)],
            )

        monkeypatch.setattr(MDZAxisCompressor, "compress_batch", corrupting)
        data = _trajectory(snapshots=16)
        config = MDZConfig(
            error_bound=1e-3, error_bound_mode="absolute",
            buffer_size=8, audit_interval=1,
        )
        with recording() as rec:
            with StreamingWriter(tmp_path / "bad.mdz", config) as writer:
                for snap in data:
                    writer.feed(snap)
                stats = writer.close()
        assert stats.audits > 0
        assert stats.audit_violations >= 1
        snap = rec.snapshot()
        assert snap["counters"]["quality.bound_violations"] >= 1
        assert any(e["name"] == "quality.bound_violation"
                   for e in snap["events"])


def test_negative_audit_interval_rejected():
    with pytest.raises(ConfigurationError):
        MDZConfig(audit_interval=-1).validate()


def test_config_default_interval_matches_auditor_default():
    from repro.telemetry.quality import DEFAULT_AUDIT_INTERVAL

    assert MDZConfig().audit_interval == DEFAULT_AUDIT_INTERVAL
