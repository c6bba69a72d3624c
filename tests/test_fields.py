"""Tests for multi-field archives (positions + velocities + ...)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import MDZConfig
from repro.exceptions import CompressionError, ContainerFormatError
from repro.io.container import write_container
from repro.io.fields import compress_fields, decompress_fields
from repro.serde import BlobReader
from repro.telemetry import recording


@pytest.fixture
def md_fields(rng):
    t, n = 12, 80
    positions = np.cumsum(rng.normal(0, 0.05, (t, n, 3)), axis=0) + rng.uniform(
        0, 20, (1, n, 3)
    )
    velocities = rng.normal(0, 1.5, (t, n, 3))
    energy = rng.normal(-5, 0.2, (t, n))  # scalar per atom
    return {"positions": positions, "velocities": velocities, "energy": energy}


class TestRoundTrip:
    def test_all_fields_restored_within_bounds(self, md_fields):
        bounds = {"positions": 1e-3, "velocities": 1e-2, "energy": 1e-3}
        archive = compress_fields(md_fields, bounds=bounds)
        out = decompress_fields(archive)
        assert set(out) == set(md_fields)
        for name, data in md_fields.items():
            restored = out[name]
            assert restored.shape == data.shape
            work = data.reshape(data.shape[0], data.shape[1], -1)
            back = restored.reshape(work.shape)
            for k in range(work.shape[2]):
                axis = work[:, :, k]
                bound = bounds[name] * (axis.max() - axis.min())
                assert np.abs(back[:, :, k] - axis).max() <= bound * (1 + 1e-9)

    def test_scalar_bound_for_all(self, md_fields):
        archive = compress_fields(md_fields, bounds=1e-3)
        out = decompress_fields(archive)
        assert out["energy"].shape == md_fields["energy"].shape

    def test_config_propagates(self, md_fields):
        archive = compress_fields(
            md_fields,
            bounds=1e-3,
            config=MDZConfig(buffer_size=4, method="vq"),
        )
        assert decompress_fields(archive)["positions"].shape == (12, 80, 3)

    def test_archive_smaller_than_raw(self, md_fields):
        raw = sum(np.asarray(v).astype(np.float32).nbytes for v in md_fields.values())
        archive = compress_fields(md_fields, bounds=1e-2)
        assert len(archive) < raw


class TestFieldConfig:
    """Each field is compressed with the whole base config, only its
    bound replaced (``entropy_streams`` and ``audit_interval`` used to
    be dropped)."""

    BOUNDS = {"positions": 1e-3, "velocities": 1e-2, "energy": 1e-3}

    @pytest.mark.parametrize("streams", [1, 8])
    def test_field_container_equals_write_container(self, md_fields, streams):
        config = MDZConfig(buffer_size=4, entropy_streams=streams)
        archive = compress_fields(md_fields, bounds=self.BOUNDS, config=config)
        reader = BlobReader(archive)
        reader.read_bytes()  # magic
        for name in reader.read_json():
            assert reader.read_json() == {"name": name}
            data = np.asarray(md_fields[name])
            if data.ndim == 2:
                data = data[:, :, None]
            expected = write_container(
                data, replace(config, error_bound=self.BOUNDS[name])
            )
            assert reader.read_bytes() == expected

    def test_audit_interval_zero_runs_no_audit(self, md_fields):
        with recording() as rec:
            compress_fields(
                md_fields,
                bounds=self.BOUNDS,
                config=MDZConfig(buffer_size=4, audit_interval=0),
            )
        snap = rec.snapshot()
        assert "quality.audit" not in snap["timers"]
        assert "quality.audits" not in snap["counters"]


class TestValidation:
    def test_empty_fields_rejected(self):
        with pytest.raises(CompressionError):
            compress_fields({})

    def test_shape_mismatch_rejected(self, md_fields):
        md_fields["velocities"] = md_fields["velocities"][:, :40]
        with pytest.raises(CompressionError, match="disagree"):
            compress_fields(md_fields)

    def test_bad_rank_rejected(self, rng):
        with pytest.raises(CompressionError):
            compress_fields({"x": rng.normal(size=(5,))})

    def test_bad_magic_rejected(self, md_fields):
        archive = bytearray(compress_fields(md_fields, bounds=1e-2))
        archive[9] ^= 0xFF
        with pytest.raises(ContainerFormatError, match="magic"):
            decompress_fields(bytes(archive))
