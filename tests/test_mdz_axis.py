"""Tests for the MDZ per-axis session and configuration."""

import numpy as np
import pytest

from repro.baselines.api import SessionMeta
from repro.core.config import MDZConfig
from repro.core.mdz import MDZAxisCompressor
from repro.exceptions import CompressionError, ConfigurationError


def run_round_trip(stream, config=None, eb=None):
    if eb is None:
        eb = 1e-3 * float(stream.max() - stream.min())
    enc = MDZAxisCompressor(config)
    dec = MDZAxisCompressor(config)
    meta = SessionMeta(n_atoms=stream.shape[1])
    enc.begin(eb, meta)
    dec.begin(eb, meta)
    out = np.empty_like(stream, dtype=np.float64)
    row = 0
    for t0 in range(0, stream.shape[0], 5):
        blob = enc.compress_batch(stream[t0 : t0 + 5])
        piece = dec.decompress_batch(blob)
        out[row : row + piece.shape[0]] = piece
        row += piece.shape[0]
    return out, eb


class TestConfig:
    def test_defaults_match_paper(self):
        config = MDZConfig()
        assert config.error_bound == 1e-3
        assert config.buffer_size == 10
        assert config.quantization_scale == 1024
        assert config.sequence_mode == "seq2"
        assert config.method == "adp"
        assert config.adaptation_interval == 50

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"error_bound": 0.0},
            {"error_bound": -1e-3},
            {"error_bound": 1.5, "error_bound_mode": "value_range"},
            {"error_bound_mode": "relative"},
            {"buffer_size": 0},
            {"quantization_scale": 2},
            {"sequence_mode": "seq3"},
            {"method": "best"},
            {"adaptation_interval": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            MDZConfig(**kwargs)

    def test_layout_mapping(self):
        assert MDZConfig(sequence_mode="seq2").layout == "F"
        assert MDZConfig(sequence_mode="seq1").layout == "C"

    def test_absolute_bound_resolution(self):
        config = MDZConfig(error_bound=1e-3)
        assert config.absolute_bound(50.0) == pytest.approx(0.05)
        absolute = MDZConfig(error_bound=0.01, error_bound_mode="absolute")
        assert absolute.absolute_bound(50.0) == 0.01


class TestSessions:
    @pytest.mark.parametrize("method", ["adp", "vq", "vqt", "mt"])
    def test_round_trip_all_methods(self, crystal_stream, method):
        config = MDZConfig(method=method)
        out, eb = run_round_trip(crystal_stream, config)
        assert np.max(np.abs(out - crystal_stream)) <= eb * (1 + 1e-9) + 1e-12

    def test_smooth_stream_bound(self, smooth_stream):
        out, eb = run_round_trip(smooth_stream)
        assert np.max(np.abs(out - smooth_stream)) <= eb * (1 + 1e-9) + 1e-12

    def test_random_stream_bound(self, random_stream):
        out, eb = run_round_trip(random_stream)
        assert np.max(np.abs(out - random_stream)) <= eb * (1 + 1e-9) + 1e-12

    def test_seq1_round_trip(self, crystal_stream):
        config = MDZConfig(sequence_mode="seq1")
        out, eb = run_round_trip(crystal_stream, config)
        assert np.max(np.abs(out - crystal_stream)) <= eb * (1 + 1e-9) + 1e-12

    @pytest.mark.parametrize("scale", [64, 256, 4096])
    def test_quantization_scales(self, crystal_stream, scale):
        config = MDZConfig(quantization_scale=scale)
        out, eb = run_round_trip(crystal_stream, config)
        assert np.max(np.abs(out - crystal_stream)) <= eb * (1 + 1e-9) + 1e-12

    def test_compress_before_begin_raises(self, crystal_stream):
        compressor = MDZAxisCompressor()
        with pytest.raises(CompressionError, match="begin"):
            compressor.compress_batch(crystal_stream)

    def test_missing_bound_rejected(self, crystal_stream):
        compressor = MDZAxisCompressor()
        with pytest.raises(CompressionError):
            compressor.begin(None, SessionMeta(n_atoms=10))

    def test_selection_history_exposed(self, crystal_stream):
        compressor = MDZAxisCompressor(MDZConfig(method="adp"))
        compressor.begin(0.01, SessionMeta(n_atoms=crystal_stream.shape[1]))
        compressor.compress_batch(crystal_stream)
        assert len(compressor.selection_history) == 1

    def test_name_reflects_method(self):
        assert MDZAxisCompressor(MDZConfig(method="adp")).name == "mdz"
        assert MDZAxisCompressor(MDZConfig(method="vq")).name == "mdz-vq"

    def test_vq_supports_random_access(self):
        """A buffer decodes alone unless a member that can code it reads
        the session reference (``needs_reference``: MT, bitadaptive)."""
        assert MDZAxisCompressor(MDZConfig(method="vq")).supports_random_access
        assert not MDZAxisCompressor(MDZConfig(method="mt")).supports_random_access
        for method, alone in (
            ("vqt", True),
            ("interp", True),
            ("bitadaptive", False),
        ):
            session = MDZAxisCompressor(MDZConfig(method=method))
            assert session.supports_random_access is alone, method
        for pool, alone in (
            (("vq", "vqt", "mt"), False),
            (("vq", "vqt", "interp"), True),
            (("vq", "bitadaptive"), False),
            (("interp",), True),
            (("vq", "vqt", "mt", "interp", "bitadaptive"), False),
        ):
            session = MDZAxisCompressor(MDZConfig(adp_members=pool))
            assert session.supports_random_access is alone, pool


class TestSequenceAblation:
    def test_seq2_helps_on_smooth_data(self, smooth_stream):
        """Table III's effect: Seq-2 beats Seq-1 when time is stable."""
        sizes = {}
        # widen the stream so the dictionary coder sees substantial input
        stream = np.tile(smooth_stream, (1, 4))
        for mode in ("seq1", "seq2"):
            enc = MDZAxisCompressor(
                MDZConfig(method="mt", sequence_mode=mode)
            )
            eb = 1e-3 * float(stream.max() - stream.min())
            enc.begin(eb, SessionMeta(n_atoms=stream.shape[1]))
            sizes[mode] = sum(
                len(enc.compress_batch(stream[t : t + 10]))
                for t in range(0, stream.shape[0], 10)
            )
        assert sizes["seq2"] <= sizes["seq1"] * 1.02
