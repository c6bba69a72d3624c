"""Tests for MDZ's three prediction methods (VQ / VQT / MT)."""

import numpy as np
import pytest

from repro.core.levels import SessionLevelModel
from repro.core.methods import MethodState
from repro.core.mt import MTMethod
from repro.core.registry import METHOD_IDS, METHOD_NAMES, get_method
from repro.core.vq import VQMethod
from repro.core.vqt import VQTMethod
from repro.exceptions import DecompressionError
from repro.sz.quantizer import LinearQuantizer

EB = 1e-3


def make_state(layout="F") -> MethodState:
    return MethodState(
        quantizer=LinearQuantizer(EB),
        layout=layout,
        levels=SessionLevelModel(seed=0),
    )


def assert_bound(recon, batch):
    assert np.max(np.abs(recon - batch)) <= EB * (1 + 1e-9) + 1e-12


class TestMethodIds:
    def test_ids_bijective(self):
        assert METHOD_NAMES == {v: k for k, v in METHOD_IDS.items()}

    def test_instances_expose_ids(self):
        """A class's ``name`` keys its row: the shared instance and the
        wire id the container writes for it."""
        for cls, method_id in ((VQMethod, 1), (VQTMethod, 2), (MTMethod, 3)):
            assert type(get_method(cls.name)) is cls
            assert METHOD_IDS[cls.name] == method_id


class TestVQ:
    def test_round_trip_crystal(self, crystal_stream):
        enc_state, dec_state = make_state(), make_state()
        blob, recon = VQMethod().encode(crystal_stream, enc_state)
        assert_bound(recon, crystal_stream)
        out = VQMethod().decode(blob, dec_state)
        assert np.array_equal(out, recon)

    def test_round_trip_unstructured(self, random_stream):
        enc_state, dec_state = make_state(), make_state()
        blob, recon = VQMethod().encode(random_stream, enc_state)
        assert_bound(recon, random_stream)
        assert np.array_equal(VQMethod().decode(blob, dec_state), recon)

    def test_snapshots_independent(self, crystal_stream):
        """Encoding a sub-batch yields the same bytes for those rows."""
        s1, s2 = make_state(), make_state()
        s1.levels.fit_for(crystal_stream[0])
        s2.levels.fit_for(crystal_stream[0])
        blob_a, recon_a = VQMethod().encode(crystal_stream[:5], s1)
        blob_b, recon_b = VQMethod().encode(crystal_stream, s2)
        assert np.array_equal(recon_a, recon_b[:5])

    def test_seq1_layout_round_trip(self, crystal_stream):
        enc_state, dec_state = make_state("C"), make_state("C")
        blob, recon = VQMethod().encode(crystal_stream, enc_state)
        assert np.array_equal(VQMethod().decode(blob, dec_state), recon)


class TestVQT:
    def test_round_trip(self, crystal_stream):
        enc_state, dec_state = make_state(), make_state()
        blob, recon = VQTMethod().encode(crystal_stream, enc_state)
        assert_bound(recon, crystal_stream)
        assert np.array_equal(VQTMethod().decode(blob, dec_state), recon)

    def test_single_snapshot_batch(self, crystal_stream):
        enc_state, dec_state = make_state(), make_state()
        blob, recon = VQTMethod().encode(crystal_stream[:1], enc_state)
        assert recon.shape == (1, crystal_stream.shape[1])
        assert np.array_equal(VQTMethod().decode(blob, dec_state), recon)

    def test_beats_vq_on_smooth_data(self, smooth_stream):
        vq_state, vqt_state = make_state(), make_state()
        vq_blob, _ = VQMethod().encode(smooth_stream, vq_state)
        vqt_blob, _ = VQTMethod().encode(smooth_stream, vqt_state)
        assert len(vqt_blob) < len(vq_blob)


class TestMT:
    def test_bootstrap_then_reference(self, smooth_stream):
        enc_state, dec_state = make_state(), make_state()
        method = MTMethod()
        # batch 1 bootstraps (reference is None)
        blob1, recon1 = method.encode(smooth_stream[:10], enc_state)
        enc_state.reference = recon1[0].copy()
        out1 = method.decode(blob1, dec_state)
        dec_state.reference = out1[0].copy()
        assert np.array_equal(out1, recon1)
        # batch 2 predicts from the session reference
        blob2, recon2 = method.encode(smooth_stream[10:], enc_state)
        out2 = method.decode(blob2, dec_state)
        assert np.array_equal(out2, recon2)
        assert_bound(recon2, smooth_stream[10:])

    def test_decode_without_reference_raises(self, smooth_stream):
        enc_state = make_state()
        enc_state.reference = smooth_stream[0].copy()
        blob, _ = MTMethod().encode(smooth_stream[:5], enc_state)
        with pytest.raises(DecompressionError, match="reference"):
            MTMethod().decode(blob, make_state())

    def test_reference_prediction_cheaper_than_bootstrap(self, smooth_stream):
        cold, warm = make_state(), make_state()
        warm.reference = smooth_stream[0].astype(np.float64)
        blob_cold, _ = MTMethod().encode(smooth_stream[:5], cold)
        blob_warm, _ = MTMethod().encode(smooth_stream[:5], warm)
        assert len(blob_warm) < len(blob_cold)


class TestTrialState:
    def test_clone_isolates_reference(self, smooth_stream):
        state = make_state()
        state.reference = smooth_stream[0].astype(np.float64).copy()
        clone = state.clone_for_trial()
        clone.reference[:] = 0.0
        assert state.reference.max() > 0

    def test_clone_shares_levels(self, crystal_stream):
        state = make_state()
        fit = state.levels.fit_for(crystal_stream[0])
        clone = state.clone_for_trial()
        assert clone.levels.fit_for(crystal_stream[0]) is fit
