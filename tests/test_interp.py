"""Tests for the SZ-Interp baseline (spline-interpolation prediction)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.api import SessionMeta
from repro.sz.interp import SZInterpCompressor, interpolate, level_plan


class TestLevelPlan:
    @pytest.mark.parametrize("t", [1, 2, 3, 4, 7, 8, 16, 33, 100, 257])
    def test_covers_every_index_once(self, t):
        covered = sorted(
            int(i) for _, idx, _ in level_plan(t) for i in idx
        )
        assert covered == list(range(1, t))

    def test_anchor_levels_precede_their_dependencies(self):
        """Any index's neighbours are decoded in an earlier level."""
        t = 37
        decoded = {0}
        for stride, idx, is_anchor in level_plan(t):
            for i in idx.tolist():
                assert i - stride in decoded, (i, stride)
                if not is_anchor and i + stride < t:
                    assert i + stride in decoded, (i, stride)
            decoded.update(int(i) for i in idx)

    def test_trivial_lengths(self):
        assert level_plan(0) == []
        assert level_plan(1) == []


class TestInterpolate:
    def test_linear_midpoint(self):
        recon = np.array([[0.0, 0.0], [0.0, 0.0], [4.0, 2.0]])
        pred = interpolate(recon, np.array([1]), 1, "linear", False)
        assert np.allclose(pred, [[2.0, 1.0]])

    def test_cubic_reduces_to_linear_at_borders(self):
        recon = np.zeros((8, 3))
        recon[6] = 6.0
        pred_lin = interpolate(recon, np.array([3]), 3, "linear", False)
        pred_cub = interpolate(recon, np.array([3]), 3, "cubic", False)
        # no anchors at -3*3 / +3*3: cubic must fall back to linear
        assert np.allclose(pred_cub, pred_lin)

    def test_anchor_prediction_uses_previous(self):
        recon = np.zeros((10, 2))
        recon[4] = 7.0
        pred = interpolate(recon, np.array([8]), 4, "linear", True)
        assert np.allclose(pred, [[7.0, 7.0]])

    @pytest.mark.parametrize("order", ["linear", "cubic"])
    def test_reads_only_reconstructed_rows(self, order):
        """Rows the cascade has not reconstructed yet are uninitialized
        memory in the interp member: a signalling NaN there raises no FP
        flag and changes no prediction at any level."""
        t = 10
        values = np.random.default_rng(5).normal(size=(t, 6))
        done = {0}
        for stride, idx, is_anchor in level_plan(t):
            pending = [i for i in range(t) if i not in done]
            poisoned = values.copy()
            poisoned.view(np.uint64)[pending] = 0x7FF0000000000001
            zeroed = values.copy()
            zeroed[pending] = 0.0
            with np.errstate(all="raise"):
                with pytest.raises(FloatingPointError):
                    poisoned[pending] + 1.0  # the poison is live
                got = interpolate(poisoned, idx, stride, order, is_anchor)
            want = interpolate(zeroed, idx, stride, order, is_anchor)
            assert np.array_equal(got, want), (stride, idx)
            done.update(int(i) for i in idx)


class TestCompressor:
    def run(self, stream, eb):
        enc = SZInterpCompressor()
        dec = SZInterpCompressor()
        meta = SessionMeta(n_atoms=stream.shape[1])
        enc.begin(eb, meta)
        dec.begin(eb, meta)
        return dec.decompress_batch(enc.compress_batch(stream))

    def test_round_trip_smooth(self, smooth_stream):
        eb = 1e-3 * (smooth_stream.max() - smooth_stream.min())
        out = self.run(smooth_stream, eb)
        assert np.max(np.abs(out - smooth_stream)) <= eb * (1 + 1e-9)

    def test_round_trip_crystal(self, crystal_stream):
        eb = 1e-3 * (crystal_stream.max() - crystal_stream.min())
        out = self.run(crystal_stream, eb)
        assert np.max(np.abs(out - crystal_stream)) <= eb * (1 + 1e-9)

    def test_single_snapshot(self, crystal_stream):
        out = self.run(crystal_stream[:1], 0.01)
        assert out.shape == (1, crystal_stream.shape[1])

    def test_picks_cubic_on_smooth_curves(self, rng):
        """On smoothly curved trajectories, the dynamic choice matters."""
        t = np.linspace(0, 4 * np.pi, 64)
        stream = np.sin(t)[:, None] * rng.uniform(1, 3, 200)[None, :]
        eb = 1e-4 * (stream.max() - stream.min())
        enc = SZInterpCompressor()
        enc.begin(eb, SessionMeta(n_atoms=200))
        blob = enc.compress_batch(stream)
        dec = SZInterpCompressor()
        dec.begin(eb, SessionMeta(n_atoms=200))
        out = dec.decompress_batch(blob)
        assert np.max(np.abs(out - stream)) <= eb * (1 + 1e-9)

    @given(st.integers(0, 2**31), st.integers(2, 40))
    @settings(max_examples=20, deadline=None)
    def test_property_bound(self, seed, t):
        rng = np.random.default_rng(seed)
        stream = np.cumsum(rng.normal(0, 0.5, (t, 25)), axis=0)
        eb = 0.01
        out = self.run(stream, eb)
        assert np.max(np.abs(out - stream)) <= eb * (1 + 1e-9) + 1e-12
