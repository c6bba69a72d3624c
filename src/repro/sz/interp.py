"""SZ-Interp baseline: dynamic spline-interpolation prediction.

The paper's introduction (Section II) notes that even state-of-the-art
general scientific compressors like SZ-Interp [Zhao et al., ICDE 2021 —
reference 31, the authors' own prior work] are sub-optimal on MD data
because they are designed for smooth structured meshes.  This module
implements that compressor so the claim can be measured
(``benchmarks/test_ext_sz_interp.py``).

Algorithm: a multi-level binary cascade along the time axis.  Anchor
snapshots at stride ``2^L`` are coded first (the stride-top level via
previous-anchor prediction); each subsequent level halves the stride and
predicts the midpoints from the already-reconstructed neighbours with
either **linear** or **cubic** (4-point, Catmull-Rom-like) interpolation —
per batch, both are tried and the better one kept, which is the "dynamic"
part of the original.  Residuals go through the standard SZ quantize /
Huffman / DEFLATE stages.

All predictions use *reconstructed* values, and each level's predictions
depend only on previously-decoded levels, so the whole cascade is
vectorized level by level while staying exactly error-bounded.
"""

from __future__ import annotations

import numpy as np

from ..baselines.api import Compressor, register_compressor
from ..exceptions import DecompressionError
from ..serde import BlobReader, BlobWriter
from .lossless import lossless_compress, lossless_decompress
from .pipeline import decode_int_stream, encode_int_stream
from .predictors import lorenzo_1d_codes, lorenzo_1d_reconstruct
from .quantizer import DEFAULT_SCALE, LinearQuantizer


def level_plan(t_count: int) -> list[tuple[int, np.ndarray, bool]]:
    """The interpolation cascade: [(stride, indices, is_anchor), ...].

    Index 0 is the root; every other index appears in exactly one level.
    Anchor levels (``is_anchor``) carry one coarse snapshot each, predicted
    from the previous anchor; midpoint levels interpolate between the
    already-reconstructed neighbours at ``i - s`` and ``i + s``.
    """
    if t_count <= 1:
        return []
    stride = 1
    while stride * 2 < t_count:
        stride *= 2
    plan: list[tuple[int, np.ndarray, bool]] = []
    # Coarsest pass: anchors at multiples of `stride` beyond the root.
    # Each coarse anchor is its own level (it is predicted from the
    # previous anchor, which must already be reconstructed).
    for anchor in range(stride, t_count, stride):
        plan.append((stride, np.array([anchor]), True))
    while stride > 1:
        half = stride // 2
        mids = np.arange(half, t_count, stride)
        mids = mids[mids % stride == half]
        if mids.size:
            plan.append((half, mids, False))
        stride = half
    return plan


def interpolate(
    recon: np.ndarray, idx: np.ndarray, stride: int, order: str, is_anchor: bool
) -> np.ndarray:
    """Predictions for snapshots ``idx`` from reconstructed neighbours."""
    t_count = recon.shape[0]
    if is_anchor:
        # Coarsest anchors: predict from the previous anchor.
        return recon[idx - stride]
    left = recon[idx - stride]
    right_idx = np.minimum(idx + stride, t_count - 1)
    usable = idx + stride < t_count
    right = np.where(usable[:, None], recon[right_idx], left)
    pred = 0.5 * (left + right)
    if order == "linear":
        return pred
    # Cubic: use two extra anchors at +-3*stride where both exist.  Only
    # those lanes are computed: the rows past either end are not
    # reconstructed yet, and arithmetic on them could raise FP flags.
    cubic_ok = (idx - 3 * stride >= 0) & (idx + 3 * stride < t_count)
    if cubic_ok.any():
        mids = idx[cubic_ok]
        pred[cubic_ok] = (
            -recon[mids - 3 * stride]
            + 9.0 * left[cubic_ok]
            + 9.0 * right[cubic_ok]
            - recon[mids + 3 * stride]
        ) / 16.0
    return pred


def reconstruct_level(block, pred, quantizer) -> np.ndarray:
    """Apply a level's decoded residual block on top of its predictions.

    Out-of-scope points (marker codes) are restored from the absolute
    varint side channel, anchored at 0.0 — the same convention the
    encoder used when it quantized them with ``grid_levels(batch, 0.0)``.
    """
    values = pred + block.codes * quantizer.bin_width
    mask = block.codes == block.marker
    n_mask = int(mask.sum())
    if n_mask != block.wide.size:
        raise DecompressionError(
            "interp out-of-scope mismatch "
            f"({n_mask} markers vs {block.wide.size} literals)"
        )
    if n_mask:
        values_t = values.T
        values_t[mask.T] = quantizer.dequantize_levels(block.wide, 0.0)
        values = values_t.T
    return values


class SZInterpCompressor(Compressor):
    """Dynamic spline-interpolation compressor along the time axis."""

    name = "sz-interp"
    is_lossless = False

    def __init__(self, scale: int = DEFAULT_SCALE) -> None:
        self.scale = scale

    def compress_batch(self, batch: np.ndarray) -> bytes:
        batch = self.as_batch(batch)
        candidates = {}
        for order in ("linear", "cubic"):
            candidates[order] = self._encode(batch, order)
        best = min(candidates, key=lambda k: len(candidates[k]))
        writer = BlobWriter()
        writer.write_json({"order": best})
        writer.write_bytes(candidates[best])
        return lossless_compress(writer.getvalue())

    def decompress_batch(self, blob: bytes) -> np.ndarray:
        reader = BlobReader(lossless_decompress(blob))
        order = str(reader.read_json()["order"])
        return self._decode(reader.read_bytes(), order)

    # -- internals ------------------------------------------------------

    def _encode(self, batch: np.ndarray, order: str) -> bytes:
        quantizer = LinearQuantizer(self.error_bound, self.scale)
        t_count, n = batch.shape
        writer = BlobWriter()
        writer.write_json({"shape": [t_count, n], "eb": self.error_bound,
                           "scale": self.scale})
        anchor = float(batch[0, 0])
        root = lorenzo_1d_codes(batch[0], quantizer, anchor)
        writer.write_json({"anchor": anchor})
        writer.write_bytes(encode_int_stream(root, "C",
                                             alphabet_hint=self.scale + 1))
        recon = np.zeros_like(batch)
        recon[0] = lorenzo_1d_reconstruct(root, quantizer, anchor)
        for stride, idx, is_anchor in level_plan(t_count):
            pred = interpolate(recon, idx, stride, order, is_anchor)
            codes = np.rint((batch[idx] - pred) / quantizer.bin_width).astype(
                np.int64
            )
            absolute = quantizer.grid_levels(batch[idx], 0.0)
            block = quantizer.split(codes, absolute, order="F")
            writer.write_bytes(
                encode_int_stream(block, "F", alphabet_hint=self.scale + 1)
            )
            recon[idx] = reconstruct_level(block, pred, quantizer)
        return writer.getvalue()

    def _decode(self, payload: bytes, order: str) -> np.ndarray:
        reader = BlobReader(payload)
        meta = reader.read_json()
        t_count, n = (int(x) for x in meta["shape"])
        quantizer = LinearQuantizer(float(meta["eb"]), int(meta["scale"]))
        anchor = float(reader.read_json()["anchor"])
        root = decode_int_stream(reader.read_bytes())
        recon = np.zeros((t_count, n))
        recon[0] = lorenzo_1d_reconstruct(root, quantizer, anchor)
        for stride, idx, is_anchor in level_plan(t_count):
            block = decode_int_stream(reader.read_bytes())
            pred = interpolate(recon, idx, stride, order, is_anchor)
            recon[idx] = reconstruct_level(block, pred, quantizer)
        return recon


register_compressor("sz-interp", SZInterpCompressor)
