"""VQ: vector-quantization-based compression (Algorithm 1).

Every data point is predicted by the centroid of its nearest crystal level
(``V_i = mu + lambda * L_i``); the *relative level index* ``j_i = L_i -
L_{i-1}`` and the quantized prediction residual ``b_i`` are Huffman coded.
Because prediction never crosses snapshots, any buffer can be decompressed
in isolation — the property the paper highlights for post hoc analysis of
individual snapshots.

Out-of-scope residuals (beyond the quantization scale) are replaced by the
reserved marker and their absolute grid level — anchored at ``mu`` — is
stored in the varint side channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..cluster.level_detect import LevelFit
from ..exceptions import DecompressionError
from ..serde import BlobReader, BlobWriter
from ..sz.huffman import HuffmanBatch, HuffmanCodec, estimate_encoded_bytes
from ..sz.pipeline import (
    encode_int_stream,
    estimate_int_stream_bytes,
    parse_int_stream,
)
from ..sz.quantizer import QuantizedBlock
from .methods import MDZMethod, MethodState


@dataclass
class VQPrepared:
    """Intermediates of one VQ pass: everything the serializer *and* the
    reconstruction need, computed by one fused prepare kernel."""

    fit: LevelFit
    shape: tuple[int, ...]
    rel: np.ndarray
    block: QuantizedBlock
    recon: np.ndarray


def vq_prepare(
    batch: np.ndarray, fit: LevelFit, state: MethodState
) -> VQPrepared:
    """Fused quantize -> predict -> residual -> reconstruct pass.

    The encoder-side reconstruction is assembled directly from the
    residual codes and absolute levels already in hand (out-of-scope mask
    computed once), which is arithmetically identical to the decoder's
    replay: in-scope points evaluate the same ``prediction + code *
    bin_width`` expression, and literals the same ``mu + level *
    bin_width``.
    """
    quantizer = state.quantizer
    layout = state.layout
    levels = fit.level_index(batch)
    predictions = fit.level_value(levels)
    residual_codes = np.rint(
        (batch - predictions) / quantizer.bin_width
    ).astype(np.int64)
    absolute = quantizer.grid_levels(batch, fit.mu)
    block, mask = quantizer.split_with_mask(
        residual_codes, absolute, order=layout
    )
    recon = predictions + residual_codes * quantizer.bin_width
    if block.wide.size:
        literal_values = quantizer.dequantize_levels(block.wide, fit.mu)
        if layout == "F":
            recon_t = recon.T
            recon_t[mask.T] = literal_values
        else:
            recon[mask] = literal_values
    # Relative level indexes: delta within each snapshot, first from 0.
    rel = np.diff(levels, axis=1, prepend=np.zeros((batch.shape[0], 1), np.int64))
    return VQPrepared(
        fit=fit, shape=tuple(batch.shape), rel=rel, block=block, recon=recon
    )


def vq_serialize(prepared: VQPrepared, state: MethodState) -> bytes:
    """Serialize a prepared VQ pass into the wire payload."""
    writer = BlobWriter()
    writer.write_json(
        {
            "lam": prepared.fit.lam,
            "mu": prepared.fit.mu,
            "shape": list(prepared.shape),
        }
    )
    writer.write_bytes(
        HuffmanCodec.encode(
            prepared.rel.ravel(order=state.layout), streams=state.entropy_streams
        )
    )
    writer.write_bytes(
        encode_int_stream(
            prepared.block,
            state.layout,
            alphabet_hint=state.quantizer.scale + 1,
            streams=state.entropy_streams,
        )
    )
    return writer.getvalue()


def vq_estimate_bytes(prepared: VQPrepared, state: MethodState) -> int:
    """Estimated serialized size (pre-lossless) of a prepared VQ pass."""
    return (
        estimate_encoded_bytes(
            prepared.rel.ravel(order=state.layout), streams=state.entropy_streams
        )
        + estimate_int_stream_bytes(
            prepared.block,
            state.layout,
            alphabet_hint=state.quantizer.scale + 1,
            streams=state.entropy_streams,
        )
        + 48  # json head: lam/mu floats + shape
    )


def vq_parse_array(
    blob: bytes, state: MethodState, batch: HuffmanBatch
) -> Callable[[], np.ndarray]:
    """Parse step of a :func:`vq_serialize` blob, shared by VQ (whole
    buffers) and VQT (first snapshot only): registers its two Huffman
    sub-blobs with ``batch``; returns the reconstruct step."""
    layout = state.layout
    reader = BlobReader(blob)
    meta = reader.read_json()
    shape = tuple(int(x) for x in meta["shape"])
    fit = LevelFit(
        lam=float(meta["lam"]),
        mu=float(meta["mu"]),
        k=0,
        centroids=np.empty(0),
        residual=0.0,
    )
    rel = batch.add(reader.read_bytes())
    residuals = parse_int_stream(reader.read_bytes(), batch)

    def reconstruct() -> np.ndarray:
        levels = np.cumsum(rel().reshape(shape, order=layout), axis=1)
        block = residuals()
        if block.codes.shape != shape:
            raise DecompressionError(
                f"VQ stream shape mismatch: {block.codes.shape} vs {shape}"
            )
        return _reconstruct(block, levels, fit, state)

    return reconstruct


def _reconstruct(block, levels, fit: LevelFit, state: MethodState) -> np.ndarray:
    """Level prediction + dequantized residual, with literal substitution."""
    quantizer = state.quantizer
    predictions = fit.level_value(levels)
    recon = predictions + block.codes * quantizer.bin_width
    mask = block.codes == block.marker
    n_mask = int(mask.sum())
    if n_mask != block.wide.size:
        raise DecompressionError(
            f"VQ out-of-scope mismatch: {n_mask} markers vs "
            f"{block.wide.size} literals"
        )
    if n_mask:
        literal_values = quantizer.dequantize_levels(block.wide, fit.mu)
        if block.order == "F":
            recon_t = recon.T
            recon_t[mask.T] = literal_values
            recon = recon_t.T
        else:
            recon[mask] = literal_values
    return recon


class VQMethod(MDZMethod):
    """Vector-quantization compression of whole buffers."""

    name = "vq"

    def prepare(self, batch, state):
        return vq_prepare(batch, state.levels.fit_for(batch[0]), state)

    def serialize(self, prepared, state):
        return vq_serialize(prepared, state)

    # Unused by ADP; kept because mdzbench/layertrace.py wraps it by name.
    def estimate(self, prepared, state):
        return vq_estimate_bytes(prepared, state)

    def reconstruction(self, prepared):
        return prepared.recon

    def parse(self, blob, state, batch):
        return vq_parse_array(blob, state, batch)

    # Readers call parse; decode stays in the class's own namespace
    # because mdzbench/layertrace.py wraps it by name.
    decode = MDZMethod.decode
