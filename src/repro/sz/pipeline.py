"""Serialization glue between quantized blocks and byte streams.

This module turns a :class:`~repro.sz.quantizer.QuantizedBlock` into a
self-describing byte blob (Huffman-coded codes plus a varint side channel)
and back.  The trailing dictionary-coder stage is *not* applied here — the
batch assemblers compress the concatenation of all their sections once, as
the SZ framework does (Huffman output, then Zstd/DEFLATE).

The ``layout`` parameter implements the paper's quantization-sequence
optimization (Section VI-C2): ``"C"`` stores codes snapshot-major (Seq-1)
and ``"F"`` particle-major (Seq-2).  Seq-2 groups each particle's codes
from all snapshots of the batch together, handing the dictionary coder the
long stable runs that temporally smooth data produces — worth ~35-40 % of
compression ratio on Helium-B (Table III).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..exceptions import DecompressionError
from ..serde import BlobReader, BlobWriter
from ..telemetry import get_recorder
from .bitio import (
    decode_varints,
    encode_varints,
    varint_size,
    zigzag_decode,
    zigzag_encode,
)
from .huffman import (
    HuffmanBatch,
    HuffmanCodec,
    decode_single,
    estimate_encoded_bytes,
)
from .quantizer import QuantizedBlock


def encode_int_stream(
    block: QuantizedBlock,
    layout: str = "C",
    alphabet_hint: int | None = None,
    streams: int | None = None,
) -> bytes:
    """Serialize a quantized block (codes + out-of-scope literals).

    ``layout`` selects the flattening order of the code array before
    entropy coding: ``"C"`` = Seq-1 (snapshot-major), ``"F"`` = Seq-2
    (particle-major).  ``alphabet_hint`` (typically ``scale + 1``) makes
    the Huffman stage use SZ's dense codebook representation — see
    :meth:`repro.sz.huffman.HuffmanCodec.encode`.  ``streams`` passes the
    H2 sub-stream fan-out through to the Huffman stage (``None`` = auto).
    """
    if layout not in ("C", "F"):
        raise ValueError(f"layout must be 'C' or 'F', got {layout!r}")
    writer = BlobWriter()
    writer.write_json(
        {
            "shape": list(block.codes.shape),
            "marker": int(block.marker),
            "order": block.order,
            "layout": layout,
            "wide_n": int(block.wide.size),
        }
    )
    flat = block.codes.ravel(order=layout)
    writer.write_bytes(
        HuffmanCodec.encode(flat, alphabet_hint=alphabet_hint, streams=streams)
    )
    side = encode_varints(zigzag_encode(block.wide))
    writer.write_bytes(side)
    recorder = get_recorder()
    if recorder.enabled:
        recorder.count("sz.oos.points", block.wide.size)
        recorder.count("sz.oos.bytes", len(side))
        # Quality-adjacent signal for the audit plane: the fraction of
        # points that fell outside the quantizer's representable range.
        # A drifting/exploding simulation shows up here long before it
        # hurts ratios enough to notice.
        if block.codes.size:
            recorder.gauge(
                "quality.oos_fraction", block.wide.size / block.codes.size
            )
        recorder.annotate(
            quant_codes=int(block.codes.size),
            oos_points=int(block.wide.size),
            oos_bytes=len(side),
            layout=layout,
        )
    return writer.getvalue()


def estimate_int_stream_bytes(
    block: QuantizedBlock,
    layout: str = "C",
    alphabet_hint: int | None = None,
    streams: int | None = None,
) -> int:
    """Predicted :func:`encode_int_stream` size without serializing.

    The Huffman stage is sized from the code histogram and cached codebook
    (see :func:`~repro.sz.huffman.estimate_encoded_bytes`) and the varint
    side channel from pure bit-length arithmetic; neither depends on the
    flattening order, so the codes are read in their native layout with no
    transposed copy.  Only the JSON/blob framing is approximated.
    """
    return (
        estimate_encoded_bytes(
            block.codes.ravel(), alphabet_hint=alphabet_hint, streams=streams
        )
        + varint_size(zigzag_encode(block.wide))
        + 96  # two JSON headers + section framing
    )


def parse_int_stream(
    blob: bytes, batch: HuffmanBatch
) -> Callable[[], QuantizedBlock]:
    """Parse step of :func:`decode_int_stream`: registers the code blob
    with ``batch`` and returns the step that builds the block once the
    batch is decoded."""
    reader = BlobReader(blob)
    meta = reader.read_json()
    shape = tuple(int(x) for x in meta["shape"])
    layout = str(meta.get("layout", "C"))
    if layout not in ("C", "F"):
        raise DecompressionError(f"corrupt layout tag {layout!r}")
    codes = batch.add(reader.read_bytes())
    side = reader.read_bytes()

    def reconstruct() -> QuantizedBlock:
        wide = zigzag_decode(decode_varints(side, int(meta["wide_n"])))
        return QuantizedBlock(
            codes=np.ascontiguousarray(codes().reshape(shape, order=layout)),
            wide=wide.astype(np.int64),
            marker=int(meta["marker"]),
            order=str(meta["order"]),
        )

    return reconstruct


def decode_int_stream(blob: bytes) -> QuantizedBlock:
    """Inverse of :func:`encode_int_stream` (a batch of one)."""
    return decode_single(parse_int_stream, blob)
