"""Bit-adaptive serialization of quantized blocks (per-region bit depth).

An alternative to the Huffman stage of :mod:`repro.sz.pipeline`: the
flattened code array is cut into fixed-size *regions* and each region is
stored as ``(offset, width)`` plus its codes packed at exactly ``width``
bits per value, where ``width`` is the smallest bit depth that spans the
region's local ``[min, max]`` range.  The idea follows the bit-adaptive
particle-compression approach (arXiv 2404.02826): particle data is
locally homogeneous but globally mixed, so a *per-region* bit depth
beats a single global code table whenever the local code ranges differ —
a Huffman codebook must spend bits distinguishing which regime a symbol
came from, while the region table amortizes that over
:data:`REGION_SIZE` values at once (and a quiet region of constant codes
costs zero payload bits).

The wire layout mirrors :func:`repro.sz.pipeline.encode_int_stream`
(same JSON header fields plus the region geometry, same varint
side channel for out-of-scope literals), so the two are drop-in
alternatives: :data:`repro.sz.stages.BITPACK` wraps this module in the
same call shape as :data:`repro.sz.stages.HUFFMAN_INT_STREAM`.

Packing reuses the vectorized :func:`repro.sz.bitio.pack_codes` kernel
with a uniform per-region length vector; unpacking is a fused gather
over 64-bit big-endian words (:func:`unpack_uniform`), so neither
direction loops over symbols.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import DecompressionError
from ..serde import BlobReader, BlobWriter
from ..telemetry import get_recorder
from .bitio import (
    decode_varints,
    encode_varints,
    pack_codes,
    varint_size,
    zigzag_decode,
    zigzag_encode,
)
from .quantizer import QuantizedBlock

#: Values per region.  Large enough that the per-region table (one
#: varint offset + one width byte) is noise, small enough that a local
#: regime change lands in its own region.  Stored in the blob header, so
#: this default can move without breaking old archives.
REGION_SIZE = 4096

#: Widths are stored in one byte; codes are int64 offsets from the
#: region minimum, so 57 bits (the :func:`pack_codes` ceiling) bounds
#: the representable spread.  Quantization codes live well below this.
_MAX_WIDTH = 57


def _span_widths(spans: np.ndarray) -> np.ndarray:
    """Per-region bit widths: ``ceil(log2(span + 1))``, vectorized.

    ``np.log2`` is exact on values below ``2**53`` so the floor is safe
    for any quantization-scale-bounded spread (codes never approach it).
    """
    widths = np.zeros(spans.size, dtype=np.int64)
    nz = spans > 0
    widths[nz] = (
        np.floor(np.log2(spans[nz].astype(np.float64))).astype(np.int64) + 1
    )
    return widths


def bitpack_encode(
    block: QuantizedBlock, layout: str = "C", region: int = REGION_SIZE
) -> bytes:
    """Serialize a quantized block with per-region bit depths."""
    if layout not in ("C", "F"):
        raise ValueError(f"layout must be 'C' or 'F', got {layout!r}")
    if region < 1:
        raise ValueError(f"region size must be >= 1, got {region}")
    flat = block.codes.ravel(order=layout).astype(np.int64, copy=False)
    n = int(flat.size)
    n_regions = (n + region - 1) // region
    if n:
        starts = np.arange(0, n, region)
        counts = np.diff(np.r_[starts, n])
        lows = np.minimum.reduceat(flat, starts)
        highs = np.maximum.reduceat(flat, starts)
        widths = _span_widths(highs - lows)
        if int(widths.max(initial=0)) > _MAX_WIDTH:
            raise ValueError(
                f"region code spread needs {int(widths.max())} bits "
                f"(> {_MAX_WIDTH}); codes are not quantization-scale bounded"
            )
        lengths = np.repeat(widths, counts)
        payload = pack_codes(
            (flat - np.repeat(lows, counts)).astype(np.uint64), lengths
        )
    else:
        lows = np.zeros(0, dtype=np.int64)
        widths = np.zeros(0, dtype=np.int64)
        payload = b""
    writer = BlobWriter()
    writer.write_json(
        {
            "shape": list(block.codes.shape),
            "marker": int(block.marker),
            "order": block.order,
            "layout": layout,
            "wide_n": int(block.wide.size),
            "region": int(region),
        }
    )
    writer.write_bytes(np.asarray(widths, dtype=np.uint8).tobytes())
    writer.write_bytes(encode_varints(zigzag_encode(lows)))
    writer.write_bytes(payload)
    side = encode_varints(zigzag_encode(block.wide))
    writer.write_bytes(side)
    recorder = get_recorder()
    if recorder.enabled:
        recorder.count("sz.bitpack.regions", int(widths.size))
        recorder.count("sz.bitpack.payload_bytes", len(payload))
        if widths.size:
            recorder.gauge("sz.bitpack.mean_width", float(widths.mean()))
    return writer.getvalue()


def bitpack_estimate(
    block: QuantizedBlock, layout: str = "C", region: int = REGION_SIZE
) -> int:
    """Predicted :func:`bitpack_encode` size without packing a bit.

    Exact for the payload (widths are derived the same way) and the
    region tables; only the JSON/blob framing is approximated.  The
    flattening order does not change any region's min/max when regions
    are re-cut over the same multiset — it does in general, so the codes
    are read in the *requested* layout to stay faithful.
    """
    flat = block.codes.ravel(order=layout).astype(np.int64, copy=False)
    n = int(flat.size)
    if n == 0:
        return 96
    starts = np.arange(0, n, region)
    lows = np.minimum.reduceat(flat, starts)
    highs = np.maximum.reduceat(flat, starts)
    widths = _span_widths(highs - lows)
    counts = np.diff(np.r_[starts, n])
    payload_bits = int((widths * counts).sum())
    return (
        (payload_bits + 7) // 8
        + widths.size  # one width byte per region
        + varint_size(zigzag_encode(lows))
        + varint_size(zigzag_encode(block.wide))
        + 112  # JSON header + section framing
    )


def unpack_uniform(data: bytes, lengths: np.ndarray) -> np.ndarray:
    """Unpack per-symbol bit fields packed by :func:`pack_codes`.

    ``lengths`` gives each symbol's bit width (0..57); zero-width symbols
    decode to 0 and consume no bits.  Vectorized: the byte string is
    viewed as big-endian 64-bit words and every symbol's window is
    gathered with two shifts — no per-symbol Python loop.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    n = int(lengths.size)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if int(lengths.min()) < 0 or int(lengths.max()) > _MAX_WIDTH:
        raise DecompressionError(
            f"corrupt bitpack widths (range {lengths.min()}..{lengths.max()})"
        )
    total_bits = int(lengths.sum())
    if total_bits > 8 * len(data):
        raise DecompressionError(
            f"bitpack payload exhausted: need {total_bits} bits, "
            f"have {8 * len(data)}"
        )
    if total_bits == 0:
        return np.zeros(n, dtype=np.int64)
    # Pad to whole 64-bit words plus one spill word for the final gather.
    n_words = (total_bits + 63) // 64 + 1
    buf = data[: (total_bits + 7) // 8]
    padded = buf + b"\x00" * (n_words * 8 - len(buf))
    words = np.frombuffer(padded, dtype=">u8").astype(np.uint64)
    offsets = np.concatenate(
        ([0], np.cumsum(lengths)[:-1])
    ).astype(np.uint64)
    w = (offsets >> np.uint64(6)).astype(np.int64)
    b = offsets & np.uint64(63)
    left = words[w] << b
    right = (words[w + 1] >> np.uint64(1)) >> (np.uint64(63) - b)
    window = left | right
    out = np.zeros(n, dtype=np.uint64)
    nz = lengths > 0
    out[nz] = window[nz] >> (np.uint64(64) - lengths[nz].astype(np.uint64))
    return out.astype(np.int64)


def bitpack_decode(blob: bytes) -> QuantizedBlock:
    """Inverse of :func:`bitpack_encode`."""
    reader = BlobReader(blob)
    meta = reader.read_json()
    shape = tuple(int(x) for x in meta["shape"])
    layout = str(meta.get("layout", "C"))
    if layout not in ("C", "F"):
        raise DecompressionError(f"corrupt layout tag {layout!r}")
    region = int(meta["region"])
    if region < 1:
        raise DecompressionError(f"corrupt region size {region}")
    n = 1
    for dim in shape:
        n *= dim
    n_regions = (n + region - 1) // region
    widths = np.frombuffer(reader.read_bytes(), dtype=np.uint8).astype(
        np.int64
    )
    if widths.size != n_regions:
        raise DecompressionError(
            f"bitpack region table mismatch: {widths.size} widths for "
            f"{n_regions} regions"
        )
    lows = zigzag_decode(decode_varints(reader.read_bytes(), n_regions))
    payload = reader.read_bytes()
    if n:
        starts = np.arange(0, n, region)
        counts = np.diff(np.r_[starts, n])
        lengths = np.repeat(widths, counts)
        values = unpack_uniform(payload, lengths)
        flat = values + np.repeat(lows.astype(np.int64), counts)
    else:
        flat = np.zeros(0, dtype=np.int64)
    codes = flat.reshape(shape, order=layout)
    wide = zigzag_decode(
        decode_varints(reader.read_bytes(), int(meta["wide_n"]))
    )
    return QuantizedBlock(
        codes=np.ascontiguousarray(codes),
        wide=wide.astype(np.int64),
        marker=int(meta["marker"]),
        order=str(meta["order"]),
    )
