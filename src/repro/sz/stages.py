"""Entropy backends the compression members hold directly.

Each backend bundles the pipeline verbs (``encode`` / ``estimate`` /
``parse`` / ``decode``) into one namespace object, so a member swaps its
whole entropy stage by setting one class attribute — compare
:data:`HUFFMAN_INT_STREAM` (global Huffman codebook, Seq-1/Seq-2 aware),
which :class:`~repro.core.mt.MTMethod` holds, with :data:`BITPACK`
(per-region bit depths, arXiv 2404.02826 style), which
:class:`~repro.core.bitadaptive.BitAdaptiveMethod` holds instead.

``parse(blob, batch)`` is the first half of ``decode``: it registers
the blob's Huffman sub-blobs with a :class:`~repro.sz.huffman.HuffmanBatch`
and returns the step that builds the block once the batch is decoded.
"""

from __future__ import annotations

from types import SimpleNamespace

from . import bitpack as _bitpack
from . import pipeline as _pipeline

#: Huffman entropy backend: the original MDZ serialization
#: (:mod:`repro.sz.pipeline`) — one global codebook over the flattened
#: code array, optional H2 sub-stream fan-out, varint side channel.
HUFFMAN_INT_STREAM = SimpleNamespace(
    encode=_pipeline.encode_int_stream,
    estimate=_pipeline.estimate_int_stream_bytes,
    parse=_pipeline.parse_int_stream,
    decode=_pipeline.decode_int_stream,
)

#: Bit-adaptive backend: per-region offset + bit-width fixed packing
#: (:mod:`repro.sz.bitpack`).  Same QuantizedBlock in/out contract as
#: the Huffman backend; extra keyword arguments are accepted and
#: ignored so the two are call-compatible.  ``encode`` looks
#: ``bitpack_encode`` up at call time, so a wrapper installed on the
#: module attribute sees every call.  ``parse`` registers nothing: its
#: reconstruct step looks ``BITPACK.decode`` up when it runs, for the
#: same reason.
BITPACK = SimpleNamespace(
    encode=lambda block, layout="C", alphabet_hint=None, streams=None: (
        _bitpack.bitpack_encode(block, layout)
    ),
    estimate=lambda block, layout="C", alphabet_hint=None, streams=None: (
        _bitpack.bitpack_estimate(block, layout)
    ),
    parse=lambda blob, batch: lambda: BITPACK.decode(blob),
    decode=_bitpack.bitpack_decode,
)
