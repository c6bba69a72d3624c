"""SZ error-bounded lossy compression framework substrate.

The paper's compressor (Section III-B) builds on the SZ framework
[Di & Cappello 2016; Tao et al. 2017]: prediction, linear-scale quantization,
entropy coding (Huffman), and a trailing dictionary coder (Zstd in the paper,
DEFLATE here).  This subpackage provides each stage as a reusable component
plus the SZ2 baseline compressor assembled from them.
"""

from .bitio import BitWriter
from .huffman import HuffmanCodec
from .lossless import available_backends, lossless_compress, lossless_decompress
from .quantizer import LinearQuantizer, QuantizedBlock
from .predictors import (
    lorenzo_1d_codes,
    lorenzo_1d_reconstruct,
    lorenzo_2d_codes,
    lorenzo_2d_reconstruct,
    reference_codes,
    reference_reconstruct,
    timewise_codes,
    timewise_reconstruct,
)
from .pipeline import decode_int_stream, encode_int_stream
from .interp import SZInterpCompressor
from .sz2 import SZ2Compressor

__all__ = [
    "BitWriter",
    "HuffmanCodec",
    "LinearQuantizer",
    "QuantizedBlock",
    "SZ2Compressor",
    "SZInterpCompressor",
    "available_backends",
    "decode_int_stream",
    "encode_int_stream",
    "lorenzo_1d_codes",
    "lorenzo_1d_reconstruct",
    "lorenzo_2d_codes",
    "lorenzo_2d_reconstruct",
    "lossless_compress",
    "lossless_decompress",
    "reference_codes",
    "reference_reconstruct",
    "timewise_codes",
    "timewise_reconstruct",
]
