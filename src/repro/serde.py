"""Binary section framing shared by every compressor in the package.

Compressed payloads in this library are assembled from small, self-describing
*sections*.  A section is either a raw byte blob, a numpy array (dtype and
shape are recorded in the frame so the reader needs no out-of-band schema),
or a JSON-serializable metadata object.  Framing every piece of
a payload keeps the individual compressors honest: the sizes reported in the
benchmarks are the sizes of complete, decodable streams, headers included.

The format of one frame is::

    tag     : 1 byte   (SectionTag)
    length  : u64 LE   (byte length of the body)
    body    : `length` bytes

Array bodies carry their own mini-header (dtype string, ndim, shape) before
the raw data.  All integers are little-endian.
"""

from __future__ import annotations

import io
import json
import struct
from enum import IntEnum
from typing import Any, BinaryIO

import numpy as np

from .exceptions import DecompressionError

_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")


class SectionTag(IntEnum):
    """Discriminator byte written in front of every frame body."""

    BYTES = 1
    ARRAY = 2
    # 3 was a UTF-8 string section; reserved, never reused.
    JSON = 4


class BlobWriter:
    """Accumulates framed sections into a single ``bytes`` payload.

    Example
    -------
    >>> w = BlobWriter()
    >>> w.write_json({"method": "vq"})
    >>> w.write_array(np.arange(4))
    >>> blob = w.getvalue()
    """

    def __init__(self) -> None:
        self._buf = io.BytesIO()

    def write_bytes(self, data: bytes) -> None:
        """Append a raw byte blob section."""
        self._write_frame(SectionTag.BYTES, data)

    def write_json(self, obj: Any) -> None:
        """Append a JSON metadata section (compact separators)."""
        body = json.dumps(obj, separators=(",", ":"), sort_keys=True)
        self._write_frame(SectionTag.JSON, body.encode("utf-8"))

    def write_array(self, arr: np.ndarray) -> None:
        """Append a numpy array section (dtype and shape self-described)."""
        # note: ascontiguousarray would promote 0-dim arrays to 1-dim;
        # tobytes() already serializes any layout in C order.
        arr = np.asarray(arr)
        dtype_name = arr.dtype.str  # e.g. '<f8', includes byte order
        header = dtype_name.encode("ascii")
        body = io.BytesIO()
        body.write(_U32.pack(len(header)))
        body.write(header)
        body.write(_U32.pack(arr.ndim))
        for dim in arr.shape:
            body.write(_U64.pack(dim))
        body.write(arr.tobytes())
        self._write_frame(SectionTag.ARRAY, body.getvalue())

    def getvalue(self) -> bytes:
        """Return everything written so far as one byte string."""
        return self._buf.getvalue()

    def __len__(self) -> int:
        return self._buf.getbuffer().nbytes

    def _write_frame(self, tag: SectionTag, body: bytes) -> None:
        self._buf.write(bytes([tag]))
        self._buf.write(_U64.pack(len(body)))
        self._buf.write(body)


class BlobReader:
    """Reads framed sections back in the order they were written.

    Every ``read_*`` method verifies the frame tag and raises
    :class:`~repro.exceptions.DecompressionError` on mismatch or truncation,
    so format corruption is detected at the earliest possible point.
    """

    def __init__(self, blob: bytes) -> None:
        self._buf: BinaryIO = io.BytesIO(blob)
        self._size = len(blob)

    def read_bytes(self) -> bytes:
        """Read the next section, which must be a raw byte blob."""
        return self._read_frame(SectionTag.BYTES)

    def read_json(self) -> Any:
        """Read the next section, which must be a JSON object."""
        body = self._read_frame(SectionTag.JSON)
        try:
            return json.loads(body.decode("utf-8"))
        except ValueError as exc:  # pragma: no cover - corrupted stream
            raise DecompressionError(f"corrupt JSON section: {exc}") from exc

    def read_array(self) -> np.ndarray:
        """Read the next section, which must be a numpy array."""
        body = self._read_frame(SectionTag.ARRAY)
        view = io.BytesIO(body)
        (hdr_len,) = _U32.unpack(self._take(view, 4))
        dtype = np.dtype(self._take(view, hdr_len).decode("ascii"))
        (ndim,) = _U32.unpack(self._take(view, 4))
        shape = tuple(
            _U64.unpack(self._take(view, 8))[0] for _ in range(ndim)
        )
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        raw = view.read()
        expected = count * dtype.itemsize
        if len(raw) != expected:
            raise DecompressionError(
                f"array section body has {len(raw)} bytes, expected {expected}"
            )
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()

    @property
    def position(self) -> int:
        """Offset of the next unread byte of the blob."""
        return self._buf.tell()

    @property
    def exhausted(self) -> bool:
        """True when every section has been consumed."""
        return self._buf.tell() >= self._size

    def _read_frame(self, expected: SectionTag) -> bytes:
        head = self._buf.read(9)
        if len(head) != 9:
            raise DecompressionError("truncated stream: missing frame header")
        tag = head[0]
        (length,) = _U64.unpack(head[1:])
        if tag != expected:
            raise DecompressionError(
                f"expected section tag {expected.name}, found {tag}"
            )
        if length > self._size - self._buf.tell():
            raise DecompressionError("truncated stream: short frame body")
        return self._buf.read(length)

    @staticmethod
    def _take(view: BinaryIO, n: int) -> bytes:
        data = view.read(n)
        if len(data) != n:
            raise DecompressionError("truncated stream: short array header")
        return data
