"""Tests for the binary section framing (repro.serde)."""

import numpy as np
import pytest

from repro.exceptions import DecompressionError
from repro.serde import BlobReader, BlobWriter


class TestBlobRoundTrip:
    def test_bytes_section(self):
        w = BlobWriter()
        w.write_bytes(b"hello world")
        r = BlobReader(w.getvalue())
        assert r.read_bytes() == b"hello world"
        assert r.exhausted

    def test_empty_bytes(self):
        w = BlobWriter()
        w.write_bytes(b"")
        assert BlobReader(w.getvalue()).read_bytes() == b""

    def test_json_section(self):
        payload = {"a": 1, "b": [1.5, None], "c": {"nested": True}}
        w = BlobWriter()
        w.write_json(payload)
        assert BlobReader(w.getvalue()).read_json() == payload

    @pytest.mark.parametrize(
        "arr",
        [
            np.arange(10, dtype=np.int64),
            np.random.default_rng(0).normal(size=(3, 4, 5)),
            np.array([], dtype=np.float32),
            np.array(3.5),  # zero-dim
            np.arange(6, dtype=np.uint8).reshape(2, 3),
        ],
    )
    def test_array_sections(self, arr):
        w = BlobWriter()
        w.write_array(arr)
        out = BlobReader(w.getvalue()).read_array()
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape
        assert np.array_equal(out, arr)

    def test_mixed_sections_in_order(self):
        w = BlobWriter()
        w.write_json({"k": 1})
        w.write_bytes(b"xyz")
        w.write_array(np.ones(3))
        r = BlobReader(w.getvalue())
        assert r.read_json() == {"k": 1}
        assert r.read_bytes() == b"xyz"
        assert np.array_equal(r.read_array(), np.ones(3))
        assert r.exhausted

    def test_len_tracks_written_bytes(self):
        w = BlobWriter()
        assert len(w) == 0
        w.write_bytes(b"abcd")
        assert len(w) == 9 + 4  # frame header + body


class TestBlobErrors:
    def test_wrong_tag_raises(self):
        w = BlobWriter()
        w.write_bytes(b"data")
        r = BlobReader(w.getvalue())
        with pytest.raises(DecompressionError, match="expected section tag"):
            r.read_json()

    def test_truncated_header_raises(self):
        w = BlobWriter()
        w.write_bytes(b"data")
        blob = w.getvalue()[:5]
        with pytest.raises(DecompressionError, match="truncated"):
            BlobReader(blob).read_bytes()

    def test_truncated_body_raises(self):
        w = BlobWriter()
        w.write_bytes(b"0123456789")
        blob = w.getvalue()[:-4]
        with pytest.raises(DecompressionError, match="truncated"):
            BlobReader(blob).read_bytes()
        # A length no blob can hold (it once escaped as OverflowError).
        huge = blob[:1] + (2**63 + 5).to_bytes(8, "little") + blob[9:]
        with pytest.raises(DecompressionError, match="truncated"):
            BlobReader(huge).read_bytes()

    def test_array_length_mismatch_raises(self):
        w = BlobWriter()
        w.write_array(np.arange(8, dtype=np.int64))
        blob = bytearray(w.getvalue())
        # Body layout: hdr_len u32 | dtype '<i8' | ndim u32 | shape u64 | data.
        # The shape's low byte sits right after tag(1)+len(8)+4+3+4 = 20.
        assert blob[20] == 8
        blob[20] = 9  # claim 9 elements while only 8 are present
        with pytest.raises(DecompressionError):
            BlobReader(bytes(blob)).read_array()
