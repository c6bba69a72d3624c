"""Shared fixtures: small, fast synthetic streams for every test module."""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import MDZConfig
from repro.core.mdz import MDZ

#: Legacy MDZ1 archives, written before MDZ1 became read-only
#: (``tools/legacy_digests.py`` pins their digests).
MDZ1_FIXTURES = Path(__file__).resolve().parent / "data" / "mdz1"


@pytest.fixture
def mdz1_archive() -> bytes:
    """A legacy MDZ1 archive: default ADP pool, seq2, zlib, BS=5."""
    return (MDZ1_FIXTURES / "adp-seq2-zlib.mdz").read_bytes()


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for test data."""
    return np.random.default_rng(12345)


@pytest.fixture
def crystal_stream(rng) -> np.ndarray:
    """A (20, 300) stream with discrete levels + small vibration.

    Mimics the Copper-B regime: level structure in space, decorrelated
    vibration in time.
    """
    levels = rng.integers(0, 10, 300) * 1.8
    vibration = rng.normal(0.0, 0.04, (20, 300))
    return (levels[None, :] + vibration).astype(np.float64)


@pytest.fixture
def smooth_stream(rng) -> np.ndarray:
    """A (20, 300) stream that is very smooth in time (Pt/LJ regime)."""
    base = rng.uniform(0.0, 50.0, 300)
    drift = np.cumsum(rng.normal(0.0, 0.005, (20, 300)), axis=0)
    return (base[None, :] + drift).astype(np.float64)


@pytest.fixture
def random_stream(rng) -> np.ndarray:
    """A (20, 300) stream with no structure (protein/solvent regime)."""
    return np.cumsum(rng.normal(0.0, 0.5, (20, 300)), axis=0) + rng.uniform(
        0, 30, 300
    )


@pytest.fixture
def trajectory(rng) -> np.ndarray:
    """A small (12, 150, 3) trajectory for container-level tests."""
    levels = rng.integers(0, 8, (150, 3)) * 2.0
    vib = rng.normal(0.0, 0.03, (12, 150, 3))
    drift = np.cumsum(rng.normal(0.0, 0.002, (12, 1, 3)), axis=0)
    return levels[None, :, :] + vib + drift


def absolute_bound(stream: np.ndarray, epsilon: float = 1e-3) -> float:
    """Value-range-relative bound -> absolute, as the harness does."""
    return float(epsilon) * float(stream.max() - stream.min())


#: Forged header edits, keyed by case: the header field each one breaks
#: and the in-place edit (missing, mistyped or invalid values).
FORGED_HEADERS = {
    "scale-missing": ("scale", lambda h: h.pop("scale")),
    "scale-string": ("scale", lambda h: h.update(scale="x")),
    "scale-null": ("scale", lambda h: h.update(scale=None)),
    "lossless-missing": ("lossless", lambda h: h.pop("lossless")),
    "method-unknown": ("method", lambda h: h.update(method="zz")),
    "sequence-unknown": ("sequence", lambda h: h.update(sequence="zz")),
    "bounds-zero": ("error_bounds", lambda h: h.update(error_bounds=[0] * 3)),
}


def _rewrite_mdz2_header(blob: bytes, edit) -> bytes:
    """``blob`` with its MDZ2 header JSON edited in place.

    The new JSON is space-padded to the old length and its CRC
    recomputed, so every chunk offset in the footer stays valid and only
    the header's content is hostile.
    """
    (length,) = struct.unpack_from("<I", blob, 8)  # after b"MDZ2" b"HDR2"
    header = json.loads(blob[12 : 12 + length])
    edit(header)
    body = json.dumps(header, separators=(",", ":")).encode().ljust(length)
    assert len(body) == length, "a forged header must not grow"
    crc = struct.pack("<I", zlib.crc32(body))
    return blob[:12] + body + crc + blob[16 + length :]


@pytest.fixture
def forged_headers(trajectory) -> dict[str, tuple[str, bytes]]:
    """``{case: (field, archive)}`` for every :data:`FORGED_HEADERS` case,
    each an ``MDZ.compress`` archive of ``trajectory`` with one forged
    header field."""
    blob = MDZ(MDZConfig(buffer_size=4)).compress(trajectory)
    return {
        case: (field, _rewrite_mdz2_header(blob, edit))
        for case, (field, edit) in FORGED_HEADERS.items()
    }
