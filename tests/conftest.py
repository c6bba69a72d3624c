"""Shared fixtures: small, fast synthetic streams for every test module."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

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
