"""Grouped reads: one entropy pass per group of buffers.

Every full read (``StreamingReader.read_all``/``iter_buffers``, which
``read_container`` calls for both generations) cuts the stream into
groups of consecutive buffers by :data:`repro.io.container.GROUP_VALUES`;
random access decodes buffer 0 and the target as one group.  Whatever the grouping, the
arrays must equal a decode that gives every buffer a group of its own.
"""

from __future__ import annotations

import dataclasses
import io

import numpy as np
import pytest

import repro.io.container as container
from repro.core.config import MDZConfig
from repro.core.mdz import MDZ
from repro.datasets import DATASET_SPECS
from repro.datasets.generators import GENERATORS
from repro.io.container import (
    open_layout,
    read_container,
    read_container_batch,
)
from repro.stream import StreamingWriter
from repro.stream.reader import StreamingReader
from repro.sz import huffman
from repro.telemetry import recording

from .conftest import MDZ1_FIXTURES

ALL_MEMBERS = ("vq", "vqt", "mt", "interp", "bitadaptive")

#: name -> config; 13 snapshots at buffer size 3 leave a short last
#: buffer, and 2100 atoms put every blob on the H2 path, one-snapshot
#: buffer heads included.
CONFIGS = {
    "default-pool": MDZConfig(buffer_size=3),
    "five-member-pool": MDZConfig(buffer_size=3, adp_members=ALL_MEMBERS),
    "seq1": MDZConfig(buffer_size=3, sequence_mode="seq1"),
    "seq2": MDZConfig(buffer_size=3, sequence_mode="seq2"),
    "mt-only": MDZConfig(buffer_size=3, method="mt"),
}


@pytest.fixture(scope="module")
def crystal() -> np.ndarray:
    rng = np.random.default_rng(2024)
    levels = rng.integers(0, 12, (2100, 3)) * 1.7
    vibration = rng.normal(0.0, 0.05, (13, 2100, 3))
    drift = np.cumsum(rng.normal(0.0, 0.003, (13, 1, 3)), axis=0)
    return levels[None] + vibration + drift


@pytest.fixture(scope="module")
def archives(crystal) -> dict[str, bytes]:
    return {
        name: MDZ(config).compress(crystal)
        for name, config in CONFIGS.items()
    }


def _reads(blob: bytes) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """(read_all, concatenated iter_buffers, every read_buffer) of an
    MDZ2 archive."""
    reader = StreamingReader(blob)
    return (
        reader.read_all(),
        np.concatenate(list(reader.iter_buffers())),
        [reader.read_buffer(b) for b in range(reader.n_buffers)],
    )


def _assert_same(got, want) -> None:
    full, iterated, buffers = got
    assert np.array_equal(full, want[0])
    assert np.array_equal(iterated, want[0])
    assert len(buffers) == len(want[2])
    for a, b in zip(buffers, want[2]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_groupings_decode_identically(name, archives, crystal, monkeypatch):
    blob = archives[name]
    monkeypatch.setattr(container, "GROUP_VALUES", 1)
    alone = _reads(blob)
    bound = np.asarray(StreamingReader(blob).error_bounds)
    error = np.abs(alone[0] - crystal).max(axis=(0, 1))
    assert (error <= bound * (1 + 1e-9)).all()
    buffer_values = 3 * 2100 * 3
    # Groups of two and three buffers, then the whole stream in one.
    for budget in (2 * buffer_values - 1, 3 * buffer_values, 10**9):
        monkeypatch.setattr(container, "GROUP_VALUES", budget)
        _assert_same(_reads(blob), alone)


def test_mt_group_boundary_right_after_buffer_0(archives, monkeypatch):
    """Buffer 0 closes the first group; the MT buffers after it read the
    reference it left in the sessions."""
    blob = archives["mt-only"]
    monkeypatch.setattr(container, "GROUP_VALUES", 10**9)
    whole = _reads(blob)
    monkeypatch.setattr(container, "GROUP_VALUES", 3 * 2100 * 3)
    _assert_same(_reads(blob), whole)


def test_one_entropy_pass_per_group(archives, monkeypatch):
    """Groups of two buffers: one Huffman batch each, and fewer rounds
    than with a group per buffer."""
    blob = archives["default-pool"]
    n_buffers = StreamingReader(blob).n_buffers
    snapshots = {}
    for budget in (1, 2 * 3 * 2100 * 3):
        monkeypatch.setattr(container, "GROUP_VALUES", budget)
        with recording() as rec:
            StreamingReader(blob).read_all()
        snapshots[budget] = rec.snapshot()
    alone, paired = snapshots[1], snapshots[2 * 3 * 2100 * 3]
    assert alone["timers"]["sz.huffman.decode"]["count"] == n_buffers
    assert paired["timers"]["sz.huffman.decode"]["count"] == -(-n_buffers // 2)
    # mdz.decompress_batch still observes every (buffer, axis) chunk.
    assert paired["timers"]["mdz.decompress_batch"]["count"] == 3 * n_buffers
    rounds = "sz.huffman.decode.rounds"
    assert paired["counters"][rounds] < alone["counters"][rounds]


@pytest.mark.parametrize("name", ["mt-only", "default-pool"])
def test_salvage_decodes_through_the_grouped_loop(name, archives):
    """Salvage reads decode the buffers around a damaged chunk in order
    with one set of sessions: the arrays equal random reads of the
    intact archive, and buffer 0 is decoded once, not once per buffer."""
    blob = archives[name]
    [entry] = [
        c for c in open_layout(blob).chunks
        if (c.buffer_index, c.axis) == (2, 1)
    ]
    damaged = bytearray(blob)
    damaged[entry.offset + entry.length // 2] ^= 0xFF
    reader = StreamingReader(bytes(damaged), salvage=True)
    decodable = [
        status.index
        for status in reader.salvage_report().buffers
        if status.decodable
    ]
    assert decodable == [0, 1, 3, 4]
    intact = StreamingReader(blob)
    want = [intact.read_buffer(b) for b in decodable]
    with recording() as rec:
        full = reader.read_all()
    assert np.array_equal(full, np.concatenate(want))
    chunks = rec.snapshot()["timers"]["mdz.decompress_batch"]["count"]
    assert chunks == 3 * len(decodable)
    salvaged = list(reader.iter_salvaged())
    assert [index for index, _, _ in salvaged] == decodable
    for (index, first, array), expected in zip(salvaged, want):
        assert first == 3 * index
        assert np.array_equal(array, expected)


@pytest.mark.parametrize(
    "fixture", sorted(p.name for p in MDZ1_FIXTURES.glob("*.mdz"))
)
def test_mdz1_fixtures_group_identically(fixture, monkeypatch):
    blob = (MDZ1_FIXTURES / fixture).read_bytes()
    header = open_layout(blob).header
    n_batches = -(-int(header["snapshots"]) // int(header["buffer_size"]))
    monkeypatch.setattr(container, "GROUP_VALUES", 1)
    alone = read_container(blob)
    rows = int(header["buffer_size"])
    buffer_values = rows * int(header["atoms"]) * int(header["axes"])
    for budget in (2 * buffer_values, 10**9):
        monkeypatch.setattr(container, "GROUP_VALUES", budget)
        assert np.array_equal(read_container(blob), alone)
    for b in range(n_batches):
        assert np.array_equal(
            read_container_batch(blob, b), alone[b * rows : (b + 1) * rows]
        )


@pytest.fixture(scope="module")
def copper_b() -> np.ndarray:
    """40 snapshots of copper-b: four buffers of 3137 atoms, whose MT
    chunks carry a 3137-symbol buffer head per axis."""
    spec = dataclasses.replace(DATASET_SPECS["copper-b"], snapshots=40)
    positions, _ = GENERATORS["copper-b"](spec, np.random.default_rng(7))
    return np.ascontiguousarray(positions, dtype=np.float32)


def _stream_write(data: np.ndarray) -> bytes:
    sink = io.BytesIO()
    with StreamingWriter(sink, MDZConfig()) as writer:
        writer.feed_many(data)
    return sink.getvalue()


def _assert_within_bound(decoded, data, bounds) -> None:
    error = np.abs(decoded.astype(np.float64) - data).max(axis=(0, 1))
    assert (error <= np.asarray(bounds) * (1 + 1e-9)).all()


def test_default_write_never_walks_a_blob(copper_b, monkeypatch):
    """A default write codes every blob of 1024 or more symbols as H2,
    so no read of it (full, iterated, random or salvage) takes the
    scalar v1 walker."""
    blob = _stream_write(copper_b)

    def _walker(*args):
        raise AssertionError("the scalar v1 walker ran")

    monkeypatch.setattr(huffman, "_decode_stream", _walker)
    reader = StreamingReader(blob)
    full = reader.read_all()
    _assert_within_bound(full, copper_b, reader.error_bounds)
    assert np.array_equal(np.concatenate(list(reader.iter_buffers())), full)
    rows = reader.buffer_size
    for b in range(reader.n_buffers):
        assert np.array_equal(
            reader.read_buffer(b), full[b * rows : (b + 1) * rows]
        )
    [entry] = [
        c for c in open_layout(blob).chunks
        if (c.buffer_index, c.axis) == (2, 1)
    ]
    damaged = bytearray(blob)
    damaged[entry.offset + entry.length // 2] ^= 0xFF
    salvaged = StreamingReader(bytes(damaged), salvage=True)
    decodable = [
        status.index
        for status in salvaged.salvage_report().buffers
        if status.decodable
    ]
    assert 2 not in decodable and len(decodable) >= 2
    want = [full[b * rows : (b + 1) * rows] for b in decodable]
    assert np.array_equal(salvaged.read_all(), np.concatenate(want))


def test_v1_head_archive_still_decodes(copper_b, monkeypatch):
    """Archives written while buffer heads were v1 blobs (the H2
    threshold at 4096 symbols) read within bound through the walker."""
    monkeypatch.setattr(huffman, "_H2_MIN_SYMBOLS", 4096)
    blob = _stream_write(copper_b)
    monkeypatch.undo()
    reader = StreamingReader(blob)
    with recording() as rec:
        full = reader.read_all()
    assert rec.snapshot()["counters"]["sz.huffman.decode.v1_blobs"] > 0
    _assert_within_bound(full, copper_b, reader.error_bounds)
    rows = reader.buffer_size
    for b in range(reader.n_buffers):
        assert np.array_equal(
            reader.read_buffer(b), full[b * rows : (b + 1) * rows]
        )
