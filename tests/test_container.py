"""Tests for the .mdz container format and the MDZ front end."""

import threading

import numpy as np
import pytest

from repro.cli import main
from repro.core.config import MDZConfig
from repro.core.mdz import MDZ
from repro.exceptions import (
    CompressionError,
    ContainerFormatError,
    DecompressionError,
)
from repro.io.container import (
    container_version,
    read_container,
    read_container_batch,
    read_container_info,
    verify_container,
    write_container,
)
from repro.stream import StreamingReader, parse_stream

from .conftest import (
    FORGED_PAYLOADS,
    FORGED_TAGS,
    HOSTILE_COUNTS,
    HOSTILE_OFFSETS,
    _rewrite_mdz1,
)


class TestContainerRoundTrip:
    def test_full_round_trip(self, trajectory):
        config = MDZConfig(buffer_size=4)
        blob = write_container(trajectory, config)
        out = read_container(blob)
        assert out.shape == trajectory.shape
        for a in range(3):
            axis = trajectory[:, :, a]
            bound = 1e-3 * (axis.max() - axis.min())
            assert np.max(np.abs(out[:, :, a] - axis)) <= bound * (1 + 1e-9)

    def test_partial_final_batch(self, trajectory):
        config = MDZConfig(buffer_size=5)  # 12 snapshots -> 5+5+2
        out = read_container(write_container(trajectory, config))
        assert out.shape == trajectory.shape

    @pytest.mark.parametrize("method", ["vq", "vqt", "mt", "adp"])
    def test_all_methods(self, trajectory, method):
        config = MDZConfig(buffer_size=4, method=method)
        out = read_container(write_container(trajectory, config))
        assert out.shape == trajectory.shape

    def test_float32_input(self, trajectory):
        blob = write_container(trajectory.astype(np.float32), MDZConfig())
        out = read_container(blob)
        assert out.shape == trajectory.shape

    def test_compresses(self, trajectory):
        blob = write_container(trajectory, MDZConfig(buffer_size=6))
        assert len(blob) < trajectory.astype(np.float32).nbytes


class TestRandomAccess:
    def test_batch_access_matches_full_decode(self, trajectory):
        config = MDZConfig(buffer_size=4)
        blob = write_container(trajectory, config)
        full = read_container(blob)
        for batch_index, t0 in enumerate(range(0, 12, 4)):
            piece = read_container_batch(blob, batch_index)
            assert np.array_equal(piece, full[t0 : t0 + 4])

    def test_vq_batches_without_head_decode(self, trajectory):
        config = MDZConfig(buffer_size=4, method="vq")
        blob = write_container(trajectory, config)
        piece = read_container_batch(blob, 2)
        full = read_container(blob)
        assert np.array_equal(piece, full[8:12])

    def test_out_of_range_batch_rejected(self, trajectory):
        blob = write_container(trajectory, MDZConfig(buffer_size=4))
        with pytest.raises(ContainerFormatError):
            read_container_batch(blob, 99)


class TestContainerErrors:
    def test_bad_magic_rejected(self, mdz1_archive):
        blob = bytearray(mdz1_archive)
        blob[9] ^= 0xFF  # first magic byte (after the frame header)
        with pytest.raises(ContainerFormatError, match="magic"):
            read_container(bytes(blob))

    def test_truncated_container_rejected(self, trajectory):
        blob = write_container(trajectory, MDZConfig(buffer_size=4))
        with pytest.raises(ContainerFormatError):
            read_container(blob[: len(blob) // 3])

    def test_short_garbage_rejected(self):
        with pytest.raises(ContainerFormatError):
            read_container(b"\x01\x02")

    def test_empty_trajectory_rejected(self):
        with pytest.raises(CompressionError):
            write_container(np.empty((0, 5, 3)), MDZConfig())

    def test_wrong_rank_rejected(self):
        with pytest.raises(CompressionError):
            write_container(np.zeros((4, 5)), MDZConfig())


class TestForgedHeaders:
    """A header field that is missing, mistyped or invalid raises
    ``ContainerFormatError`` naming it, through every reader."""

    def test_one_shot_decompress(self, forged_headers):
        for field, blob in forged_headers.values():
            with pytest.raises(ContainerFormatError, match=f"'{field}'"):
                MDZ().decompress(blob)

    def test_streaming_reader(self, forged_headers):
        for field, blob in forged_headers.values():
            reader = StreamingReader(blob)
            with pytest.raises(ContainerFormatError, match=f"'{field}'"):
                reader.read_all()
            with pytest.raises(ContainerFormatError, match=f"'{field}'"):
                reader.read_buffer(1)

    def test_mdz1_missing_scale(self, mdz1_archive):
        forged = _rewrite_mdz1(mdz1_archive, lambda h: h.pop("scale"))
        with pytest.raises(ContainerFormatError, match="'scale'"):
            MDZ().decompress(forged)
        with pytest.raises(ContainerFormatError, match="'scale'"):
            read_container_batch(forged, 0)


def _raises_within(read, expected, seconds=1.0):
    """Run ``read`` on a daemon thread; it must raise ``expected``
    before ``seconds`` pass."""
    outcome = []

    def target():
        try:
            read()
        except Exception as exc:  # noqa: BLE001 - checked below
            outcome.append(exc)
        else:
            outcome.append(None)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still reading after {seconds} s"
    [exc] = outcome
    assert isinstance(exc, expected), exc


class TestHostileCounts:
    """Header counts a reader would loop or allocate on — no axes, no or
    negative atoms, bounds or an index that disagree with ``axes`` —
    raise ``ContainerFormatError`` within 1 s through every reader of
    both generations.  More atoms than the chunks hold passes the header
    check and fails on the reconstructed chunk's shape."""

    @staticmethod
    def _expected(case):
        if case == "atoms-extra":
            return DecompressionError
        return ContainerFormatError

    @pytest.mark.parametrize("case", sorted(HOSTILE_COUNTS))
    def test_mdz2(self, hostile_counts, case):
        blob, expected = hostile_counts["MDZ2", case], self._expected(case)
        _raises_within(lambda: read_container(blob), expected)
        _raises_within(lambda: read_container_batch(blob, 1), expected)
        _raises_within(
            lambda: StreamingReader(blob, recover=True).read_all(), expected
        )

    @pytest.mark.parametrize("case", sorted(HOSTILE_COUNTS))
    def test_mdz1(self, hostile_counts, case):
        blob, expected = hostile_counts["MDZ1", case], self._expected(case)
        _raises_within(lambda: read_container(blob), expected)
        _raises_within(lambda: read_container_batch(blob, 1), expected)

    def test_index_must_agree_with_axes(self, hostile_counts):
        """Two axes with two bounds pass the header fields, but the index
        of a three-axis archive contradicts them."""
        for generation in ("MDZ1", "MDZ2"):
            blob = hostile_counts[generation, "axes-short-index"]
            with pytest.raises(ContainerFormatError, match="index"):
                read_container(blob)


class TestHostileOffsets:
    """MDZ1 index offsets that are swapped, point past the payload or
    are negative raise ``ContainerFormatError`` within 1 s through every
    reader (an MDZ1 archive opens strictly whatever the recovery flags
    say), and ``verify_container`` reports the archive as not intact."""

    @pytest.mark.parametrize("case", sorted(HOSTILE_OFFSETS))
    def test_mdz1(self, mdz1_archive, case):
        blob = _rewrite_mdz1(mdz1_archive, edit_offsets=HOSTILE_OFFSETS[case])
        for read in (
            lambda: read_container(blob),
            lambda: read_container_batch(blob, 1),
            lambda: read_container_info(blob),
            lambda: StreamingReader(blob, salvage=True).read_all(),
        ):
            _raises_within(read, ContainerFormatError)
        report = verify_container(blob)
        assert not report["intact"]
        assert "index offset" in report["errors"][0]


class TestForgedPayloads:
    """A chunk payload field a member cannot use (a VQ residual stream's
    literal count ``wide_n`` of -1, "x" or null) or a Huffman codebook
    deeper than the encoder writes raises ``DecompressionError``, not
    the builtin error it trips nor the original values, through every
    reader."""

    @pytest.mark.parametrize("case", sorted(FORGED_PAYLOADS))
    def test_readers(self, forged_payloads, case):
        blob = forged_payloads[case]
        for read in (
            lambda: read_container(blob),
            lambda: read_container_batch(blob, 0),
            lambda: StreamingReader(blob).read_all(),
        ):
            with pytest.raises(DecompressionError, match=FORGED_PAYLOADS[case]):
                read()


class TestForgedTags:
    """A chunk whose method tag is a string, null or missing raises
    ``DecompressionError`` from ``read_container_info`` as from a full
    read, and ``mdz info`` reports it as a clean error."""

    @pytest.mark.parametrize("case", sorted(FORGED_TAGS))
    def test_info(self, forged_tags, case):
        blob = forged_tags[case]
        for read in (
            lambda: read_container_info(blob),
            lambda: read_container(blob),
        ):
            with pytest.raises(DecompressionError, match="corrupt chunk"):
                read()

    @pytest.mark.parametrize("case", sorted(FORGED_TAGS))
    def test_cli_info(self, forged_tags, case, tmp_path, capsys):
        path = tmp_path / "forged.mdz"
        path.write_bytes(forged_tags[case])
        assert main(["info", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [decompression_failed] corrupt chunk")
        assert "Traceback" not in err


class TestMDZFrontEnd:
    def test_compress_decompress(self, trajectory):
        mdz = MDZ(MDZConfig(buffer_size=6))
        out = mdz.decompress(mdz.compress(trajectory))
        for a in range(3):
            axis = trajectory[:, :, a]
            bound = 1e-3 * (axis.max() - axis.min())
            assert np.max(np.abs(out[:, :, a] - axis)) <= bound * (1 + 1e-9)

    def test_2d_input_promoted(self, crystal_stream):
        mdz = MDZ(MDZConfig(buffer_size=10))
        out = mdz.decompress(mdz.compress(crystal_stream))
        assert out.shape == (*crystal_stream.shape, 1)

    def test_decompress_batch_api(self, trajectory):
        mdz = MDZ(MDZConfig(buffer_size=4))
        blob = mdz.compress(trajectory)
        piece = mdz.decompress_batch(blob, 1)
        assert np.array_equal(piece, mdz.decompress(blob)[4:8])

    def test_default_config(self):
        assert MDZ().config.method == "adp"


class TestIntegrity:
    def test_payload_crc_detects_bit_flips(self, mdz1_archive):
        blob = bytearray(mdz1_archive)
        blob[-10] ^= 0x01  # flip one bit deep inside the payload
        with pytest.raises(ContainerFormatError, match="checksum"):
            read_container(bytes(blob))

    def test_crc_verified_on_batch_access(self, mdz1_archive):
        blob = bytearray(mdz1_archive)
        blob[-10] ^= 0x01
        with pytest.raises(ContainerFormatError, match="checksum"):
            read_container_batch(bytes(blob), 0)


class TestOneShotIsMDZ2:
    """``MDZ.compress`` goes through the streaming writer, so one-shot
    archives carry per-chunk CRCs and survive truncation."""

    def test_compress_writes_mdz2(self, trajectory):
        blob = MDZ(MDZConfig(buffer_size=4)).compress(trajectory)
        assert container_version(blob) == 2
        assert verify_container(blob)["intact"]

    def test_bounds_resolved_over_whole_trajectory(self, trajectory):
        # The range widens after the first buffer; a streaming producer
        # would resolve against buffer 0 only.
        widened = trajectory.copy()
        widened[-1] *= 3.0
        blob = write_container(widened, MDZConfig(buffer_size=4))
        expected = [
            1e-3 * (widened[:, :, a].max() - widened[:, :, a].min())
            for a in range(3)
        ]
        assert StreamingReader(blob).error_bounds == pytest.approx(
            expected, rel=1e-12
        )

    @pytest.fixture
    def truncated(self, trajectory, tmp_path):
        """An ``MDZ.compress`` archive cut in the middle of buffer 2."""
        blob = MDZ(MDZConfig(buffer_size=4)).compress(trajectory)
        chunk = [c for c in parse_stream(blob).chunks if c.buffer_index == 2][0]
        path = tmp_path / "cut.mdz"
        path.write_bytes(blob[: chunk.offset + chunk.length // 2])
        return path, MDZ().decompress(blob)

    def test_truncated_archive_reads_intact_prefix(self, truncated):
        path, full = truncated
        with pytest.raises(ContainerFormatError):
            read_container(path.read_bytes())
        prefix = StreamingReader(path, recover=True).read_all()
        assert prefix.tobytes() == full[:8].tobytes()

    def test_truncated_archive_repairs(self, truncated, tmp_path):
        path, full = truncated
        fixed = tmp_path / "fixed.mdz"
        assert main(["repair", str(path), str(fixed)]) == 0
        repaired = fixed.read_bytes()
        assert verify_container(repaired)["intact"]
        assert read_container(repaired).tobytes() == full[:8].tobytes()
