"""The member table: contract, byte-stability, and the new members.

Four layers of guarantees:

1. **Table contract** — the rows of ``MEMBERS`` carry wire ids 1–5 in
   order, every row works as a config method, a CLI ``--method`` choice
   and an ``mdz-<name>`` compressor, and pool validation rejects bad
   input.
2. **Byte identity** — no later change moved a single payload byte of
   any legacy archive.  The 12 MDZ1 fixtures captured on the
   pre-registry seed match their pinned digests, and today's archives
   for the same configurations carry the same per-(buffer, axis)
   payloads and decode bit-identically (``tools/legacy_digests.py``).
3. **New members** — ``interp`` and ``bitadaptive`` round-trip within
   the bound across the container matrix, and ADP with the extended pool
   actually *selects* each of them on a regime built for it.
4. **Bitpack codec** — unit tests for the per-region fixed-width
   encoder stage backing ``bitadaptive``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import create_compressor
from repro.cli import build_parser
from repro.core import registry
from repro.core.config import MDZConfig
from repro.core.registry import METHOD_IDS, METHOD_NAMES
from repro.exceptions import ConfigurationError, DecompressionError
from repro.io.container import (
    container_version,
    read_container,
    read_container_batch,
    read_container_info,
    verify_container,
    write_container,
)
from repro.sz.bitpack import (
    REGION_SIZE,
    bitpack_decode,
    bitpack_encode,
    bitpack_estimate,
    unpack_uniform,
)
from repro.sz.quantizer import QuantizedBlock

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import legacy_digests  # noqa: E402

FULL_POOL = ("vq", "vqt", "mt", "interp", "bitadaptive")


def assert_in_bound(
    recon: np.ndarray,
    data: np.ndarray,
    eb: float,
    span_source: np.ndarray | None = None,
) -> None:
    """Per-axis value-range-relative bound, as the container applies it.

    ``span_source`` supplies the full trajectory when ``data`` is only a
    slice of it (the bound is derived from the whole session's range).
    """
    if span_source is None:
        span_source = data
    spans = span_source.max(axis=(0, 1)) - span_source.min(axis=(0, 1))
    errors = np.abs(recon - data).max(axis=(0, 1))
    assert np.all(errors <= eb * spans * (1 + 1e-9) + 1e-12), (
        errors,
        eb * spans,
    )

#: The three framing variants of the canonical 12-configuration matrix.
VARIANTS = legacy_digests.VARIANTS


# ---------------------------------------------------------------------------
# table contract


def _method_commands() -> dict[str, tuple[list[str], tuple]]:
    """Every CLI subcommand with a ``--method`` option: placeholder
    positional arguments and the option's choices."""
    (sub,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    commands = {}
    for command, subparser in sub.choices.items():
        for action in subparser._actions:
            if action.dest == "method":
                positionals = [
                    f"{other.dest}.npy"
                    for other in subparser._actions
                    if not other.option_strings
                ]
                commands[command] = (positionals, tuple(action.choices))
    return commands


class TestRegistryContract:
    def test_every_wire_id_is_registered(self):
        assert registry.method_names() == tuple(
            sorted(METHOD_IDS, key=METHOD_IDS.get)
        )

    def test_entries_carry_the_wire_ids(self):
        assert [entry.method_id for entry in registry.MEMBERS] == [
            1, 2, 3, 4, 5
        ]
        for entry in registry.MEMBERS:
            assert METHOD_IDS[entry.name] == entry.method_id
            assert METHOD_NAMES[entry.method_id] == entry.name

    def test_every_row_reaches_every_consumer(self):
        """A row is all a member needs: config, CLI, the baseline
        compressors and the name lookup all read the table."""
        commands = _method_commands()
        for entry in registry.MEMBERS:
            name = entry.name
            assert MDZConfig(method=name).method == name
            for command, (positionals, _) in commands.items():
                args = build_parser().parse_args(
                    [command, *positionals, "--method", name]
                )
                assert args.method == name
            assert create_compressor(f"mdz-{name}").config.method == name
            assert METHOD_IDS[name] == entry.method_id
            assert registry.get_method(name).name == name
            assert registry.get_method(name) is entry.method

    def test_cli_method_choices(self):
        commands = _method_commands()
        assert sorted(commands) == ["compress", "stats", "stream", "trace"]
        for _, choices in commands.values():
            assert choices == (
                "adp", "vq", "vqt", "mt", "interp", "bitadaptive"
            )

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError, match="must be one of"):
            MDZConfig(method="nope")
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                ["compress", "in.npy", "out.mdz", "--method", "nope"]
            )
        assert exit_info.value.code == 2

    def test_get_method_is_a_singleton(self):
        assert registry.get_method("mt") is registry.get_method("mt")

    def test_validate_members(self):
        assert registry.validate_members(["mt", "interp"]) == (
            "mt",
            "interp",
        )
        with pytest.raises(ConfigurationError, match="at least one"):
            registry.validate_members(())
        with pytest.raises(ConfigurationError, match="duplicate"):
            registry.validate_members(("mt", "mt"))
        with pytest.raises(ConfigurationError, match="unknown method"):
            registry.validate_members(("mt", "nope"))

    def test_config_validates_the_pool(self):
        with pytest.raises(ConfigurationError):
            MDZConfig(method="adp", adp_members=("mt", "nope"))
        cfg = MDZConfig(method="adp", adp_members=["mt", "interp"])
        assert cfg.adp_members == ("mt", "interp")

    def test_default_pool_is_the_paper_trio(self):
        assert registry.DEFAULT_MEMBERS == ("vq", "vqt", "mt")
        assert MDZConfig().adp_members == registry.DEFAULT_MEMBERS


# ---------------------------------------------------------------------------
# byte identity of the legacy members


class TestLegacyByteIdentity:
    def test_pinned_digests_match(self):
        """The 12 canonical MDZ1 fixtures are byte-identical to the seed."""
        pinned = legacy_digests.load(REPO_ROOT)["digests"]
        current = legacy_digests.compute()
        assert current == pinned, (
            "an MDZ1 fixture under tests/data/mdz1/ changed; MDZ1 is "
            "read-only, so restore it from version control"
        )

    @pytest.mark.parametrize("key", sorted(legacy_digests.configs()))
    def test_current_archive_matches_fixture(self, key):
        """Today's archive keeps the fixture's per-(buffer, axis)
        payloads, bounds and header fields, and decodes bit-identically."""
        legacy = legacy_digests.fixture_path(REPO_ROOT, key).read_bytes()
        current = write_container(
            legacy_digests.pinned_trajectory(),
            legacy_digests.configs()[key],
        )
        assert legacy_digests.compare(legacy, current) == []

    @pytest.mark.parametrize("key", sorted(legacy_digests.configs()))
    def test_fixture_stays_readable(self, key):
        """MDZ1 is read-only, not unreadable: every fixture decodes,
        batch-reads, reports ``info`` and passes ``verify``."""
        legacy = legacy_digests.fixture_path(REPO_ROOT, key).read_bytes()
        trajectory = legacy_digests.pinned_trajectory()
        assert container_version(legacy) == 1
        full = read_container(legacy)
        assert full.shape == trajectory.shape
        assert_in_bound(full, trajectory, 1e-3)
        for b in range(4):  # 16 snapshots in buffers of 5
            part = read_container_batch(legacy, b)
            assert part.tobytes() == full[5 * b:5 * (b + 1)].tobytes()
        info = read_container_info(legacy)
        assert (info.snapshots, info.atoms, info.axes) == trajectory.shape
        assert (info.n_buffers, info.buffer_size) == (4, 5)
        assert info.method == key.split("/")[0] and info.members is None
        assert sum(info.methods_per_axis[0].values()) == 4
        report = verify_container(legacy)
        assert report["format"] == "MDZ1" and report["intact"]

    def test_default_header_has_no_members_key(self, trajectory):
        """Default-pool archives must keep the legacy header shape."""
        blob = write_container(
            trajectory, MDZConfig(error_bound=1e-3, method="adp")
        )
        assert read_container_info(blob).members is None

    def test_non_default_pool_is_recorded(self, trajectory):
        cfg = MDZConfig(
            error_bound=1e-3, method="adp", adp_members=("mt", "interp")
        )
        blob = write_container(trajectory, cfg)
        info = read_container_info(blob)
        assert info.members == ("mt", "interp")
        chosen = set().union(*info.methods_per_axis)
        assert chosen <= {"mt", "interp"}
        assert_in_bound(read_container(blob), trajectory, 1e-3)


# ---------------------------------------------------------------------------
# new members: round-trip + bound across the container matrix

EB = 1e-3


@pytest.fixture
def curved_trajectory() -> np.ndarray:
    """Smooth per-atom oscillation: the regime the new members target."""
    rng = np.random.default_rng(42)
    T, N = 16, 120
    steps = np.arange(T)[:, None, None]
    phase = rng.uniform(0, 2 * np.pi, (1, N, 3))
    freq = rng.uniform(0.05, 0.3, (1, N, 3))
    amp = rng.uniform(0.5, 3.0, (1, N, 3))
    return amp * np.sin(freq * steps + phase) + rng.normal(
        0, 1e-4, (T, N, 3)
    )


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize(
    "method, pool",
    [
        ("interp", None),
        ("bitadaptive", None),
        ("adp", FULL_POOL),
        ("adp", ("interp", "bitadaptive")),
    ],
    ids=["interp", "bitadaptive", "adp-full", "adp-new-only"],
)
def test_new_member_matrix(curved_trajectory, method, pool, variant):
    """Round-trip within bound for every new-member container config."""
    extra = {"adp_members": pool} if pool else {}
    config = MDZConfig(
        error_bound=EB,
        buffer_size=5,
        method=method,
        **VARIANTS[variant],
        **extra,
    )
    blob = write_container(curved_trajectory, config)
    recon = read_container(blob)
    assert recon.shape == curved_trajectory.shape
    assert_in_bound(recon, curved_trajectory, EB)
    info = read_container_info(blob)
    assert info.method == method
    if method != "adp":
        assert set().union(*info.methods_per_axis) == {method}


def test_interp_supports_random_access(curved_trajectory):
    """Interp decodes buffers in isolation (no session reference): a
    random read decodes the target's chunks and not buffer 0's."""
    from repro.io.container import read_container_batch
    from repro.telemetry import recording

    config = MDZConfig(error_bound=EB, buffer_size=5, method="interp")
    blob = write_container(curved_trajectory, config)
    with recording() as rec:
        batch = read_container_batch(blob, 2)
    assert_in_bound(
        batch, curved_trajectory[10:15], EB, span_source=curved_trajectory
    )
    axes = curved_trajectory.shape[2]
    assert rec.snapshot()["timers"]["mdz.decompress_batch"]["count"] == axes


def test_interp_decode_rejects_unknown_order(curved_trajectory):
    """The interpolation order is read from the payload, so a rewritten
    one must fail the decode, not silently select another kernel."""
    from repro.core.methods import MethodState
    from repro.sz.quantizer import LinearQuantizer

    method = registry.get_method("interp")
    state = MethodState(quantizer=LinearQuantizer(1e-3))
    batch = curved_trajectory[:5, :, 0].astype(np.float64)
    order = method.prepare(batch, state).order
    payload, _ = method.encode(batch, state)
    # Same length, so the length-prefixed JSON frame stays well formed.
    bad = payload.replace(
        f'"{order}"'.encode(), f'"{order[:-1]}?"'.encode(), 1
    )
    assert bad != payload
    with pytest.raises(DecompressionError, match="interp order"):
        method.decode(bad, state)


# ---------------------------------------------------------------------------
# ADP matrix: each new member wins (and is chosen) on some regime


def _sizes(data: np.ndarray, eb: float, buffer_size: int) -> dict[str, int]:
    return {
        method: len(
            write_container(
                data,
                MDZConfig(
                    error_bound=eb, buffer_size=buffer_size, method=method
                ),
            )
        )
        for method in FULL_POOL
    }


def _adp_selections(
    data: np.ndarray, eb: float, buffer_size: int
) -> dict[str, int]:
    blob = write_container(
        data,
        MDZConfig(
            error_bound=eb,
            buffer_size=buffer_size,
            method="adp",
            adp_members=FULL_POOL,
        ),
    )
    info = read_container_info(blob)
    totals: dict[str, int] = {}
    for axis in info.methods_per_axis:
        for name, count in axis.items():
            totals[name] = totals.get(name, 0) + count
    return totals


class TestADPMatrix:
    """Each new member beats every legacy member on at least one regime,
    and full-pool ADP picks it there — the pool extension pays for real.
    """

    @staticmethod
    def _smooth_large_amplitude() -> np.ndarray:
        """Low-frequency, large-amplitude oscillation under a tight bound:
        first differences span many bins (hurting Huffman *and* region
        widths) while interp's second-difference residuals stay tiny.
        """
        rng = np.random.default_rng(7)
        T, N = 32, 200
        steps = np.arange(T)[:, None, None]
        phase = rng.uniform(0, 2 * np.pi, (1, N, 3))
        freq = rng.uniform(0.05, 0.2, (1, N, 3))
        amp = rng.uniform(0.5, 8.0, (1, N, 3))
        return amp * np.sin(freq * steps + phase) + rng.normal(
            0, 2e-6, (T, N, 3)
        )

    @staticmethod
    def _mixed_oscillation() -> np.ndarray:
        """Moderate oscillation at a loose bound: codes are small and
        locally homogeneous, so per-region fixed widths beat a global
        Huffman codebook.
        """
        rng = np.random.default_rng(7)
        T, N = 32, 200
        steps = np.arange(T)[:, None, None]
        phase = rng.uniform(0, 2 * np.pi, (1, N, 3))
        freq = rng.uniform(0.05, 0.15, (1, N, 3))
        amp = rng.uniform(0.5, 2.0, (1, N, 3))
        return amp * np.sin(freq * steps + phase) + rng.normal(
            0, 1e-4, (T, N, 3)
        )

    def test_interp_wins_smooth_regime(self):
        sizes = _sizes(self._smooth_large_amplitude(), eb=1e-4, buffer_size=16)
        assert min(sizes, key=sizes.get) == "interp", sizes

    def test_bitadaptive_wins_oscillatory_regime(self):
        sizes = _sizes(self._mixed_oscillation(), eb=1e-3, buffer_size=8)
        assert min(sizes, key=sizes.get) == "bitadaptive", sizes

    def test_adp_selects_interp_where_it_wins(self):
        picks = _adp_selections(
            self._smooth_large_amplitude(), eb=1e-4, buffer_size=16
        )
        assert picks.get("interp", 0) > 0, picks

    def test_adp_selects_bitadaptive_where_it_wins(self):
        picks = _adp_selections(
            self._mixed_oscillation(), eb=1e-3, buffer_size=8
        )
        assert picks.get("bitadaptive", 0) > 0, picks


# ---------------------------------------------------------------------------
# bitpack codec


def _block(codes: np.ndarray, wide=(), marker=999, order="C"):
    return QuantizedBlock(
        codes=np.asarray(codes, dtype=np.int64),
        wide=np.asarray(wide, dtype=np.int64),
        marker=marker,
        order=order,
    )


class TestBitpackCodec:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        codes = rng.integers(-500, 500, (7, 321))
        block = _block(codes, wide=[12345, -99])
        for layout in ("C", "F"):
            out = bitpack_decode(bitpack_encode(block, layout))
            assert np.array_equal(out.codes, block.codes)
            assert np.array_equal(out.wide, block.wide)
            assert out.marker == block.marker
            assert out.order == block.order

    def test_small_regions_round_trip(self):
        rng = np.random.default_rng(4)
        codes = rng.integers(-5, 5, 1000)
        block = _block(codes)
        blob = bitpack_encode(block, "C", region=64)
        assert np.array_equal(bitpack_decode(blob).codes, codes)

    def test_constant_region_costs_zero_payload_bits(self):
        """A quiet region (span 0) stores only its offset."""
        flat = bitpack_encode(_block(np.full(REGION_SIZE, 7)))
        spread = bitpack_encode(
            _block(np.arange(REGION_SIZE) % 256)
        )
        assert len(flat) < len(spread) - REGION_SIZE // 2

    def test_empty_block(self):
        out = bitpack_decode(bitpack_encode(_block(np.zeros((0, 4)))))
        assert out.codes.shape == (0, 4)

    def test_estimate_tracks_actual_size(self):
        rng = np.random.default_rng(5)
        codes = rng.integers(-300, 300, (6, 2000))
        block = _block(codes, wide=[7] * 10)
        actual = len(bitpack_encode(block, "F"))
        estimate = bitpack_estimate(block, "F")
        assert abs(estimate - actual) <= max(64, actual // 20)

    def test_unpack_rejects_corrupt_widths(self):
        with pytest.raises(DecompressionError, match="widths"):
            unpack_uniform(b"\x00" * 8, np.array([60]))

    def test_unpack_rejects_exhausted_payload(self):
        with pytest.raises(DecompressionError, match="exhausted"):
            unpack_uniform(b"\x00", np.array([16, 16]))

    def test_decode_rejects_region_table_mismatch(self):
        blob = bitpack_encode(_block(np.arange(100)), "C", region=10)
        # Re-frame with a lying region size in the JSON header.
        from repro.serde import BlobReader, BlobWriter

        reader = BlobReader(blob)
        meta = reader.read_json()
        meta["region"] = 25
        writer = BlobWriter()
        writer.write_json(meta)
        for _ in range(4):
            writer.write_bytes(reader.read_bytes())
        with pytest.raises(DecompressionError, match="region table"):
            bitpack_decode(writer.getvalue())
