"""Tests for the vectorized encode engine (batched pack + ADP trials).

The encode hot path was rebuilt as batched numpy kernels: vectorized
canonical-code assignment, packed per-codebook encode tables, and a single
cumulative-bit-offset ``pack_codes`` pass over all H2 streams.  These
tests pin the rebuilt path to scalar references, and pin every ADP trial
size to the member's exact dictionary-coded length.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import ADPSelector
from repro.core.levels import SessionLevelModel
from repro.core.methods import MethodState
from repro.core.registry import get_method
from repro.datasets import DATASET_SPECS, load_dataset
from repro.sz.bitio import pack_codes
from repro.sz.huffman import (
    HuffmanCodec,
    canonical_codes,
    code_lengths,
)
from repro.sz.lossless import lossless_compress
from repro.sz.quantizer import LinearQuantizer
from repro.telemetry import recording


# -- canonical_codes: vectorized vs the per-symbol reference loop -------


def _reference_canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """The original per-symbol assignment loop, kept as the oracle."""
    lengths = np.asarray(lengths, dtype=np.int64)
    order = np.lexsort((np.arange(lengths.size), lengths))
    codes = np.zeros(lengths.size, dtype=np.uint64)
    code = 0
    prev_len = 0
    for sym in order:
        length = int(lengths[sym])
        code <<= length - prev_len
        codes[sym] = code
        code += 1
        prev_len = length
    return codes


class TestCanonicalCodesVectorized:
    @given(
        st.lists(
            st.integers(min_value=1, max_value=10_000),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_on_real_length_sets(self, counts):
        lengths = code_lengths(np.asarray(counts, dtype=np.int64))
        assert np.array_equal(
            canonical_codes(lengths), _reference_canonical_codes(lengths)
        )

    def test_matches_reference_on_deep_lengths(self):
        # Hand-built Kraft-exact length sets deeper than the encoder's
        # 16-bit cap (the decoder accepts up to 57): 2^-1 + 2^-2 + ... +
        # 2^-(n-1) + 2^-(n-1) == 1.
        for depth in (20, 40, 57):
            lengths = np.concatenate(
                [np.arange(1, depth + 1), [depth]]
            ).astype(np.int64)
            assert np.array_equal(
                canonical_codes(lengths), _reference_canonical_codes(lengths)
            )

    def test_matches_reference_on_single_symbol(self):
        lengths = np.array([1], dtype=np.int64)
        assert np.array_equal(
            canonical_codes(lengths), _reference_canonical_codes(lengths)
        )


# -- pack_codes: batched word placement vs a bit-string reference -------


def _reference_pack(codes, lengths) -> bytes:
    bits = "".join(
        format(int(c), f"0{int(l)}b")
        for c, l in zip(codes, lengths)
        if int(l)
    )
    if len(bits) % 8:
        bits += "0" * (8 - len(bits) % 8)
    return bytes(
        int(bits[i : i + 8], 2) for i in range(0, len(bits), 8)
    )


class TestPackCodes:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=57),
            min_size=0,
            max_size=400,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, length_list, rnd):
        lengths = np.asarray(length_list, dtype=np.int64)
        codes = np.array(
            [rnd.getrandbits(int(l)) if l else 0 for l in lengths],
            dtype=np.uint64,
        )
        assert pack_codes(codes, lengths) == _reference_pack(codes, lengths)

    def test_deep_codes_straddling_words(self):
        # 57-bit codes guarantee every placement spills across a word
        # boundary sooner or later.
        lengths = np.full(64, 57, dtype=np.int64)
        codes = np.arange(64, dtype=np.uint64) * np.uint64(0x1234567) + np.uint64(1)
        codes &= np.uint64((1 << 57) - 1)
        assert pack_codes(codes, lengths) == _reference_pack(codes, lengths)

    def test_trailing_zero_length_at_word_boundary(self):
        # Regression: zero-length pad codes sitting exactly at a 64-bit
        # boundary used to index one word past the end.
        lengths = np.array([32, 32, 0, 0], dtype=np.int64)
        codes = np.array([1, 2, 0, 0], dtype=np.uint64)
        assert pack_codes(codes, lengths) == _reference_pack(codes, lengths)


# -- bit-exact round trips across alphabet extremes ---------------------


def _alphabet_workload(alphabet: int, n: int = 20_000) -> np.ndarray:
    rng = np.random.default_rng(alphabet)
    # Zipf-ish skew so code lengths spread across the whole range.
    raw = rng.zipf(1.3, n) % alphabet
    out = np.concatenate([np.arange(alphabet), raw]).astype(np.int64)
    return out - alphabet // 2  # negative symbols too


class TestRoundTripAlphabets:
    @pytest.mark.parametrize("alphabet", [1, 2, 255, 257])
    @pytest.mark.parametrize("streams", [1, 8, None])
    def test_round_trip(self, alphabet, streams):
        data = _alphabet_workload(alphabet)
        blob = HuffmanCodec.encode(data, streams=streams)
        assert np.array_equal(HuffmanCodec.decode(blob), data)

    @pytest.mark.parametrize("streams", [1, 8, None])
    def test_deep_codebook_round_trip(self, streams):
        # Doubling counts force a maximally skewed tree, driving the
        # deepest codes to the 16-bit length cap.
        counts = [1, 1] + [2**k for k in range(1, 17)]
        data = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        lengths = code_lengths(np.asarray(counts))
        assert lengths.max() == 16
        blob = HuffmanCodec.encode(data, streams=streams)
        assert np.array_equal(HuffmanCodec.decode(blob), data)

    @pytest.mark.parametrize("streams", [1, 8, None])
    def test_empty_input(self, streams):
        data = np.array([], dtype=np.int64)
        blob = HuffmanCodec.encode(data, streams=streams)
        out = HuffmanCodec.decode(blob)
        assert out.size == 0 and out.dtype == np.int64

    @pytest.mark.parametrize("streams", [1, 8, None])
    def test_constant_input(self, streams):
        data = np.full(10_000, -7, dtype=np.int64)
        blob = HuffmanCodec.encode(data, streams=streams)
        assert np.array_equal(HuffmanCodec.decode(blob), data)

    def test_sparse_alphabet_uses_fallback_table(self):
        # Symbols spread over a huge span force the per-symbol
        # (searchsorted) encode table instead of the dense one.
        rng = np.random.default_rng(5)
        symbols = np.unique(rng.integers(0, 1 << 40, 64, dtype=np.int64))
        data = symbols[rng.integers(0, symbols.size, 30_000)]
        for streams in (1, None):
            blob = HuffmanCodec.encode(data, streams=streams)
            assert np.array_equal(HuffmanCodec.decode(blob), data)


# -- telemetry counters -------------------------------------------------


class TestEncodeTelemetry:
    def test_repeat_encode_is_byte_identical(self):
        """Encoding the same array twice gives the same blob, which
        decodes back to the array."""
        rng = np.random.default_rng(11)
        data = rng.integers(-40, 40, 30_000)
        first = HuffmanCodec.encode(data)
        second = HuffmanCodec.encode(data)
        assert first == second
        assert np.array_equal(HuffmanCodec.decode(second), data)

    def test_trial_counter(self):
        rng = np.random.default_rng(3)
        batch = np.cumsum(rng.normal(0, 1e-4, (6, 400)), axis=0) + np.tile(
            np.linspace(0.0, 5.0, 400), (6, 1)
        )
        state = MethodState(
            quantizer=LinearQuantizer(1e-3),
            layout="F",
            levels=SessionLevelModel(seed=0),
        )
        selector = ADPSelector(interval=50)
        with recording() as rec:
            selector.encode(batch, state)
            counters = rec.snapshot()["counters"]
        assert counters.get("adp.trials", 0) == 1
        assert counters.get(f"adp.winner.{selector.current}", 0) == 1
        for name in selector.members:
            assert counters.get(f"adp.trial_bytes.{name}", 0) > 0


# -- ADP: every trial encodes every member exactly ----------------------


def _axis_streams():
    """A fig11-style dataset/axis matrix, truncated for test runtime."""
    for name in ("copper-b", "helium-b", "pt", "lj"):
        positions = load_dataset(name, snapshots=40).positions
        for axis in range(3):
            yield name, axis, positions[:, :, axis].astype(np.float64)


def _exact_size(name, batch, state):
    """``name``'s dictionary-coded payload size for ``batch``, encoded
    alone on a trial copy of ``state``."""
    method = get_method(name)
    trial = state.clone_for_trial()
    payload = method.serialize(method.prepare(batch, trial), trial)
    return len(lossless_compress(payload, state.lossless_backend))


class TestADPExhaustiveTrials:
    def test_trial_sizes_are_exact_and_winner_is_smallest(self):
        trials = 0
        for name, axis, stream in _axis_streams():
            label = f"{name}/axis{axis}"
            state = MethodState(
                quantizer=LinearQuantizer(1e-3),
                layout="F",
                levels=SessionLevelModel(seed=0),
            )
            selector = ADPSelector(interval=3)
            for start in range(0, stream.shape[0], 5):
                batch = stream[start : start + 5]
                due = selector.trial_due()
                if due:
                    expected = {
                        member: _exact_size(member, batch, state)
                        for member in selector.members
                    }
                _, _, recon = selector.encode(batch, state)
                if state.reference is None:
                    state.reference = recon[0].copy()
                if due:
                    record = selector.history[-1]
                    assert record.sizes == expected, label
                    assert record.chosen == min(
                        expected, key=lambda m: (expected[m], m)
                    ), label
                    trials += 1
        # 12 streams x 4 trials (buffers 0, 1, 3 and 6).
        assert trials == 48
