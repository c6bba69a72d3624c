"""Tests for the optimal 1-D k-means DP (repro.cluster.kmeans1d)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import kmeans1d
from repro.cluster.kmeans1d import (
    _cost_matrix,
    _dense_row,
    _dp_row,
    _PrefixCost,
    clustering_for_k,
    kmeans_1d,
    kmeans_1d_cost_profile,
)
from repro.cluster.level_detect import MAX_SAMPLE_POINTS, _stop_rule


def brute_force_cost(data: np.ndarray, k: int) -> float:
    """Exhaustive optimal k-means cost over sorted 1-D data."""
    d = np.sort(data)
    n = d.size

    def sse(seg):
        seg = np.asarray(seg)
        return float(((seg - seg.mean()) ** 2).sum()) if seg.size else 0.0

    best = np.inf
    for cuts in itertools.combinations(range(1, n), k - 1):
        bounds = (0, *cuts, n)
        cost = sum(sse(d[bounds[i] : bounds[i + 1]]) for i in range(k))
        best = min(best, cost)
    return best


class TestOptimality:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_brute_force(self, k, rng):
        data = rng.normal(0, 1, 9)
        result = kmeans_1d(data, k)
        assert result.cost == pytest.approx(brute_force_cost(data, k), abs=1e-9)

    def test_separated_clusters_found_exactly(self, rng):
        data = np.concatenate(
            [rng.normal(c * 10, 0.1, 40) for c in range(5)]
        )
        result = kmeans_1d(data, 5)
        assert np.allclose(np.sort(result.centroids), [0, 10, 20, 30, 40], atol=0.2)
        assert result.cost < 40 * 5 * 0.1**2 * 3

    def test_k_equals_n_zero_cost(self, rng):
        data = rng.normal(0, 1, 6)
        assert kmeans_1d(data, 6).cost == pytest.approx(0.0, abs=1e-12)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_property_matches_brute_force(self, data):
        values = data.draw(
            st.lists(
                st.floats(-100, 100, allow_nan=False),
                min_size=3,
                max_size=8,
            )
        )
        k = data.draw(st.integers(1, min(4, len(values))))
        arr = np.array(values)
        got = kmeans_1d(arr, k).cost
        want = brute_force_cost(arr, k)
        assert got == pytest.approx(want, abs=1e-6, rel=1e-6)


class TestStructure:
    def test_boundaries_partition_data(self, rng):
        data = rng.normal(0, 5, 100)
        result = kmeans_1d(data, 7)
        assert result.boundaries[0] == 0
        assert (np.diff(result.boundaries) >= 1).all()
        assert result.boundaries[-1] < 100

    def test_centroids_ascending(self, rng):
        data = rng.uniform(0, 10, 60)
        result = kmeans_1d(data, 5)
        assert (np.diff(result.centroids) >= 0).all()

    def test_cost_decreases_with_k(self, rng):
        data = rng.uniform(0, 10, 80)
        costs = [kmeans_1d(data, k).cost for k in range(1, 8)]
        assert all(a >= b - 1e-9 for a, b in zip(costs, costs[1:]))


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            kmeans_1d(np.empty(0), 1)

    def test_bad_k_rejected(self, rng):
        with pytest.raises(ValueError):
            kmeans_1d(rng.normal(0, 1, 5), 6)
        with pytest.raises(ValueError):
            kmeans_1d(rng.normal(0, 1, 5), 0)


class TestCostProfile:
    def test_profile_matches_individual_runs(self, rng):
        data = rng.normal(0, 3, 50)
        costs, h_rows, sorted_data = kmeans_1d_cost_profile(data, 5)
        for k in range(1, 6):
            assert costs[k - 1] == pytest.approx(
                kmeans_1d(data, k).cost, rel=1e-9, abs=1e-9
            )

    def test_early_stop_callback(self, rng):
        data = rng.normal(0, 3, 50)
        costs, _, _ = kmeans_1d_cost_profile(
            data, 40, stop=lambda c: c.size >= 4
        )
        assert costs.size == 4

    def test_clustering_for_k_consistent(self, rng):
        data = rng.normal(0, 3, 60)
        costs, h_rows, sorted_data = kmeans_1d_cost_profile(data, 6)
        for k in (1, 3, 6):
            direct = kmeans_1d(data, k)
            from_profile = clustering_for_k(sorted_data, h_rows, k)
            assert from_profile.cost == pytest.approx(direct.cost, rel=1e-9, abs=1e-9)

    def test_too_few_layers_rejected(self, rng):
        data = rng.normal(0, 3, 20)
        costs, h_rows, sorted_data = kmeans_1d_cost_profile(data, 2)
        with pytest.raises(ValueError):
            clustering_for_k(sorted_data, h_rows, 5)


def _stack_dp_row(pc: _PrefixCost, f_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-subproblem stack loop ``_dp_row`` replaced, kept verbatim
    as the oracle that the level-synchronous rows and the certified dense
    rows must equal bit for bit."""
    n = pc.n
    f_cur = np.full(n + 1, np.inf)
    h_cur = np.zeros(n + 1, dtype=np.int64)
    stack = [(1, n, 1, n)]
    while stack:
        lo, hi, opt_lo, opt_hi = stack.pop()
        if lo > hi:
            continue
        mid = (lo + hi) // 2
        cand = np.arange(opt_lo, min(mid, opt_hi) + 1)
        totals = f_prev[cand - 1] + pc.cost(cand - 1, mid - 1)
        pick = int(np.argmin(totals))
        f_cur[mid] = float(totals[pick])
        best = int(cand[pick])
        h_cur[mid] = best
        stack.append((lo, mid - 1, opt_lo, best))
        stack.append((mid + 1, hi, best, opt_hi))
    return f_cur, h_cur


def _checked_dp_row(pc, f_prev):
    """``_dp_row``, asserting both rows equal the oracle's."""
    f_cur, h_cur = _dp_row(pc, f_prev)
    f_want, h_want = _stack_dp_row(pc, f_prev)
    assert np.array_equal(f_cur, f_want, equal_nan=True)
    assert np.array_equal(h_cur, h_want)
    return f_cur, h_cur


def _checked_layer(pc, f_prev, dense):
    """``_checked_dp_row``, and the dense layer on the same ``F(., k-1)``:
    where it is certified, its rows must equal the oracle's too.

    Returns the oracle-checked rows and whether the dense layer was
    certified (an uncertified one returns None instead of rows).
    """
    f_cur, h_cur = _checked_dp_row(pc, f_prev)
    rows = _dense_row(*dense, f_prev)
    if rows is not None:
        assert np.array_equal(rows[0], f_cur, equal_nan=True)
        assert np.array_equal(rows[1], h_cur)
    return f_cur, h_cur, rows is not None


#: Tie-heavy inputs: small integers, constant runs, and rounded floats.
_TIE_HEAVY = st.one_of(
    st.lists(st.integers(-3, 3), min_size=1, max_size=400),
    st.lists(
        st.tuples(st.integers(-50, 50), st.integers(1, 80)),
        min_size=1,
        max_size=30,
    ).map(lambda runs: [v for v, r in runs for _ in range(r)][:400]),
    st.lists(
        st.floats(-20, 20, allow_nan=False).map(lambda x: round(x, 1)),
        min_size=1,
        max_size=400,
    ),
)


def _first_layer(data):
    """The prefix-cost table of sorted ``data`` and its ``F(., 1)`` row."""
    pc = _PrefixCost(np.sort(np.asarray(data, dtype=np.float64)))
    ends = np.arange(pc.n)
    return pc, np.concatenate(([0.0], pc.cost(np.zeros_like(ends), ends)))


class TestLevelSynchronousRows:
    """Every ``F``/``H`` row equals the stack loop's, layer after layer."""

    @given(values=_TIE_HEAVY, k_max=st.integers(2, 10))
    @settings(max_examples=60, deadline=None)
    def test_tie_heavy_rows_match_stack_loop(self, values, k_max):
        pc, f = _first_layer(values)
        dense = _cost_matrix(pc)
        for _ in range(2, min(k_max, pc.n) + 1):
            f, _, _ = _checked_layer(pc, f, dense)

    def test_layers_with_infinite_f0_match(self, rng):
        pc, f = _first_layer(np.repeat(rng.integers(0, 9, 40), 3))
        dense = _cost_matrix(pc)
        for k in range(2, 9):
            if k >= 3:
                assert np.isinf(f[0])
            f, _, _ = _checked_layer(pc, f, dense)
            # F(n, k) is infinite exactly for the prefixes too short to
            # fill k - 1 clusters before the last one.
            assert np.isinf(f[: k - 1]).all() and np.isfinite(f[k - 1 :]).all()

    @pytest.mark.parametrize(
        "values",
        [
            [1e200, -1e200, 0.0, 1.0, 2.0, 3.0, 3.0, 5.0],  # d * d overflows
            [np.inf, 0.0, 1.0, 2.0, 2.0, 7.0],
            [0.0, 1.0, 2.0, 3.0, 1e155, 2e155],  # overflow at the tail only
            [-4.0, 0.0, 0.0, 1.0, 1.0, 2.0, 3.0, 5.0, 8e154, 1e155],
        ],
    )
    def test_nan_costs_pick_the_first_nan(self, values):
        """Non-finite prefix sums make NaN costs; ``np.argmin`` takes a
        window's first NaN, and so must the level-synchronous pass and
        the dense layer."""
        with np.errstate(over="ignore", invalid="ignore"):
            pc, f = _first_layer(values)
            dense = _cost_matrix(pc)
            for _ in range(2, 5):
                f, _, _ = _checked_layer(pc, f, dense)
        assert np.isnan(f).any()

    @pytest.mark.parametrize(
        "values", [[1.0] * 4 + [1e155, 2e155], [-3.0] * 7 + [1e155, 2e155]]
    )
    def test_dense_layer_never_picks_an_empty_cluster(self, values):
        """Two overflowing values at the tail make ``F(., 1)`` NaN beyond
        a finite prefix, so the cells with ``l > r`` hold NaN until they
        are masked.  A NaN there would be its row's first and break the
        certificate; masked, every row picks a real split, the layer is
        certified and equals the oracle."""
        with np.errstate(over="ignore", invalid="ignore"):
            pc, f = _first_layer(values)
            tail = pc.n - 1
            assert np.isfinite(f[:tail]).all() and np.isnan(f[tail:]).all()
            rows = _dense_row(*_cost_matrix(pc), f)
            f_want, h_want = _stack_dp_row(pc, f)
        assert rows is not None
        assert (rows[1][1:] <= np.arange(1, pc.n + 1)).all()
        assert np.array_equal(rows[0], f_want, equal_nan=True)
        assert np.array_equal(rows[1], h_want)

    def test_level_detect_profile_matches(self, rng, monkeypatch):
        levels = rng.integers(0, 12, MAX_SAMPLE_POINTS) * 1.8
        sample = levels + rng.normal(0.0, 0.04, MAX_SAMPLE_POINTS)
        monkeypatch.setattr(kmeans1d, "_dp_row", _checked_dp_row)
        _, h_rows, _ = kmeans_1d_cost_profile(sample, 150, stop=_stop_rule)
        # Twelve levels: the stop rule only halts past that elbow, so
        # every layer up to it went through the oracle check.
        assert len(h_rows) >= 12


#: Rounded floats whose layer 7 has decreasing global first argmins:
#: there the dense layer differs from the divide and conquer in 2 rows.
_UNCERTIFIED = np.round(np.random.default_rng(33).uniform(-20, 20, 300), 1)


def _clustered_sample(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 8, n) * 1.8 + rng.normal(0.0, 0.04, n)


def _raise(*args):
    raise AssertionError("this path must not run")


class TestDenseLayers:
    """Small samples try each layer densely; the rows never change."""

    def test_uncertified_layer_falls_back(self, monkeypatch):
        pc, f = _first_layer(_UNCERTIFIED)
        dense = _cost_matrix(pc)
        certified = []
        for _ in range(2, 11):
            f, _, ok = _checked_layer(pc, f, dense)
            certified.append(ok)
        assert certified == [k != 7 for k in range(2, 11)]
        calls = []

        def counted_dp_row(pc, f_prev):
            calls.append(pc.n)
            return _dp_row(pc, f_prev)

        monkeypatch.setattr(kmeans1d, "_dp_row", counted_dp_row)
        costs, h_rows, _ = kmeans_1d_cost_profile(_UNCERTIFIED, 10)
        assert len(calls) == 1
        monkeypatch.setattr(kmeans1d, "DENSE_MAX_POINTS", 0)
        want_costs, want_rows, _ = kmeans_1d_cost_profile(_UNCERTIFIED, 10)
        assert len(calls) == 10
        assert np.array_equal(costs, want_costs)
        assert len(h_rows) == len(want_rows) == 9
        for got, want in zip(h_rows, want_rows):
            assert np.array_equal(got, want)

    def test_small_sample_runs_no_divide_and_conquer(self, monkeypatch):
        sample = _clustered_sample(104)
        with monkeypatch.context() as patch:
            patch.setattr(kmeans1d, "DENSE_MAX_POINTS", 0)
            want_costs, want_rows, _ = kmeans_1d_cost_profile(
                sample, 150, stop=_stop_rule
            )
        monkeypatch.setattr(kmeans1d, "_dp_row", _raise)
        costs, h_rows, _ = kmeans_1d_cost_profile(sample, 150, stop=_stop_rule)
        assert len(h_rows) == len(want_rows) >= 8
        assert np.array_equal(costs, want_costs)
        for got, want in zip(h_rows, want_rows):
            assert np.array_equal(got, want)

    def test_large_sample_runs_no_dense_layer(self, monkeypatch):
        sample = _clustered_sample(kmeans1d.DENSE_MAX_POINTS + 1)
        monkeypatch.setattr(kmeans1d, "_dense_row", _raise)
        monkeypatch.setattr(kmeans1d, "_cost_matrix", _raise)
        _, h_rows, _ = kmeans_1d_cost_profile(sample, 150, stop=_stop_rule)
        assert len(h_rows) >= 8

    @pytest.mark.parametrize("n", [1, 2, 3, 17])
    def test_profiles_match_divide_and_conquer(self, n, monkeypatch):
        sample = _clustered_sample(n, seed=n)
        costs, h_rows, _ = kmeans_1d_cost_profile(sample, 12)
        monkeypatch.setattr(kmeans1d, "DENSE_MAX_POINTS", 0)
        want_costs, want_rows, _ = kmeans_1d_cost_profile(sample, 12)
        assert np.array_equal(costs, want_costs)
        assert len(h_rows) == len(want_rows)
        for got, want in zip(h_rows, want_rows):
            assert np.array_equal(got, want)
