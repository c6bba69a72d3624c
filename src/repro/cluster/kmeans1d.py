"""Exact 1-D k-means by dynamic programming (Section VI-A, Formula (1)).

Optimally partitioning sorted 1-D points into K contiguous groups admits a
polynomial DP::

    F(n, k) = min_i  F(i-1, k-1) + Cost(i, n)
    H(n, k) = argmin of the same expression

with ``Cost(l, r)`` the within-cluster sum of squared deviations, computable
in O(1) from prefix sums.  The paper adopts the O(KN) algorithm of Gronlund
et al. [55]; we implement the divide-and-conquer variant that exploits the
monotonicity of ``H(n, k)`` in ``n``, giving O(K N log N).  The recursion
runs level-synchronously: all subproblems at one depth are solved in a
single vectorized pass, so a DP layer costs ``ceil(log2(N+1))`` NumPy
passes rather than one Python iteration per prefix length — ample for the
sampled inputs (at most 1536 points) the level detector feeds it.

Small samples (at most ``DENSE_MAX_POINTS``) skip those dependent passes:
each layer is one O(N^2) pass over the matrix of every ``Cost(l, r)``,
built once per profile, that takes each row's first argmin.  When these
argmins do not decrease in ``n``, every window the divide and conquer
would search holds its row's argmin, so both give the same ``F``/``H``
rows bit for bit.  A layer whose argmins do decrease (tie-heavy input
can do that) is not certified and runs the divide and conquer instead.

Indexing conventions: data is sorted ascending; ``F``/``H`` use 1-based
prefix lengths as in the paper, while cluster boundaries are reported as
0-based start indices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

#: Samples of at most this many points try each DP layer as one dense
#: pass over every split (:func:`_dense_row`); larger samples, and any
#: layer the dense pass cannot certify, run the divide and conquer.  On a
#: 2-vCPU host, fits of synthetic 20-level samples (22 layers, median of
#: 15) took 10.8 ms dense against 19.9 ms divide and conquer at 300
#: points, 17.1 against 20.2 ms at 400 and 24.6 against 22.0 ms at 450:
#: the two cross near 420 points.
DENSE_MAX_POINTS = 384


@dataclass(frozen=True)
class KMeans1DResult:
    """Optimal clustering of sorted 1-D data into ``k`` groups.

    Attributes
    ----------
    cost:
        Total within-cluster sum of squared deviations.
    boundaries:
        0-based start index of each cluster (length ``k``, first entry 0),
        over the *sorted* data.
    centroids:
        Mean of each cluster, ascending.
    """

    cost: float
    boundaries: np.ndarray
    centroids: np.ndarray

    @property
    def k(self) -> int:
        """Number of clusters."""
        return int(self.centroids.size)


class _PrefixCost:
    """O(1) ``Cost(l, r)`` queries via prefix sums over sorted data."""

    def __init__(self, sorted_data: np.ndarray) -> None:
        d = np.asarray(sorted_data, dtype=np.float64)
        self.n = d.size
        self.prefix = np.concatenate(([0.0], np.cumsum(d)))
        self.prefix_sq = np.concatenate(([0.0], np.cumsum(d * d)))

    def cost(self, left: np.ndarray, right: int | np.ndarray) -> np.ndarray:
        """SSE of ``data[left : right+1]`` as one cluster.

        Vectorized in ``left`` and, elementwise or by broadcasting, in
        ``right``.  Empty ranges (``left > right``) cost 0 — they arise
        transiently in the DP when a candidate split empties a cluster.
        """
        left = np.asarray(left)
        cnt = np.maximum(right - left + 1, 1)
        s = self.prefix[right + 1] - self.prefix[left]
        sq = self.prefix_sq[right + 1] - self.prefix_sq[left]
        return np.maximum(sq - s * s / cnt, 0.0)

    def mean(self, left: int, right: int) -> float:
        """Mean of ``data[left : right+1]`` (0.0 for an empty range)."""
        count = right - left + 1
        if count <= 0:
            return 0.0
        return (self.prefix[right + 1] - self.prefix[left]) / count


def _dp_row(pc: _PrefixCost, f_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One DP layer: ``F(., k)`` and ``H(., k)`` from ``F(., k-1)``.

    Divide and conquer over the output prefix length: the optimal split
    ``H(n, k)`` is monotone in ``n``, so subproblem ``(lo, hi, opt_lo,
    opt_hi)`` solves its midpoint over the candidate window
    ``opt_lo..min(mid, opt_hi)`` and hands its halves the narrowed windows
    ``opt_lo..best`` and ``best..opt_hi``.  The subproblems of one
    recursion depth are held as four int arrays and solved together: their
    windows are concatenated into one flat candidate array, evaluated in
    one pass and minimized per window with ``np.minimum.reduceat``.  Ties
    go to the smallest candidate, as ``np.argmin`` breaks them.
    """
    n = pc.n
    f_cur = np.full(n + 1, np.inf)
    h_cur = np.zeros(n + 1, dtype=np.int64)
    lo = opt_lo = np.ones(1, dtype=np.int64)
    hi = opt_hi = np.full(1, n, dtype=np.int64)
    while lo.size:
        mid = (lo + hi) // 2
        widths = np.minimum(mid, opt_hi) - opt_lo + 1
        starts = np.cumsum(widths) - widths
        cand = np.arange(widths.sum()) + np.repeat(opt_lo - starts, widths)
        totals = f_prev[cand - 1] + pc.cost(cand - 1, np.repeat(mid - 1, widths))
        lows = np.repeat(np.minimum.reduceat(totals, starts), widths)
        # First minimum of each window; a NaN counts as one, as in np.argmin.
        hits = np.flatnonzero((totals == lows) | np.isnan(totals))
        pick = hits[np.searchsorted(hits, starts)]
        best = cand[pick]
        f_cur[mid] = totals[pick]
        h_cur[mid] = best
        # Children: (lo, mid-1, opt_lo, best) and (mid+1, hi, best, opt_hi).
        lo, hi = np.concatenate((lo, mid + 1)), np.concatenate((mid - 1, hi))
        opt_lo = np.concatenate((opt_lo, best))
        opt_hi = np.concatenate((best, opt_hi))
        keep = lo <= hi
        lo, hi, opt_lo, opt_hi = lo[keep], hi[keep], opt_lo[keep], opt_hi[keep]
    return f_cur, h_cur


def _cost_matrix(pc: _PrefixCost) -> tuple[np.ndarray, np.ndarray]:
    """``Cost(l, r)`` at ``[r, l]`` for every pair, and the mask of ``l > r``.

    Entries come from :meth:`_PrefixCost.cost` itself, so each has the
    bits ``_dp_row`` computes for that pair.
    """
    ends = np.arange(pc.n)
    return pc.cost(ends, ends[:, None]), ends > ends[:, None]


def _dense_row(
    cost: np.ndarray, empty: np.ndarray, f_prev: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """One DP layer over every candidate split, or None if uncertified.

    ``totals[r, l] = F(l, k-1) + Cost(l, r)``; the cells with ``l > r``
    are set to +inf after the add, so a NaN in the tail of ``F(., k-1)``
    is never picked.  Each row's first argmin (a NaN counts as one, as in
    ``np.argmin``) is the global first argmin.  The layer is certified
    only when these argmins do not decrease as ``r`` grows.  Then the
    rows equal ``_dp_row``'s bit for bit: each window it searches is
    bounded by its picks for a row above and a row below, which by
    induction are the global argmins, so the window brackets its own
    row's global argmin and its first minimum is that argmin.
    """
    n = cost.shape[0]
    totals = f_prev[:n] + cost
    np.copyto(totals, np.inf, where=empty)
    best = np.argmin(totals, axis=1)
    if (best[1:] < best[:-1]).any():
        return None
    f_cur = np.full(n + 1, np.inf)
    h_cur = np.zeros(n + 1, dtype=np.int64)
    f_cur[1:] = totals[np.arange(n), best]
    h_cur[1:] = best + 1
    return f_cur, h_cur


def _recover_boundaries(h_rows: list[np.ndarray], n: int, k: int) -> np.ndarray:
    """Walk ``H`` backwards to 0-based cluster start indices.

    ``h_rows[j]`` is the ``H(., j+2)`` row; the split value is the 1-based
    index of the first point of the last cluster.
    """
    starts = np.empty(k, dtype=np.int64)
    end = n  # prefix length still to be partitioned
    for j in range(k - 1, 0, -1):
        split = int(h_rows[j - 1][end])
        starts[j] = split - 1
        end = split - 1
    starts[0] = 0
    return starts


def _result_from_boundaries(
    pc: _PrefixCost, starts: np.ndarray
) -> KMeans1DResult:
    k = starts.size
    ends = np.concatenate((starts[1:], [pc.n]))
    centroids = np.array(
        [pc.mean(int(starts[j]), int(ends[j]) - 1) for j in range(k)]
    )
    cost = float(
        sum(
            pc.cost(np.array([int(starts[j])]), int(ends[j]) - 1)[0]
            for j in range(k)
        )
    )
    return KMeans1DResult(cost=cost, boundaries=starts, centroids=centroids)


def kmeans_1d(data: np.ndarray, k: int) -> KMeans1DResult:
    """Optimal k-means clustering of 1-D data into exactly ``k`` groups.

    ``data`` need not be sorted; it is sorted internally.  Raises
    ``ValueError`` when ``k`` exceeds the number of points.
    """
    n = np.asarray(data).size
    if n == 0:
        raise ValueError("cannot cluster an empty array")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    costs, h_rows, sorted_data = kmeans_1d_cost_profile(data, k)
    return replace(
        clustering_for_k(sorted_data, h_rows, k), cost=float(costs[k - 1])
    )


def kmeans_1d_cost_profile(
    data: np.ndarray,
    k_max: int,
    stop: Callable[[np.ndarray], bool] | None = None,
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Costs ``F(N, 1..k)`` computed incrementally, with early stopping.

    The DP naturally produces ``F(N, 1), F(N, 2), ...`` in order — the paper
    exploits exactly this to stop at the ``G(k)`` elbow.  After each layer
    the optional ``stop(costs_so_far)`` callback may return True to halt.
    Up to ``DENSE_MAX_POINTS`` points, each layer is first tried as one
    dense pass (:func:`_dense_row`) and falls back to :func:`_dp_row` when
    the pass is not certified; larger inputs run :func:`_dp_row` only.
    Either way the rows are the same.

    Returns ``(costs, h_rows, sorted_data)``; pass the latter two to
    :func:`clustering_for_k` to materialize the clustering for any computed
    ``k`` without redoing the DP.
    """
    d = np.sort(np.asarray(data, dtype=np.float64).ravel())
    n = d.size
    if n == 0:
        raise ValueError("cannot cluster an empty array")
    k_max = min(k_max, n)
    pc = _PrefixCost(d)
    f = np.empty(n + 1)
    f[0] = 0.0
    f[1:] = pc.cost(np.zeros(n, dtype=np.int64), np.arange(n))
    costs = [float(f[n])]
    h_rows: list[np.ndarray] = []
    dense = _cost_matrix(pc) if n <= DENSE_MAX_POINTS else None
    for _ in range(2, k_max + 1):
        rows = None if dense is None else _dense_row(*dense, f)
        f, h = _dp_row(pc, f) if rows is None else rows
        h_rows.append(h)
        costs.append(float(f[n]))
        if stop is not None and stop(np.asarray(costs)):
            break
    return np.asarray(costs), h_rows, d


def clustering_for_k(
    sorted_data: np.ndarray, h_rows: list[np.ndarray], k: int
) -> KMeans1DResult:
    """Materialize the optimal ``k``-clustering from stored ``H`` rows."""
    if k - 1 > len(h_rows):
        raise ValueError(f"only {len(h_rows) + 1} layers computed, need {k}")
    starts = _recover_boundaries(h_rows, sorted_data.size, k)
    return _result_from_boundaries(_PrefixCost(sorted_data), starts)
