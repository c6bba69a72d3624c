"""Level-fit gate: dense k-means layers against the divide and conquer.

``detect_levels`` runs on the first snapshot's x axis of helium-b,
copper-b and pt (inputs seeded ``[1, 1]``), once as selected and once
with ``DENSE_MAX_POINTS`` forced to 0, so that every layer runs the
divide and conquer.  The two must give the same fit.  At helium-b's 104
sample points the selected path, dense layers, must be at least 3x
faster on the same runner; pt's 881 points must run no dense layer.
"""

import dataclasses
import time

import numpy as np

from conftest import record
from repro.cluster import kmeans1d
from repro.cluster.level_detect import _sample, detect_levels
from repro.datasets.generators import GENERATORS
from repro.datasets.registry import DATASET_SPECS

DATASETS = ("helium-b", "copper-b", "pt")
REPEATS = 7
MIN_SPEEDUP = 3.0


def _first_snapshot_x(name: str) -> np.ndarray:
    spec = dataclasses.replace(DATASET_SPECS[name], snapshots=1)
    positions, _ = GENERATORS[name](spec, np.random.default_rng([1, 1]))
    return np.asarray(positions[0, :, 0], dtype=np.float32)


def _timed_fits(snapshot: np.ndarray):
    """Median seconds over ``REPEATS`` fits, and the last fit."""
    seconds = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fit = detect_levels(snapshot)
        seconds.append(time.perf_counter() - start)
    return float(np.median(seconds)), fit


def _same_fit(a, b) -> bool:
    return (
        (a.lam, a.mu, a.k, a.residual) == (b.lam, b.mu, b.k, b.residual)
        and np.array_equal(a.centroids, b.centroids)
    )


def test_level_fit(results_dir, monkeypatch):
    dense_calls = []
    dense_row = kmeans1d._dense_row

    def counted_dense_row(*args):
        dense_calls.append(1)
        return dense_row(*args)

    monkeypatch.setattr(kmeans1d, "_dense_row", counted_dense_row)
    rows = {}
    for name in DATASETS:
        snapshot = _first_snapshot_x(name)
        dense_calls.clear()
        selected_s, fit = _timed_fits(snapshot)
        dense_layers = len(dense_calls) // REPEATS
        with monkeypatch.context() as patch:
            patch.setattr(kmeans1d, "DENSE_MAX_POINTS", 0)
            dc_s, dc_fit = _timed_fits(snapshot)
        assert _same_fit(fit, dc_fit), name
        points = _sample(snapshot, np.random.default_rng(0)).size
        rows[name] = (points, fit.k, dense_layers, selected_s, dc_s)

    lines = [
        "Level fit: detect_levels on the first snapshot's x axis "
        f"(inputs seeded [1, 1]), median of {REPEATS}",
        f"cutoff DENSE_MAX_POINTS = {kmeans1d.DENSE_MAX_POINTS}",
        f"{'dataset':10s} {'points':>6s} {'K':>4s} {'dense layers':>12s} "
        f"{'selected ms':>11s} {'D&C ms':>8s} {'speed-up':>8s}",
    ]
    for name, (points, k, layers, selected_s, dc_s) in rows.items():
        lines.append(
            f"{name:10s} {points:6d} {k:4d} {layers:12d} "
            f"{selected_s * 1e3:11.1f} {dc_s * 1e3:8.1f} "
            f"{dc_s / selected_s:7.1f}x"
        )
    record(results_dir, "level_fit", "\n".join(lines))

    points, _, layers, selected_s, dc_s = rows["helium-b"]
    assert points <= kmeans1d.DENSE_MAX_POINTS and layers > 0
    assert dc_s >= MIN_SPEEDUP * selected_s, (selected_s, dc_s)
    points, _, layers, _, _ = rows["pt"]
    assert points > kmeans1d.DENSE_MAX_POINTS and layers == 0
