"""Sampling-based level detection for the VQ predictor (Section VI-A).

MDZ models a clustered coordinate axis as equal-distant *levels*:
``level(i) = mu + lambda * i``.  The fit proceeds exactly as the paper
describes:

1. sample 10 % of the first snapshot (once per simulation — the level
   pattern is stable across snapshots);
2. run the incremental 1-D k-means DP, watching ``G(k) = F(N,k)/F(N,k-1)``
   and stopping when the improvement ratio collapses after its elbow, with
   K capped at 150 (more clusters would hurt the compression of the level
   indexes);
3. recover the cluster boundaries from ``H``, and least-squares-fit the
   equal-distance line through the ascending centroids to obtain
   ``(lambda, mu)``.

Datasets with no clustering structure (uniform histograms, Figure 4 (b)
(e) (f)) yield K = 1: lambda falls back to the value range and VQ
gracefully degrades to mean prediction — which is precisely when the
adaptive selector will prefer VQT/MT anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kmeans1d import clustering_for_k, kmeans_1d_cost_profile

#: Paper's cap on the number of clusters tested.
MAX_CLUSTERS = 150

#: Fraction of the first snapshot sampled for the DP.
SAMPLE_FRACTION = 0.10

#: Hard cap on the sample size fed to the O(K N log N) DP.
MAX_SAMPLE_POINTS = 1536

#: The elbow is the layer where the improvement ratio ``G`` collapses and
#: then rebounds: ``G(k+1) / G(k)`` must exceed ``ELBOW_JUMP`` and ``G(k)``
#: itself must show real improvement (below ``ELBOW_GAIN``).  Once ``G``
#: stays above ``PLATEAU`` for a few layers after a drop, the incremental
#: DP stops (adding clusters no longer helps).
ELBOW_JUMP = 1.3
ELBOW_GAIN = 0.85
ELBOW_DROP = 0.6
#: Minimum anomaly of G(k) below the unclustered-baseline ((k-1)/k)^2 for
#: k to count as a genuine level count.
ELBOW_SCORE = 1.4
PLATEAU = 0.90
PLATEAU_PATIENCE = 3


@dataclass(frozen=True)
class LevelFit:
    """Equal-distant level model of one coordinate axis.

    Attributes
    ----------
    lam:
        Level distance (lambda in Algorithm 1); always positive.
    mu:
        Initial level value (mu in Algorithm 1).
    k:
        Number of detected levels (1 = no clustering structure).
    centroids:
        The raw k-means centroids the line was fitted through.
    residual:
        RMS deviation of the centroids from the fitted line, normalized by
        ``lam`` — a diagnostic for how equal-distant the levels really are.
    """

    lam: float
    mu: float
    k: int
    centroids: np.ndarray
    residual: float

    def level_index(self, values: np.ndarray) -> np.ndarray:
        """Nearest level index for each value (the ``L_i`` of Algorithm 1)."""
        return np.rint(
            (np.asarray(values, dtype=np.float64) - self.mu) / self.lam
        ).astype(np.int64)

    def level_value(self, indices: np.ndarray) -> np.ndarray:
        """Centroid value of each level index (the ``V_i`` of Algorithm 1)."""
        return self.mu + self.lam * np.asarray(indices, dtype=np.float64)


def _sample(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """10 % sample (bounded) of the snapshot used for the DP."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    target = max(16, int(round(SAMPLE_FRACTION * flat.size)))
    target = min(target, MAX_SAMPLE_POINTS, flat.size)
    if target >= flat.size:
        return flat
    idx = rng.choice(flat.size, size=target, replace=False)
    return flat[idx]


def _choose_k(costs: np.ndarray) -> int:
    """Pick K from the ``F(N, k)`` profile via the ``G(k)`` elbow rule.

    The true cluster count shows up as the layer where ``G(k)`` (the
    improvement ratio ``F(N,k)/F(N,k-1)``) bottoms out and then rebounds:
    splitting the last genuine cluster helps a lot, splitting vibration
    noise barely helps.  We therefore pick ``k`` maximizing the rebound
    ``G(k+1)/G(k)``, requiring both a real rebound (``> ELBOW_JUMP``) and a
    real drop at the elbow itself (``G(k) < ELBOW_GAIN``).  Smooth profiles
    (unclustered data) have no such point and yield K = 1.
    """
    if costs.size <= 2:
        return 1
    with np.errstate(divide="ignore", invalid="ignore"):
        g = costs[1:] / np.maximum(costs[:-1], 1e-300)  # G(k) for k = 2..
    g = np.where(np.isfinite(g), g, 1.0)
    # Unclustered (smooth) data follows the harmonic law F(N,k) ~ 1/k^2,
    # i.e. G(k) ~ ((k-1)/k)^2.  A genuine level count shows up as G(k)
    # anomalously *below* that baseline: splitting the last real cluster
    # helps far more than splitting noise.  Score each k by the ratio and
    # demand a clear anomaly, otherwise declare no structure (K = 1).
    ks = np.arange(2, g.size + 2, dtype=np.float64)
    expected = ((ks - 1.0) / ks) ** 2
    scores = expected / np.maximum(g, 1e-12)
    # Once the clustering cost has collapsed to numerical noise, further
    # ratios are meaningless — exclude those layers from the scoring.
    floor = max(float(costs[0]) * 1e-9, 1e-30)
    converged = costs[1:] <= floor
    scores = np.where(converged, 0.0, scores)
    best = int(np.argmax(scores))
    if scores[best] < ELBOW_SCORE:
        return 1
    return best + 2


def _stop_rule(costs: np.ndarray) -> bool:
    """Early-exit callback for the incremental DP.

    Stops once the elbow has been passed and ``G`` has plateaued near 1 for
    a few layers — the paper's "stop the computation of F at kappa if
    G(kappa) decreases significantly" criterion, made symmetric so the
    plateau after the drop terminates the scan.
    """
    if costs.size >= 2 and costs[-1] <= max(costs[0] * 1e-9, 1e-30):
        # Cost collapsed to numerical noise: nothing left to split.
        return True
    if costs.size < PLATEAU_PATIENCE + 2:
        return False
    with np.errstate(divide="ignore", invalid="ignore"):
        g = costs[1:] / np.maximum(costs[:-1], 1e-300)
    saw_drop = bool((g < ELBOW_DROP).any())
    tail = g[-PLATEAU_PATIENCE:]
    return saw_drop and bool((tail > PLATEAU).all())


def detect_levels(
    snapshot: np.ndarray,
    max_clusters: int = MAX_CLUSTERS,
    seed: int = 0,
) -> LevelFit:
    """Fit the equal-distant level model to one coordinate snapshot.

    Parameters
    ----------
    snapshot:
        1-D array of coordinate values (one axis of the first snapshot).
    max_clusters:
        Upper bound on K (paper: 150).
    seed:
        Seed for the sampling RNG, so a given dataset always yields the
        same level model (the fit is reused for the whole run).
    """
    rng = np.random.default_rng(seed)
    sample = _sample(snapshot, rng)
    value_range = float(sample.max() - sample.min())
    if value_range == 0.0:
        # Perfectly constant axis: one level, unit distance placeholder.
        return LevelFit(
            lam=1.0,
            mu=float(sample[0]),
            k=1,
            centroids=np.array([float(sample[0])]),
            residual=0.0,
        )
    costs, h_rows, sorted_sample = kmeans_1d_cost_profile(
        sample, k_max=max_clusters, stop=_stop_rule
    )
    k = _choose_k(costs)
    clustering = clustering_for_k(sorted_sample, h_rows, k)
    centroids = clustering.centroids
    if k == 1:
        return LevelFit(
            lam=value_range,
            mu=float(centroids[0]),
            k=1,
            centroids=centroids,
            residual=0.0,
        )
    # Least-squares line through (index, centroid): centroid_i ~ mu + lam*i.
    idx = np.arange(k, dtype=np.float64)
    lam, mu = np.polyfit(idx, centroids, 1)
    lam = float(abs(lam))
    if lam <= 0 or not np.isfinite(lam):
        lam = value_range
    fitted = mu + lam * idx
    residual = float(np.sqrt(np.mean((centroids - fitted) ** 2)) / lam)
    return LevelFit(
        lam=lam, mu=float(mu), k=k, centroids=centroids, residual=residual
    )
