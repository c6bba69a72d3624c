"""Optimal 1-D clustering substrate used by MDZ's vector quantizer.

The VQ compressor (Algorithm 1) needs the *level distance* lambda and
*initial level value* mu of the clustered coordinate distribution.  They are
obtained by optimal 1-D k-means over a sample of the first snapshot
(Section VI-A).  This subpackage implements:

* :mod:`repro.cluster.kmeans1d` — exact dynamic-programming k-means for
  sorted 1-D data; each DP row is a divide and conquer solved one
  recursion depth at a time, in one vectorized pass per depth;
* :mod:`repro.cluster.level_detect` — the sampling, elbow-stopping
  ``G(k) = F(N,k)/F(N,k-1)`` rule with K capped at 150, and the
  equal-distance level fit.
"""

from .kmeans1d import kmeans_1d, kmeans_1d_cost_profile
from .level_detect import LevelFit, detect_levels

__all__ = ["LevelFit", "detect_levels", "kmeans_1d", "kmeans_1d_cost_profile"]
