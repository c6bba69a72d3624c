"""The one bucketed-duration histogram behind every timer view.

Stage timers, their rolling windows, the Prometheus exposition and the
``mdz top`` stage panel all hold durations as a :class:`Histogram` on the
fixed grid :data:`TIMER_BUCKETS`, and all estimate quantiles with
:meth:`Histogram.quantile`, so every view reports the same quantile for
the same buckets.

Bucket ``i`` holds durations ``d`` with ``TIMER_BUCKETS[i - 1] <= d <
TIMER_BUCKETS[i]`` (bucket 0 starts at zero).  The overflow bucket,
``len(TIMER_BUCKETS)``, holds everything past the last edge; the
estimator treats it as one doubling wide so quantiles and their widths
stay finite.  Every duration is in seconds, so the histogram carries no
unit.
"""

from __future__ import annotations

import math
from bisect import bisect_right

#: Fixed histogram bucket upper bounds in seconds: powers of two from
#: 1 µs to ~67 s.  Fixed (not adaptive) so histograms merge across worker
#: processes by plain addition.
TIMER_BUCKETS = tuple(1e-6 * 2.0**i for i in range(27))

#: The quantiles a timer view reports.
QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


class Histogram:
    """Count, sum, extrema and sparse bucket counts of durations.

    ``min``/``max`` start at ``+inf``/``-inf``; a histogram rebuilt from
    a scrape keeps them there, which marks its extrema as unknown.
    """

    __slots__ = ("count", "seconds", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.seconds = 0.0
        self.min = math.inf
        self.max = -math.inf
        #: bucket index -> number of durations in it (no zero entries)
        self.buckets: dict[int, int] = {}

    def observe(self, seconds: float) -> None:
        """Fold one duration in."""
        self.count += 1
        self.seconds += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds
        index = bisect_right(TIMER_BUCKETS, seconds)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def merge(self, other: "Histogram") -> None:
        """Add ``other`` into this histogram."""
        self.count += other.count
        self.seconds += other.seconds
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n

    def quantile(self, q: float) -> tuple[float, float] | None:
        """``(estimate, bucket width)`` of the ``q``-quantile, or ``None``
        when empty.

        The estimate interpolates linearly inside the bucket that holds
        rank ``q * count``, as PromQL's ``histogram_quantile`` does, and
        is then clamped to ``[min, max]`` when those are known.  The
        width of that bucket is the estimate's resolution.
        """
        if not self.count:
            return None
        rank = q * self.count
        below = 0
        for index in sorted(self.buckets):
            n = self.buckets[index]
            if below + n >= rank:
                break
            below += n
        if index < len(TIMER_BUCKETS):
            lo = TIMER_BUCKETS[index - 1] if index else 0.0
            hi = TIMER_BUCKETS[index]
        else:  # the overflow bucket counts as one doubling wide
            lo, hi = TIMER_BUCKETS[-1], 2.0 * TIMER_BUCKETS[-1]
        estimate = lo + (hi - lo) * (rank - below) / n
        if self.min <= self.max:
            estimate = min(max(estimate, self.min), self.max)
        return estimate, hi - lo

    def to_json(self) -> dict:
        """The timer view: ``count``, ``seconds`` and, when non-empty,
        ``min``/``max``, ``p50``/``p95``/``p99``, ``bucket_widths`` and
        ``hist`` (string bucket keys)."""
        view = {"count": self.count, "seconds": self.seconds}
        if self.count:
            view["min"] = self.min
            view["max"] = self.max
            widths = {}
            for label, q in QUANTILES:
                view[label], widths[label] = self.quantile(q)
            view["bucket_widths"] = widths
            view["hist"] = {str(k): n for k, n in sorted(self.buckets.items())}
        return view

    @classmethod
    def from_json(cls, view: dict) -> "Histogram":
        """Rebuild a histogram from a :meth:`to_json` view."""
        hist = cls()
        hist.count = int(view.get("count", 0))
        hist.seconds = float(view.get("seconds", 0.0))
        hist.min = float(view.get("min", math.inf))
        hist.max = float(view.get("max", -math.inf))
        hist.buckets = {int(k): int(n) for k, n in view.get("hist", {}).items()}
        return hist
