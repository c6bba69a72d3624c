"""Rolling time windows over recorder activity.

Cumulative counters answer "how much since boot", which is the wrong
question for a long-running ``mdz serve``: an operator wants *rates* —
requests per second over the last minute, the p99 of the last five
minutes — not totals that average a week of idle time into every number.

:class:`RollingWindows` keeps a fixed ring of per-interval buckets
(default: 72 buckets of 5 s, i.e. six minutes of history).  Each bucket
holds plain counter deltas and timer histograms over one interval, so a
trailing window of any length up to the ring span is the sum of whole
buckets — O(ring size) to aggregate, O(1) memory forever.  Buckets are
recycled in place: writing into the slot of an expired epoch resets it,
so an idle recorder carries stale buckets but never reports them (reads
filter by epoch).

Each bucket's timers are :class:`~repro.telemetry.histogram.Histogram`
objects, the type the recorder's lifetime timers use, so a window view
is the same timer view (:meth:`~repro.telemetry.histogram.Histogram.to_json`)
over fewer samples, and folding a worker's snapshot in stays plain
addition.

Thread safety: :class:`RollingWindows` does **not** lock.  It is always
owned by a :class:`~repro.telemetry.recorder.MetricsRecorder`, which
calls it under its own lock.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

from .histogram import Histogram

#: Default width of one ring bucket, in seconds.
DEFAULT_BUCKET_SECONDS = 5.0

#: Default ring length: 72 x 5 s = 360 s, enough to serve a 5 m window.
DEFAULT_BUCKET_COUNT = 72

#: The trailing windows reported by :meth:`RollingWindows.snapshot`.
WINDOWS = (("1m", 60.0), ("5m", 300.0))


class _Bucket:
    """One interval's worth of activity."""

    __slots__ = ("epoch", "counters", "timers")

    def __init__(self, epoch: int) -> None:
        self.epoch = epoch
        self.counters: dict[str, int] = {}
        self.timers: defaultdict[str, Histogram] = defaultdict(Histogram)

    def reset(self, epoch: int) -> None:
        self.epoch = epoch
        self.counters.clear()
        self.timers.clear()


class RollingWindows:
    """Fixed ring of per-interval buckets feeding trailing-window views.

    Parameters
    ----------
    bucket_seconds:
        Width of one ring bucket.
    buckets:
        Ring length; the longest servable window is
        ``bucket_seconds * buckets``.
    clock:
        Monotonic time source (injectable for tests).
    """

    __slots__ = ("bucket_seconds", "_ring", "_clock", "_born")

    def __init__(
        self,
        bucket_seconds: float = DEFAULT_BUCKET_SECONDS,
        buckets: int = DEFAULT_BUCKET_COUNT,
        clock=time.monotonic,
    ) -> None:
        if bucket_seconds <= 0:
            raise ValueError("bucket_seconds must be positive")
        if buckets < 2:
            raise ValueError("the ring needs at least two buckets")
        self.bucket_seconds = float(bucket_seconds)
        self._ring: list[_Bucket | None] = [None] * int(buckets)
        self._clock = clock
        self._born = clock()

    # -- writing ---------------------------------------------------------

    def _bucket(self) -> _Bucket:
        epoch = int(self._clock() / self.bucket_seconds)
        slot = epoch % len(self._ring)
        bucket = self._ring[slot]
        if bucket is None:
            bucket = self._ring[slot] = _Bucket(epoch)
        elif bucket.epoch != epoch:
            bucket.reset(epoch)
        return bucket

    def note_count(self, name: str, n: int = 1) -> None:
        """Fold ``n`` into the current bucket's counter ``name``."""
        counters = self._bucket().counters
        counters[name] = counters.get(name, 0) + int(n)

    def note_observe(self, name: str, seconds: float) -> None:
        """Fold one timed interval into the current bucket's timer."""
        self._bucket().timers[name].observe(seconds)

    def note_timer(self, name: str, hist: Histogram) -> None:
        """Fold an aggregated timer (e.g. from a merged worker snapshot).

        Worker-side activity arrives as whole snapshots at merge time, so
        it lands in the bucket of the *merge*, not of the original calls
        — at most one flush late, which is within a bucket's resolution.
        """
        self._bucket().timers[name].merge(hist)

    # -- reading ---------------------------------------------------------

    def window(self, seconds: float) -> dict:
        """Aggregate view of the trailing ``seconds`` (whole buckets).

        Returns ``{"seconds", "counters", "rates", "timers"}`` where
        ``seconds`` is the *effective* span — clamped to the recorder's
        uptime so a 10-second-old process reports honest per-second
        rates instead of diluting 10 s of traffic over a 60 s window.
        """
        now = self._clock()
        now_epoch = int(now / self.bucket_seconds)
        span = max(1, math.ceil(seconds / self.bucket_seconds))
        span = min(span, len(self._ring))
        oldest = now_epoch - span + 1
        counters: dict[str, int] = {}
        timers: defaultdict[str, Histogram] = defaultdict(Histogram)
        for bucket in self._ring:
            if bucket is None or not oldest <= bucket.epoch <= now_epoch:
                continue
            for name, n in bucket.counters.items():
                counters[name] = counters.get(name, 0) + n
            for name, hist in bucket.timers.items():
                timers[name].merge(hist)
        # Effective span: the window cannot predate the ring's birth, and
        # the current bucket is only partially elapsed.
        elapsed = max(now - self._born, self.bucket_seconds * 1e-3)
        effective = min(
            (span - 1) * self.bucket_seconds
            + (now - now_epoch * self.bucket_seconds),
            elapsed,
        )
        rates = {
            name: n / effective for name, n in sorted(counters.items())
        }
        return {
            "seconds": effective,
            "counters": dict(sorted(counters.items())),
            "rates": rates,
            "timers": {
                name: hist.to_json() for name, hist in sorted(timers.items())
            },
        }

    def snapshot(self) -> dict:
        """All standard trailing windows, JSON-serializable."""
        return {
            "bucket_seconds": self.bucket_seconds,
            **{label: self.window(seconds) for label, seconds in WINDOWS},
        }
