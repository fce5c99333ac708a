"""Metric primitives: counters, gauges and log-bucketed histograms.

Every metric is a small thread-safe value holder with no external
dependencies.  :data:`LATENCY_BUCKETS_S` provides the fixed log-spaced
bucket bounds (four per decade from 0.1 microseconds to 10 seconds) that
suit the microsecond-scale selection lookups the paper's "negligible
overhead" argument is about: a memo hit, a full decision-tree pass and a
pathological stall land in clearly separated buckets.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_S",
    "histogram_quantile",
]

#: Upper bucket bounds (seconds) for latency histograms: log-spaced,
#: four buckets per decade, covering 1e-7 s .. 10 s.
LATENCY_BUCKETS_S: Tuple[float, ...] = tuple(
    10.0 ** (exponent / 4.0) for exponent in range(-28, 5)
)


def histogram_quantile(
    bounds: Sequence[float],
    counts: Sequence[int],
    q: float,
    *,
    minimum: float = 0.0,
    maximum: float = 0.0,
) -> float:
    """Estimate the ``q``-quantile of a bucketed distribution.

    ``counts`` has one entry per bound plus a final overflow bucket.
    The estimate interpolates linearly inside the bucket containing the
    target rank and is clamped to the observed ``[minimum, maximum]``
    range, so exact-at-the-edges values never extrapolate.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if len(counts) != len(bounds) + 1:
        raise ValueError(
            f"need {len(bounds) + 1} bucket counts for {len(bounds)} "
            f"bounds, got {len(counts)}"
        )
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    cumulative = 0
    for i, bucket_count in enumerate(counts):
        cumulative += bucket_count
        if bucket_count and cumulative >= target:
            lo = bounds[i - 1] if i > 0 else 0.0
            hi = bounds[i] if i < len(bounds) else maximum
            inside = target - (cumulative - bucket_count)
            fraction = min(max(inside / bucket_count, 0.0), 1.0)
            value = lo + (hi - lo) * fraction
            return min(max(value, minimum), maximum)
    return maximum


class Counter:
    """A monotonically increasing integer count."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counters only go up; cannot inc by {n}")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def snapshot(self) -> Dict[str, Any]:
        return {"value": self.value}

    def __repr__(self) -> str:
        return f"Counter({self.value})"


class Gauge:
    """A value that can go up, down, or be set outright."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is currently lower."""
        with self._lock:
            if value > self._value:
                self._value = float(value)

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1.0) -> None:
        with self._lock:
            self._value -= n

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {"value": self.value}

    def __repr__(self) -> str:
        return f"Gauge({self.value})"


class Histogram:
    """Fixed-bucket distribution with count, sum and observed extrema.

    ``bounds`` are inclusive upper edges in ascending order; a value
    ``v`` lands in the first bucket whose bound satisfies ``v <=
    bound``, with one extra overflow bucket past the last bound.  The
    default bounds are :data:`LATENCY_BUCKETS_S`.
    """

    def __init__(self, bounds: Optional[Sequence[float]] = None) -> None:
        chosen = LATENCY_BUCKETS_S if bounds is None else tuple(bounds)
        if not chosen:
            raise ValueError("histogram needs at least one bucket bound")
        if list(chosen) != sorted(set(chosen)):
            raise ValueError(f"bounds must be strictly increasing, got {chosen}")
        self._bounds: Tuple[float, ...] = tuple(float(b) for b in chosen)
        self._counts = [0] * (len(self._bounds) + 1)
        self._lock = threading.Lock()
        self._count = 0
        self._sum = 0.0
        self._min = 0.0
        self._max = 0.0

    @property
    def bounds(self) -> Tuple[float, ...]:
        return self._bounds

    def observe(self, value: float) -> None:
        index = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            if self._count == 0:
                self._min = value
                self._max = value
            else:
                self._min = min(self._min, value)
                self._max = max(self._max, value)
            self._count += 1
            self._sum += value

    def observe_n(self, value: float, n: int) -> None:
        """Record ``n`` observations of ``value`` in one update.

        The batched form of :meth:`observe` for callers that measure an
        aggregate (e.g. one timed batch of ``n`` lookups) but want the
        distribution weighted by the real event count: ``n`` lands in
        ``value``'s bucket, ``count`` grows by ``n`` and ``sum`` by
        ``n * value``, all under one lock acquisition.
        """
        if n < 0:
            raise ValueError(f"observation count must be >= 0, got {n}")
        if n == 0:
            return
        index = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += n
            if self._count == 0:
                self._min = value
                self._max = value
            else:
                self._min = min(self._min, value)
                self._max = max(self._max, value)
            self._count += n
            self._sum += n * value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    @property
    def minimum(self) -> float:
        with self._lock:
            return self._min

    @property
    def maximum(self) -> float:
        with self._lock:
            return self._max

    def bucket_counts(self) -> Tuple[int, ...]:
        with self._lock:
            return tuple(self._counts)

    def quantile(self, q: float) -> float:
        with self._lock:
            counts = tuple(self._counts)
            minimum = self._min
            maximum = self._max
        return histogram_quantile(
            self._bounds, counts, q, minimum=minimum, maximum=maximum
        )

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self._bounds) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = 0.0
            self._max = 0.0

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "bounds": list(self._bounds),
                "counts": list(self._counts),
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
            }

    def __repr__(self) -> str:
        return f"Histogram({self.count} observations, {len(self._bounds)} buckets)"
