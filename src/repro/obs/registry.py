"""The metrics registry: named, labelled metrics with one shared sink.

A :class:`MetricsRegistry` hands out :class:`~repro.obs.metrics.Counter`
/ :class:`~repro.obs.metrics.Gauge` / :class:`~repro.obs.metrics.Histogram`
instances keyed by ``(name, labels)`` — asking twice for the same key
returns the same instance, so independent components (a serving cache, a
fleet router, a pipeline executor) share one registry and one exported
snapshot.  :data:`NULL_REGISTRY` is the uninstrumented variant: every
metric it returns is a no-op, which is what the obs-overhead benchmark
measures against.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Type

from repro.obs.metrics import Counter, Gauge, Histogram

__all__ = [
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "default_registry",
]

_LabelKey = Tuple[Tuple[str, str], ...]
_Key = Tuple[str, _LabelKey]

#: Optional label mapping attached to a metric (values are stringified).
Labels = Optional[Mapping[str, Any]]


def _label_key(labels: Labels) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Thread-safe get-or-create store of named, labelled metrics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[_Key, Any] = {}

    def _get(self, cls: Type[Any], name: str, labels: Labels, **kwargs: Any) -> Any:
        if not name:
            raise ValueError("metric name must be non-empty")
        key = (name, _label_key(labels))
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"metric {name!r}{dict(key[1])!r} is a "
                        f"{type(existing).__name__}, not a {cls.__name__}"
                    )
                return existing
            metric = cls(**kwargs)
            self._metrics[key] = metric
            return metric

    def counter(self, name: str, labels: Labels = None) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, labels: Labels = None) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        labels: Labels = None,
        *,
        bounds: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._get(Histogram, name, labels, bounds=bounds)

    def collect(self) -> Tuple[Tuple[str, Dict[str, str], Any], ...]:
        """Every registered metric as ``(name, labels, metric)``, sorted."""
        with self._lock:
            items = sorted(self._metrics.items())
        return tuple(
            (name, dict(label_key), metric) for (name, label_key), metric in items
        )

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of every metric in the registry."""
        counters: List[Dict[str, Any]] = []
        gauges: List[Dict[str, Any]] = []
        histograms: List[Dict[str, Any]] = []
        for name, labels, metric in self.collect():
            entry = {"name": name, "labels": labels}
            entry.update(metric.snapshot())
            if isinstance(metric, Counter):
                counters.append(entry)
            elif isinstance(metric, Gauge):
                gauges.append(entry)
            else:
                histograms.append(entry)
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def reset(self) -> None:
        """Zero every registered metric (instances stay registered)."""
        for _, _, metric in self.collect():
            metric.reset()

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self)} metrics)"


def _no_op() -> None:
    pass


class _NullCounter(Counter):
    def __init__(self) -> None:
        super().__init__()
        self.tick = _no_op

    def inc(self, n: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass

    def inc(self, n: float = 1.0) -> None:
        pass

    def dec(self, n: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    def observe(self, value: float) -> None:
        pass

    def observe_n(self, value: float, n: int) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """A registry whose metrics are all no-ops.

    Components built on it pay no instrumentation cost and report empty
    snapshots; the obs-overhead benchmark serves traffic through a
    :data:`NULL_REGISTRY` service as its uninstrumented baseline.
    """

    def __init__(self) -> None:
        super().__init__()
        self._counter = _NullCounter()
        self._gauge = _NullGauge()
        self._histogram = _NullHistogram()

    def counter(self, name: str, labels: Labels = None) -> Counter:
        return self._counter

    def gauge(self, name: str, labels: Labels = None) -> Gauge:
        return self._gauge

    def histogram(
        self,
        name: str,
        labels: Labels = None,
        *,
        bounds: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._histogram

    def collect(self) -> Tuple[Tuple[str, Dict[str, str], Any], ...]:
        return ()

    def __repr__(self) -> str:
        return "NullRegistry()"


#: Shared uninstrumented registry (all metrics are no-ops).
NULL_REGISTRY = NullRegistry()

_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide default registry (used by the CLI demos)."""
    return _DEFAULT_REGISTRY
