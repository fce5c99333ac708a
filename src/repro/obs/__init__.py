"""repro.obs — unified metrics and tracing for the whole system.

One dependency-free layer replaces the per-subsystem stat islands: the
serving cache, the fleet router and the pipeline executor all write the
same :class:`Counter` / :class:`Gauge` / :class:`Histogram` primitives
into a shared :class:`MetricsRegistry` and emit :class:`Tracer` spans,
so a single exported document answers the paper's question — is runtime
kernel selection measurably negligible? — across every layer at once.

The legacy ``stats()`` snapshots (``ServiceStats``, ``FleetStats``,
``ExecutorStats``) are thin views computed from these metrics; nothing
is double-counted.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS_S,
    histogram_quantile,
)
from repro.obs.registry import (
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
    default_registry,
)
from repro.obs.render import OBS_SCHEMA, obs_doc, render_dump, render_summary
from repro.obs.trace import NullTracer, NULL_TRACER, SpanRecord, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_S",
    "MetricsRegistry",
    "NullRegistry",
    "NullTracer",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "OBS_SCHEMA",
    "SpanRecord",
    "Tracer",
    "default_registry",
    "histogram_quantile",
    "obs_doc",
    "render_dump",
    "render_summary",
]
