"""Observability snapshot types for the serving layer.

The counters quantify exactly what the paper cares about: how often a
selection decision is answered from memo (negligible overhead) versus
paid in full, and how long the decision path takes when it is paid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from repro.obs.metrics import Histogram

__all__ = ["FleetStats", "LatencySummary", "ServiceStats"]


@dataclass(frozen=True)
class LatencySummary:
    """Summary of recent per-call selection latencies (seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    maximum: float

    @staticmethod
    def from_histogram(histogram: "Histogram") -> "LatencySummary":
        """Thin view over a :class:`repro.obs.Histogram`.

        Percentiles are bucket-interpolated estimates (exact at the
        observed extrema); ``count`` covers every observation since the
        histogram was created or reset, not a sliding window.
        """
        count = histogram.count
        if count == 0:
            return LatencySummary(0, 0.0, 0.0, 0.0, 0.0)
        return LatencySummary(
            count=count,
            mean=histogram.mean,
            p50=histogram.quantile(0.5),
            p95=histogram.quantile(0.95),
            maximum=histogram.maximum,
        )


@dataclass(frozen=True)
class ServiceStats:
    """Immutable snapshot of a :class:`SelectionService`'s counters.

    ``lookups`` counts individual shape queries (a batch of 100 shapes is
    100 lookups); ``cache_hits`` the lookups answered from the LRU memo.
    ``single_calls``/``batch_calls`` count API invocations.

    ``policy_errors`` counts exceptions raised by the wrapped policy,
    ``fallback_serves`` the queries answered with the last-known-good or
    configured fallback configuration instead, and ``breaker_trips`` /
    ``breaker_open`` describe the circuit breaker that stops hammering a
    persistently failing policy.
    """

    lookups: int
    cache_hits: int
    single_calls: int
    batch_calls: int
    max_batch_size: int
    mean_batch_size: float
    evictions: int
    cache_size: int
    capacity: int
    latency: LatencySummary
    policy_errors: int = 0
    fallback_serves: int = 0
    breaker_trips: int = 0
    breaker_open: bool = False
    #: Content address of the pipeline artifact the served policy came
    #: from (``stage:fingerprint[:12]``), when it has one.
    artifact_id: Optional[str] = None
    #: Provenance summary of that artifact (stage, parents, timings).
    provenance: Optional[Dict[str, Any]] = None

    @property
    def cache_misses(self) -> int:
        return self.lookups - self.cache_hits

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.cache_hits / self.lookups

    def render(self) -> str:
        """Human-readable report for CLI/log output."""
        lat = self.latency
        lines = [
            f"lookups          {self.lookups}",
            f"cache hits       {self.cache_hits} "
            f"({self.hit_rate * 100:.1f}% hit rate)",
            f"cache misses     {self.cache_misses}",
            f"calls            {self.single_calls} single, "
            f"{self.batch_calls} batch",
            f"batch size       max {self.max_batch_size}, "
            f"mean {self.mean_batch_size:.1f}",
            f"cache occupancy  {self.cache_size}/{self.capacity} "
            f"({self.evictions} evictions)",
            f"policy errors    {self.policy_errors} "
            f"({self.fallback_serves} fallback serves)",
            f"circuit breaker  {'OPEN' if self.breaker_open else 'closed'} "
            f"({self.breaker_trips} trips)",
            f"call latency     mean {lat.mean * 1e6:.1f}us, "
            f"p50 {lat.p50 * 1e6:.1f}us, p95 {lat.p95 * 1e6:.1f}us "
            f"over {lat.count} calls",
        ]
        if self.artifact_id is not None:
            lines.append(f"policy artifact  {self.artifact_id}")
            if self.provenance is not None:
                parents = self.provenance.get("parents", {})
                lineage = ", ".join(f"{name}:{fp[:12]}" for name, fp in parents.items())
                lines.append(f"provenance       {lineage or '(root)'}")
        return "\n".join(lines)


@dataclass(frozen=True)
class FleetStats:
    """Aggregated snapshot of a :class:`~repro.serving.router.FleetRouter`.

    ``devices`` holds each device's :class:`ServiceStats`; ``dispatched``
    / ``outstanding`` the router-side per-device load accounting.
    ``outstanding`` is dispatches minus completions, clamped at zero
    when read: both come from one read of the device's counters, so
    ``0 <= outstanding <= dispatched``, and completions reported in
    excess of the dispatches are dropped at that read.
    ``rerouted`` counts lookups answered by a device other than the one
    requested or first chosen (cross-device fallback), and
    ``policy_counts`` how often each dispatch policy placed a request.
    """

    devices: Dict[str, "ServiceStats"]
    dispatched: Dict[str, int]
    outstanding: Dict[str, int]
    targeted: int
    agnostic: int
    rerouted: int
    policy_counts: Dict[str, int]
    default_policy: str = "round-robin"

    @property
    def n_devices(self) -> int:
        return len(self.devices)

    @property
    def total_lookups(self) -> int:
        return sum(s.lookups for s in self.devices.values())

    @property
    def total_cache_hits(self) -> int:
        return sum(s.cache_hits for s in self.devices.values())

    @property
    def total_policy_errors(self) -> int:
        return sum(s.policy_errors for s in self.devices.values())

    @property
    def hit_rate(self) -> float:
        lookups = self.total_lookups
        return self.total_cache_hits / lookups if lookups else 0.0

    @property
    def open_breakers(self) -> tuple:
        """Device ids whose circuit breaker is currently open."""
        return tuple(did for did, s in sorted(self.devices.items()) if s.breaker_open)

    def render(self) -> str:
        """Human-readable fleet report for CLI/log output."""
        lines = [
            f"fleet            {self.n_devices} devices, "
            f"default policy {self.default_policy}",
            f"requests         {self.targeted} targeted, "
            f"{self.agnostic} device-agnostic, {self.rerouted} rerouted",
            f"lookups          {self.total_lookups} total "
            f"({self.hit_rate * 100:.1f}% memo hit rate)",
            f"policy errors    {self.total_policy_errors} fleet-wide",
        ]
        if self.policy_counts:
            placed = ", ".join(
                f"{name}={count}"
                for name, count in sorted(self.policy_counts.items())
            )
            lines.append(f"policy placements {placed}")
        if self.open_breakers:
            lines.append(f"open breakers    {', '.join(self.open_breakers)}")
        for did in sorted(self.devices):
            stats = self.devices[did]
            breaker = "OPEN" if stats.breaker_open else "closed"
            artifact = f"  <- {stats.artifact_id}" if stats.artifact_id else ""
            lines.append(
                f"  {did:16s} dispatched {self.dispatched.get(did, 0):8d}  "
                f"outstanding {self.outstanding.get(did, 0):6d}  "
                f"hits {stats.cache_hits:8d}/{stats.lookups:<8d} "
                f"errors {stats.policy_errors:5d}  breaker {breaker}"
                f"{artifact}"
            )
        return "\n".join(lines)
