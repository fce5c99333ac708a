"""Load-run reporting: tail quantiles straight from the obs histograms.

The harness never keeps per-request samples — at millions of queries
that would be the dominant allocation.  Latency lives in the same
log-bucketed :class:`~repro.obs.metrics.Histogram` primitives the
serving layer already exports, and the report reads p50/p99/p999 back
out with :func:`~repro.obs.metrics.histogram_quantile`, merging bucket
counts across labelled instances (e.g. one ``serving.lookup_seconds``
per fleet device) where needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.obs.metrics import Histogram, histogram_quantile
from repro.obs.registry import MetricsRegistry

__all__ = [
    "DriftSummary",
    "LoadReport",
    "QuantileSummary",
    "REPORT_SCHEMA",
    "WorkerLoad",
    "git_revision",
    "merged_quantiles",
    "report_document",
]

#: Schema tag embedded in exported report documents.
REPORT_SCHEMA = "repro.loadgen-report/v1"

#: achieved/offered below this ratio (paced runs) flags saturation.
_SATURATION_RATIO = 0.9

#: late arrivals above this fraction of offered flags saturation.
_SATURATION_LATE_FRACTION = 0.05


def _fmt_seconds(seconds: float) -> str:
    if seconds < 1e-6:
        return f"{seconds * 1e9:.0f} ns"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.3f} s"


@dataclass(frozen=True)
class QuantileSummary:
    """p50/p99/p999 of one latency distribution, histogram-estimated."""

    count: int
    mean_s: float
    p50_s: float
    p99_s: float
    p999_s: float

    @classmethod
    def from_histogram(cls, histogram: Histogram) -> "QuantileSummary":
        snap = histogram.snapshot()
        return cls.from_buckets(
            tuple(snap["bounds"]),
            tuple(snap["counts"]),
            count=snap["count"],
            total=snap["sum"],
            minimum=snap["min"],
            maximum=snap["max"],
        )

    @classmethod
    def from_buckets(
        cls,
        bounds: Tuple[float, ...],
        counts: Tuple[int, ...],
        *,
        count: int,
        total: float,
        minimum: float,
        maximum: float,
    ) -> "QuantileSummary":
        def q(quantile: float) -> float:
            return histogram_quantile(
                bounds, counts, quantile, minimum=minimum, maximum=maximum
            )

        return cls(
            count=count,
            mean_s=total / count if count else 0.0,
            p50_s=q(0.50),
            p99_s=q(0.99),
            p999_s=q(0.999),
        )

    def render(self) -> str:
        return (
            f"p50 {_fmt_seconds(self.p50_s)}  p99 {_fmt_seconds(self.p99_s)}  "
            f"p999 {_fmt_seconds(self.p999_s)}  "
            f"(mean {_fmt_seconds(self.mean_s)}, n={self.count})"
        )


def merged_quantiles(
    registry: MetricsRegistry, name: str
) -> Optional[QuantileSummary]:
    """One :class:`QuantileSummary` over every histogram named ``name``.

    Bucket counts are summed across label sets (identical log-spaced
    bounds required), which is exactly how multi-instance histograms
    aggregate; returns None when the registry has no observations under
    that name.
    """
    bounds: Optional[Tuple[float, ...]] = None
    counts: Optional[list] = None
    count = 0
    total = 0.0
    minimum = float("inf")
    maximum = 0.0
    for metric_name, _, metric in registry.collect():
        if metric_name != name or not isinstance(metric, Histogram):
            continue
        snap = metric.snapshot()
        if not snap["count"]:
            continue
        if bounds is None:
            bounds = tuple(snap["bounds"])
            counts = list(snap["counts"])
        elif tuple(snap["bounds"]) != bounds:
            raise ValueError(
                f"histograms named {name!r} have mismatched bucket bounds"
            )
        else:
            for i, c in enumerate(snap["counts"]):
                counts[i] += c
        count += snap["count"]
        total += snap["sum"]
        minimum = min(minimum, snap["min"])
        maximum = max(maximum, snap["max"])
    if bounds is None or counts is None or count == 0:
        return None
    return QuantileSummary.from_buckets(
        bounds,
        tuple(counts),
        count=count,
        total=total,
        minimum=minimum,
        maximum=maximum,
    )


@dataclass(frozen=True)
class DriftSummary:
    """Adaptive-vs-static columns for a drifted load run.

    Geomeans are over the *post-drift* window: ``static_geomean_s`` is
    what the frozen tree would have cost, ``adaptive_geomean_s`` what
    the adaptive layer actually served, ``oracle_geomean_s`` the best
    candidate per request.  ``gap_closure`` is the fraction of the
    static-to-oracle log-gap the adaptive layer closed (1.0 = serving
    the oracle, 0.0 = no better than the frozen tree).
    """

    requests: int
    post_drift: int
    drift_at: float
    factor: float
    adaptive_geomean_s: float
    static_geomean_s: float
    oracle_geomean_s: float
    gap_closure: float
    trials: int
    promotions: int
    demotions: int

    def render(self) -> str:
        return (
            f"drift: x{self.factor:g} at {self.drift_at:.0%} of the run, "
            f"{self.post_drift}/{self.requests} post-drift requests\n"
            f"post-drift geomean: adaptive "
            f"{_fmt_seconds(self.adaptive_geomean_s)}  static "
            f"{_fmt_seconds(self.static_geomean_s)}  oracle "
            f"{_fmt_seconds(self.oracle_geomean_s)}  -> gap closure "
            f"{self.gap_closure:.1%}\n"
            f"adaptation: {self.trials} trials, {self.promotions} "
            f"promotions, {self.demotions} demotions"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "post_drift": self.post_drift,
            "drift_at": self.drift_at,
            "factor": self.factor,
            "adaptive_geomean_s": self.adaptive_geomean_s,
            "static_geomean_s": self.static_geomean_s,
            "oracle_geomean_s": self.oracle_geomean_s,
            "gap_closure": self.gap_closure,
            "trials": self.trials,
            "promotions": self.promotions,
            "demotions": self.demotions,
        }


@dataclass(frozen=True)
class WorkerLoad:
    """Offered-vs-achieved throughput for one generator worker."""

    worker: int
    offered: int
    completed: int
    late: int
    offered_qps: float
    achieved_qps: float

    def render(self) -> str:
        return (
            f"  worker {self.worker}: offered {self.offered_qps:,.0f} qps "
            f"({self.offered} reqs), achieved {self.achieved_qps:,.0f} qps, "
            f"{self.late} late"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "worker": self.worker,
            "offered": self.offered,
            "completed": self.completed,
            "late": self.late,
            "offered_qps": self.offered_qps,
            "achieved_qps": self.achieved_qps,
        }


@dataclass(frozen=True)
class LoadReport:
    """The outcome of one load run, ready to render or export.

    ``offered`` is the scheduled arrival count, ``completed`` the
    requests actually answered; ``late`` counts arrivals the workers
    could not issue on schedule (the generator saturating, not the
    service).  ``request_latency`` is wall latency seen by the
    generator per request; ``lookup_latency`` the service-side
    per-lookup view merged across every device's
    ``serving.lookup_seconds`` histogram.
    """

    duration_s: float
    wall_s: float
    offered: int
    completed: int
    late: int
    achieved_qps: float
    request_latency: QuantileSummary
    lookup_latency: Optional[QuantileSummary]
    dispatched: Dict[str, int]
    rerouted: int
    #: Adaptive-vs-static columns; only set by drifted scenarios.
    drift: Optional[DriftSummary] = None
    #: False when the schedule replayed flat-out (virtual time) — the
    #: saturation check only applies to paced runs.
    paced: bool = True
    #: Per-generator-worker offered-vs-achieved breakdown.
    workers: Tuple[WorkerLoad, ...] = ()

    @property
    def saturated(self) -> bool:
        """True when the harness could not sustain the offered rate.

        Only meaningful for paced runs: flat-out replays have no
        schedule to fall behind.  Flags when more than
        ``_SATURATION_LATE_FRACTION`` of arrivals fired late, or
        achieved throughput fell below ``_SATURATION_RATIO`` of the
        offered rate.
        """
        if not self.paced or self.offered == 0:
            return False
        if self.late > _SATURATION_LATE_FRACTION * self.offered:
            return True
        offered_qps = self.offered / self.duration_s
        return self.achieved_qps < _SATURATION_RATIO * offered_qps

    def render(self) -> str:
        lines = [
            (
                f"load: {self.completed}/{self.offered} requests in "
                f"{self.wall_s:.2f} s wall ({self.duration_s:.2f} s "
                f"scheduled) -> {self.achieved_qps:,.0f} qps, "
                f"{self.late} late arrivals"
            ),
            f"request latency: {self.request_latency.render()}",
        ]
        if self.saturated:
            offered_qps = self.offered / self.duration_s
            lines.append(
                f"WARNING: generator saturated — offered "
                f"{offered_qps:,.0f} qps but achieved "
                f"{self.achieved_qps:,.0f} qps with {self.late} late "
                f"arrivals; latency figures reflect a slower effective "
                f"rate"
            )
            lines.extend(w.render() for w in self.workers)
        if self.lookup_latency is not None:
            lines.append(f"service lookup:  {self.lookup_latency.render()}")
        if self.dispatched:
            per_device = "  ".join(
                f"{device}={count}"
                for device, count in sorted(self.dispatched.items())
            )
            lines.append(
                f"dispatch: {per_device}  (rerouted {self.rerouted})"
            )
        if self.drift is not None:
            lines.append(self.drift.render())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (CI artifacts, further analysis)."""

        def summary(s: Optional[QuantileSummary]) -> Optional[Dict[str, Any]]:
            if s is None:
                return None
            return {
                "count": s.count,
                "mean_s": s.mean_s,
                "p50_s": s.p50_s,
                "p99_s": s.p99_s,
                "p999_s": s.p999_s,
            }

        return {
            "duration_s": self.duration_s,
            "wall_s": self.wall_s,
            "offered": self.offered,
            "completed": self.completed,
            "late": self.late,
            "achieved_qps": self.achieved_qps,
            "request_latency": summary(self.request_latency),
            "lookup_latency": summary(self.lookup_latency),
            "dispatched": dict(self.dispatched),
            "rerouted": self.rerouted,
            "drift": None if self.drift is None else self.drift.to_dict(),
            "paced": self.paced,
            "saturated": self.saturated,
            "workers": [w.to_dict() for w in self.workers],
        }


def git_revision() -> Optional[str]:
    """The current git commit SHA, or None outside a repo / without git."""
    import subprocess  # only a report stamp needs it; keep it off import

    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5.0,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def report_document(
    report: LoadReport,
    *,
    config: Optional[Dict[str, Any]] = None,
    command: Optional[str] = None,
) -> Dict[str, Any]:
    """``report.to_dict()`` plus a ``meta`` block for CI artifacts.

    The report's own keys stay at the top level (existing consumers
    read them there); ``meta`` is an extra key carrying the schema tag,
    the git SHA of the producing checkout, and the full run
    configuration — enough to reproduce the run from the JSON alone.
    """
    doc = report.to_dict()
    doc["meta"] = {
        "schema": REPORT_SCHEMA,
        "git_sha": git_revision(),
        "config": dict(config) if config is not None else None,
        "command": command,
    }
    return doc
