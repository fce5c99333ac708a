"""The pipeline executor: walk the DAG, reuse artifacts, run the rest.

For every stage the executor computes the content-address fingerprint,
probes the :class:`~repro.pipeline.store.ArtifactStore`, and either
loads the stored artifact (cache hit) or runs the stage function and
persists the result.  Stages run one at a time, in topological order.

Every decision is emitted as a ``pipeline.stage`` span (tagged with the
stage name, fingerprint, and cache-hit outcome) nested under one
``pipeline.run`` root span on the executor's :mod:`repro.obs` tracer,
plus ``pipeline.stages{result=...}`` counters in its registry.
:class:`ExecutorStats` — the observable contract the incremental-
recomputation tests assert on — is assembled from those span records
rather than kept as separate bespoke accounting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACER, SpanRecord, Tracer
from repro.pipeline.artifact import Artifact, Provenance
from repro.pipeline.stage import Pipeline
from repro.pipeline.store import ArtifactStore

__all__ = ["ExecutorStats", "PipelineExecutor", "PipelineRun", "StageExecution"]

#: Cap on per-stage failure entries copied into a manifest.
_MAX_MANIFEST_FAILURES = 100


@dataclass(frozen=True)
class StageExecution:
    """One stage's outcome in a run."""

    stage: str
    fingerprint: str
    cache_hit: bool
    runtime_s: float


@dataclass(frozen=True)
class ExecutorStats:
    """Per-stage cache hit/miss and runtime account of one run."""

    executions: Tuple[StageExecution, ...] = ()

    @property
    def n_executed(self) -> int:
        return sum(1 for e in self.executions if not e.cache_hit)

    @property
    def n_cached(self) -> int:
        return sum(1 for e in self.executions if e.cache_hit)

    @property
    def all_cached(self) -> bool:
        return bool(self.executions) and self.n_executed == 0

    @property
    def executed_stages(self) -> Tuple[str, ...]:
        return tuple(e.stage for e in self.executions if not e.cache_hit)

    @property
    def cached_stages(self) -> Tuple[str, ...]:
        return tuple(e.stage for e in self.executions if e.cache_hit)

    def for_stage(self, name: str) -> StageExecution:
        for execution in self.executions:
            if execution.stage == name:
                return execution
        raise KeyError(f"no execution recorded for stage {name!r}")

    def render(self) -> str:
        lines = [
            f"{'stage':10s} {'result':8s} {'runtime':>10s}  fingerprint"
        ]
        for e in self.executions:
            lines.append(
                f"{e.stage:10s} {'cached' if e.cache_hit else 'ran':8s} "
                f"{e.runtime_s * 1e3:8.1f}ms  {e.fingerprint[:12]}"
            )
        lines.append(
            f"{self.n_executed} executed, {self.n_cached} cached"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class PipelineRun:
    """Artifacts and stats of one executor invocation."""

    artifacts: Dict[str, Artifact] = field(default_factory=dict)
    stats: ExecutorStats = field(default_factory=ExecutorStats)

    def value(self, stage: str) -> Any:
        return self.artifacts[stage].value


def _collect_failures(value: Any) -> Tuple[str, ...]:
    """Failure summaries a stage value carries (e.g. a sweep's NaN cells)."""
    log = getattr(value, "failures", None)
    if log is None:
        return ()
    try:
        records = list(log)
    except TypeError:
        return ()
    out = []
    for record in records[:_MAX_MANIFEST_FAILURES]:
        kind = getattr(record, "kind", type(record).__name__)
        message = getattr(record, "message", str(record))
        fatal = getattr(record, "fatal", True)
        out.append(f"{kind}: {message} ({'fatal' if fatal else 'retried'})")
    if len(records) > _MAX_MANIFEST_FAILURES:
        out.append(f"... {len(records) - _MAX_MANIFEST_FAILURES} more")
    return tuple(out)


class PipelineExecutor:
    """Runs a :class:`Pipeline` against an :class:`ArtifactStore`.

    ``registry`` receives ``pipeline.stages{result=ran|cached}``
    counters (a private :class:`~repro.obs.MetricsRegistry` when
    omitted); ``tracer`` receives the ``pipeline.run`` /
    ``pipeline.stage`` span trees (dropped by default).
    """

    def __init__(
        self,
        store: ArtifactStore,
        *,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self._store = store
        self._registry = registry if registry is not None else MetricsRegistry()
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._c_ran = self._registry.counter("pipeline.stages", {"result": "ran"})
        self._c_cached = self._registry.counter(
            "pipeline.stages", {"result": "cached"}
        )
        self._c_runs = self._registry.counter("pipeline.runs")

    @property
    def store(self) -> ArtifactStore:
        return self._store

    @property
    def registry(self) -> MetricsRegistry:
        """The metrics registry the executor's counters live in."""
        return self._registry

    @property
    def tracer(self) -> Tracer:
        """The tracer receiving ``pipeline.run``/``pipeline.stage`` spans."""
        return self._tracer

    def _stage_span(
        self, stage: str, fingerprint: str, cache_hit: bool, runtime_s: float
    ) -> SpanRecord:
        """Emit one stage's span and bump the outcome counter."""
        (self._c_cached if cache_hit else self._c_ran).inc()
        return self._tracer.record(
            "pipeline.stage",
            runtime_s,
            tags={
                "stage": stage,
                "fingerprint": fingerprint,
                "cache_hit": cache_hit,
            },
        )

    def run(
        self,
        pipeline: Pipeline,
        params: Mapping[str, Any],
        *,
        force: bool = False,
    ) -> PipelineRun:
        """Execute the DAG; ``force`` re-runs every stage ignoring the cache."""
        unknown = set(params) - {s.name for s in pipeline.stages}
        if unknown:
            raise ValueError(f"params for unknown stages: {sorted(unknown)}")
        fingerprints = pipeline.fingerprints(params)
        artifacts: Dict[str, Artifact] = {}
        spans: List[SpanRecord] = []
        self._c_runs.inc()

        with self._tracer.trace(
            "pipeline.run", stages=len(pipeline.stages), force=force
        ):
            for stage in pipeline.topo_order():
                fingerprint = fingerprints[stage.name]
                if not force and fingerprint in self._store:
                    start = time.perf_counter()
                    artifacts[stage.name] = self._store.get(fingerprint)
                    runtime_s = time.perf_counter() - start
                    spans.append(
                        self._stage_span(stage.name, fingerprint, True, runtime_s)
                    )
                    continue
                start = time.perf_counter()
                value = stage.fn(
                    {p: artifacts[p].value for p in stage.inputs},
                    params.get(stage.name),
                )
                runtime_s = time.perf_counter() - start
                provenance = Provenance(
                    stage=stage.name,
                    fingerprint=fingerprint,
                    code_version=stage.version,
                    params=params.get(stage.name),
                    parents={p: fingerprints[p] for p in stage.inputs},
                    codec=stage.codec,
                    created_at=time.time(),
                    runtime_s=runtime_s,
                    failures=_collect_failures(value),
                )
                artifacts[stage.name] = self._store.put(value, provenance)
                spans.append(
                    self._stage_span(stage.name, fingerprint, False, runtime_s)
                )

        # The stats snapshot is a thin view over the emitted spans.
        executions = [
            StageExecution(
                stage=str(span.tags["stage"]),
                fingerprint=str(span.tags["fingerprint"]),
                cache_hit=bool(span.tags["cache_hit"]),
                runtime_s=span.duration_s,
            )
            for span in spans
        ]
        return PipelineRun(
            artifacts=artifacts, stats=ExecutorStats(tuple(executions))
        )
