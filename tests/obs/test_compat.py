"""The stats() shapes predating repro.obs, pinned as thin views.

These tests freeze the pre-obs observability contract: the field names
of :class:`ServiceStats` / :class:`FleetStats` / :class:`ExecutorStats`
and the counting semantics callers built against.  If the obs rewiring
changes what a snapshot reports, it fails here, not in a dashboard.
"""

import dataclasses

import pytest

from repro.kernels.params import KernelConfig
from repro.obs import MetricsRegistry, Tracer
from repro.pipeline.executor import PipelineExecutor
from repro.pipeline.stage import Pipeline, Stage
from repro.pipeline.store import ArtifactStore
from repro.serving import FleetRouter, SelectionService
from repro.serving.stats import FleetStats, ServiceStats
from repro.workloads.gemm import GemmShape

CONFIG = KernelConfig(acc=4, rows=2, cols=2, wg_rows=8, wg_cols=8)
OTHER = KernelConfig(acc=8, rows=4, cols=4, wg_rows=16, wg_cols=16)

#: The exact ServiceStats surface callers relied on before repro.obs.
SERVICE_STATS_FIELDS = (
    "lookups",
    "cache_hits",
    "single_calls",
    "batch_calls",
    "max_batch_size",
    "mean_batch_size",
    "evictions",
    "cache_size",
    "capacity",
    "latency",
    "policy_errors",
    "fallback_serves",
    "breaker_trips",
    "breaker_open",
    "artifact_id",
    "provenance",
)

FLEET_STATS_FIELDS = (
    "devices",
    "dispatched",
    "outstanding",
    "targeted",
    "agnostic",
    "rerouted",
    "policy_counts",
    "default_policy",
)


class StubPolicy:
    """Deterministic policy: alternates configs by shape parity."""

    def select(self, shape):
        return CONFIG if shape.m % 2 == 0 else OTHER

    def select_batch(self, shapes):
        return tuple(self.select(s) for s in shapes)


def shapes(n, start=0):
    return [GemmShape(m=64 + 16 * (start + i), k=64, n=64) for i in range(n)]


class TestServiceStatsCompat:
    def test_field_names_are_pinned(self):
        names = tuple(f.name for f in dataclasses.fields(ServiceStats))
        assert names == SERVICE_STATS_FIELDS

    def test_counters_read_identically_through_the_registry(self):
        service = SelectionService(StubPolicy(), capacity=8)
        batch = shapes(6)
        service.select_batch(batch)  # 6 misses
        service.select_batch(batch)  # 6 hits
        service.select(batch[0])  # 1 hit
        stats = service.stats()
        assert stats.lookups == 13
        assert stats.cache_hits == 7
        assert stats.cache_misses == 6
        assert stats.single_calls == 1
        assert stats.batch_calls == 2
        assert stats.max_batch_size == 6
        assert stats.mean_batch_size == pytest.approx(6.0)
        assert stats.cache_size == 6
        assert stats.capacity == 8
        assert stats.hit_rate == pytest.approx(7 / 13)
        assert stats.latency.count == 3
        assert stats.latency.mean > 0.0
        assert stats.latency.p50 <= stats.latency.p95 <= stats.latency.maximum

    def test_render_still_produces_the_report(self):
        service = SelectionService(StubPolicy())
        service.select(GemmShape(m=64, k=64, n=64))
        report = service.stats().render()
        assert "lookups" in report
        assert "circuit breaker" in report

    def test_clear_resets_only_this_service(self):
        registry = MetricsRegistry()
        a = SelectionService(StubPolicy(), registry=registry, name="a")
        b = SelectionService(StubPolicy(), registry=registry, name="b")
        a.select(GemmShape(m=64, k=64, n=64))
        b.select(GemmShape(m=64, k=64, n=64))
        a.clear()
        assert a.stats().lookups == 0
        assert b.stats().lookups == 1

    def test_shared_registry_labels_services_apart(self):
        registry = MetricsRegistry()
        a = SelectionService(StubPolicy(), registry=registry, name="a")
        a.select(GemmShape(m=64, k=64, n=64))
        entries = {
            (name, tuple(sorted(labels.items())))
            for name, labels, _ in registry.collect()
        }
        assert ("serving.lookups", (("service", "a"),)) in entries


class TestFleetStatsCompat:
    def test_field_names_are_pinned(self):
        names = tuple(f.name for f in dataclasses.fields(FleetStats))
        assert names == FLEET_STATS_FIELDS

    def _router(self, registry=None, tracer=None):
        router = FleetRouter(registry=registry, tracer=tracer)
        for did in ("dev-a", "dev-b"):
            router.add_device(did, SelectionService(StubPolicy()))
        return router

    def test_dispatch_counters_read_identically(self):
        router = self._router()
        router.select(GemmShape(m=64, k=64, n=64), device_id="dev-a")
        router.select_batch(shapes(4))
        stats = router.stats()
        assert stats.targeted == 1
        assert stats.agnostic == 4
        assert stats.rerouted == 0
        assert sum(stats.dispatched.values()) == 5
        assert stats.policy_counts == {"round-robin": 4}
        assert set(stats.devices) == {"dev-a", "dev-b"}

    def test_complete_clamps_outstanding_at_zero(self):
        router = self._router()
        router.select(GemmShape(m=64, k=64, n=64), device_id="dev-a")
        router.complete("dev-a", n=10)
        assert router.stats().outstanding["dev-a"] == 0

    def test_complete_rejects_negative_counts(self):
        router = self._router()
        with pytest.raises(ValueError, match="n must be >= 0"):
            router.complete("dev-a", n=-5)
        assert router.stats().outstanding["dev-a"] == 0

    def test_clear_zeroes_router_metrics_but_keeps_services(self):
        registry = MetricsRegistry()
        router = self._router(registry=registry)
        router.select_batch(shapes(4))
        router.clear()
        stats = router.stats()
        assert stats.agnostic == 0
        assert stats.policy_counts == {}
        assert all(v == 0 for v in stats.dispatched.values())

    def test_reroute_emits_spans_on_the_shared_tracer(self):
        class Exploding:
            def select(self, shape):
                raise RuntimeError("dead device")

            def select_batch(self, shapes):
                raise RuntimeError("dead device")

        tracer = Tracer()
        router = FleetRouter(tracer=tracer)
        router.add_device("dead", SelectionService(Exploding()))
        router.add_device("ok", SelectionService(StubPolicy()))
        decisions = router.select_batch(shapes(3), device_id="dead")
        assert all(d.device_id == "ok" and d.rerouted for d in decisions)
        reroutes = tracer.find("fleet.reroute")
        assert len(reroutes) >= 1
        assert reroutes[0].tags["from"] == "dead"


def root_stage(inputs, params):
    return params["value"]


def double_stage(inputs, params):
    return inputs["root"] * 2


def two_stage_pipeline():
    p = Pipeline()
    p.add(Stage("root", root_stage))
    p.add(Stage("double", double_stage, ("root",)))
    return p


class TestExecutorStatsCompat:
    PARAMS = {"root": {"value": 7}}

    def test_stats_are_rebuilt_from_stage_spans(self, tmp_path):
        tracer = Tracer()
        registry = MetricsRegistry()
        executor = PipelineExecutor(
            ArtifactStore(tmp_path / "store"), registry=registry, tracer=tracer
        )
        run = executor.run(two_stage_pipeline(), self.PARAMS)
        assert run.stats.n_executed == 2
        assert run.stats.executed_stages == ("root", "double")
        assert not run.stats.all_cached

        roots = [s for s in tracer.spans() if s.name == "pipeline.run"]
        assert len(roots) == 1
        stage_spans = [c for c in roots[0].children if c.name == "pipeline.stage"]
        assert {s.tags["stage"] for s in stage_spans} == {"root", "double"}
        assert all(s.tags["cache_hit"] is False for s in stage_spans)
        # The legacy snapshot is a view over exactly those spans.
        by_stage = {s.tags["stage"]: s for s in stage_spans}
        for execution in run.stats.executions:
            span = by_stage[execution.stage]
            assert execution.fingerprint == span.tags["fingerprint"]
            assert execution.runtime_s == pytest.approx(span.duration_s)

    def test_cached_rerun_tags_hits_and_bumps_counters(self, tmp_path):
        registry = MetricsRegistry()
        store = ArtifactStore(tmp_path / "store")
        executor = PipelineExecutor(store, registry=registry)
        executor.run(two_stage_pipeline(), self.PARAMS)
        rerun = executor.run(two_stage_pipeline(), self.PARAMS)
        assert rerun.stats.all_cached
        assert registry.counter("pipeline.stages", {"result": "ran"}).value == 2
        assert (
            registry.counter("pipeline.stages", {"result": "cached"}).value == 2
        )
        assert registry.counter("pipeline.runs").value == 2
