"""AdaptiveSelectionService: admission, warm paths, batch merge, fleet fit.

Uses a stub static policy so every path is driven explicitly: cold
selects, Bloom admission at the threshold-th sighting, trial serving,
promoted overrides, and the batch path's first-occurrence-only trial
rule.  Counter assertions use a real MetricsRegistry so the adaptive.*
metrics surface is covered too.
"""

import pytest

from repro.adaptive import AdaptiveConfig
from repro.kernels.params import config_space
from repro.obs.registry import MetricsRegistry
from repro.serving import (
    AdaptiveSelectionService,
    AdaptiveStats,
    SelectionService,
)
from repro.serving.router import FleetRouter
from repro.workloads.gemm import GemmShape

CONFIGS = tuple(config_space(tile_sizes=(1, 2), work_groups=((8, 8), (16, 16))))
BASE, FAST = CONFIGS[0], CONFIGS[1]
SHAPE = GemmShape(m=64, k=64, n=64)
OTHER_SHAPE = GemmShape(m=128, k=32, n=8)


class _Library:
    def __init__(self, configs):
        self.configs = tuple(configs)


class _StubPolicy:
    def __init__(self):
        self.library = _Library(CONFIGS[:4])

    def select(self, shape):
        return BASE

    def select_batch(self, shapes):
        return tuple(BASE for _ in shapes)


class _BarePolicy:
    """No library/pruned attribute: candidate inference must fail."""

    def select(self, shape):
        return BASE


def make_service(threshold=2, **overrides):
    knobs = dict(
        trial_fraction=0.25,
        seed=0,
        min_trials=2,
        promote_margin=1.0,
        admission_threshold=threshold,
    )
    knobs.update(overrides)
    registry = MetricsRegistry()
    inner = SelectionService(
        _StubPolicy(), registry=registry, name="adapt-test"
    )
    return AdaptiveSelectionService(
        inner, config=AdaptiveConfig(**knobs), registry=registry
    )


def admit(service, shape, threshold=2):
    for _ in range(threshold):
        service.select(shape)


class TestConstruction:
    def test_candidates_inferred_from_the_policy_library(self):
        service = make_service()
        assert service.candidates == CONFIGS[:4]

    def test_candidates_inferred_from_pruned(self):
        class _Pruned:
            pruned = _Library(CONFIGS[:2])

            def select(self, shape):
                return BASE

        inner = SelectionService(_Pruned(), registry=MetricsRegistry())
        service = AdaptiveSelectionService(inner)
        assert service.candidates == CONFIGS[:2]

    def test_uninferable_candidates_raise(self):
        inner = SelectionService(_BarePolicy(), registry=MetricsRegistry())
        with pytest.raises(ValueError, match="pass candidates="):
            AdaptiveSelectionService(inner)

    def test_explicit_candidates_override_inference(self):
        inner = SelectionService(_BarePolicy(), registry=MetricsRegistry())
        service = AdaptiveSelectionService(inner, candidates=CONFIGS[:3])
        assert service.candidates == CONFIGS[:3]

    def test_empty_candidates_rejected(self):
        inner = SelectionService(_StubPolicy(), registry=MetricsRegistry())
        with pytest.raises(ValueError, match="non-empty"):
            AdaptiveSelectionService(inner, candidates=())


class TestAdmission:
    def test_shape_earns_state_at_the_threshold_sighting(self):
        service = make_service(threshold=3)
        for _ in range(2):
            service.select(SHAPE)
            assert service.tracked() == {}
        service.select(SHAPE)
        assert SHAPE.as_tuple() in service.tracked()
        stats = service.adaptive_stats()
        assert stats.admission_misses == 3
        assert stats.admission_hits == 0
        assert stats.tracked_shapes == 1

    def test_warm_selects_count_as_hits(self):
        service = make_service(threshold=2)
        admit(service, SHAPE)
        for _ in range(5):
            assert service.select(SHAPE) == BASE
        stats = service.adaptive_stats()
        assert stats.admission_hits == 5
        assert stats.admission_misses == 2
        assert stats.requests == 7

    def test_registry_reset_zeroes_warm_hits(self):
        service = make_service(threshold=2)
        admit(service, SHAPE)
        for _ in range(10):
            service.select(SHAPE)
        service.registry.reset()
        assert service.adaptive_stats().admission_hits == 0
        for _ in range(3):
            service.select(SHAPE)
        assert service.adaptive_stats().admission_hits == 3

    def test_exported_snapshot_counts_warm_hits(self):
        service = make_service(threshold=2)
        admit(service, SHAPE)
        for _ in range(10):
            service.select(SHAPE)
        counters = {
            entry["name"]: entry["value"]
            for entry in service.registry.snapshot()["counters"]
        }
        assert counters["adaptive.admission_hits"] == 10
        assert counters["adaptive.admission_misses"] == 2

    def test_unadmitted_record_keeps_no_state(self):
        service = make_service(threshold=2)
        service.select(SHAPE)
        assert service.record(SHAPE, BASE, 1e-3) == ()
        assert service.tracked() == {}
        assert service.adaptive_stats().feedback == 1


class TestWarmPath:
    def test_warm_select_hits_the_inner_memo(self):
        # The warm path builds the shape key itself and hands it down:
        # it must be the key the inner service memoised the shape under.
        service = make_service(threshold=1)
        service.select(OTHER_SHAPE)
        before = service.service.stats()
        assert service.select(OTHER_SHAPE) == BASE
        after = service.service.stats()
        assert after.cache_hits - before.cache_hits == 1
        assert after.cache_size == 1

    def test_trial_is_served_exactly_once(self):
        service = make_service(trial_fraction=1.0)
        admit(service, SHAPE)
        service.record(SHAPE, BASE, 1e-3)  # arms a challenger
        state = service.tracked()[SHAPE.as_tuple()]
        assert state.next_trial is not None
        challenger = service.select(SHAPE)
        assert challenger != BASE
        assert service.select(SHAPE) == BASE  # slot consumed
        stats = service.adaptive_stats()
        assert stats.trials == 1
        kinds = [event.kind for event in service.events()]
        assert kinds.count("trial") == 1

    def test_promoted_override_is_served(self):
        service = make_service(trial_fraction=0.0)
        admit(service, SHAPE)
        for _ in range(2):
            service.record(SHAPE, BASE, 1e-3)
        events = []
        for _ in range(2):
            events.extend(service.record(SHAPE, FAST, 1e-4))
        assert [event.kind for event in events] == ["promotion"]
        assert service.select(SHAPE) == FAST
        stats = service.adaptive_stats()
        assert stats.promotions == 1
        assert stats.active_overrides == 1

    def test_events_log_is_bounded(self):
        registry = MetricsRegistry()
        inner = SelectionService(_StubPolicy(), registry=registry)
        service = AdaptiveSelectionService(
            inner,
            config=AdaptiveConfig(trial_fraction=1.0, admission_threshold=2),
            registry=registry,
            event_log=4,
        )
        admit(service, SHAPE)
        for _ in range(12):
            service.record(SHAPE, BASE, 1e-3)
            service.select(SHAPE)
        assert len(service.events()) <= 4


class TestBatchPath:
    def test_batch_counts_every_item_once(self):
        service = make_service(threshold=2)
        admit(service, SHAPE)
        got = service.select_batch([SHAPE, OTHER_SHAPE, SHAPE])
        assert got == (BASE, BASE, BASE)
        stats = service.adaptive_stats()
        # admit() cost 2 cold misses; the batch adds 2 warm hits for
        # SHAPE and 1 cold miss for OTHER_SHAPE — every item counted
        # exactly once.
        assert stats.admission_hits == 2
        assert stats.admission_misses == 3
        assert stats.requests == 5

    def test_batch_trial_serves_only_the_first_occurrence(self):
        service = make_service(trial_fraction=1.0)
        admit(service, SHAPE)
        service.record(SHAPE, BASE, 1e-3)  # arm
        got = service.select_batch([SHAPE, SHAPE, SHAPE])
        trials = [config for config in got if config != BASE]
        assert len(trials) == 1
        assert got[0] == trials[0]  # the first occurrence took it
        assert service.adaptive_stats().trials == 1

    def test_batch_mixes_overrides_and_cold_resolution(self):
        service = make_service(trial_fraction=0.0, threshold=1)
        admit(service, SHAPE, threshold=1)
        for _ in range(2):
            service.record(SHAPE, BASE, 1e-3)
        for _ in range(2):
            service.record(SHAPE, FAST, 1e-4)  # promote
        fresh = GemmShape(m=8, k=8, n=8)
        got = service.select_batch([SHAPE, fresh])
        assert got == (FAST, BASE)
        # threshold=1: the cold shape was admitted during the batch.
        assert fresh.as_tuple() in service.tracked()

    def test_empty_batch(self):
        assert make_service().select_batch([]) == ()


class TestDelegation:
    def test_selection_service_surface_passes_through(self):
        registry = MetricsRegistry()
        inner = SelectionService(
            _StubPolicy(),
            registry=registry,
            name="inner",
            fallback=BASE,
        )
        service = AdaptiveSelectionService(inner, registry=registry)
        assert service.service is inner
        assert service.policy is inner.policy
        assert service.name == "inner"
        assert service.fallback == BASE
        assert service.provenance is None
        assert service.breaker_open is False
        service.select(SHAPE)
        assert service.stats().lookups == inner.stats().lookups == 1
        service.clear()
        assert inner.stats().cache_size == 0
        service.reset_breaker()  # must not raise
        assert "AdaptiveSelectionService" in repr(service)

    def test_adaptive_stats_dataclass_helpers(self):
        stats = AdaptiveStats(
            admission_hits=8,
            admission_misses=2,
            tracked_shapes=3,
            active_overrides=1,
            trials=4,
            promotions=1,
            demotions=0,
            feedback=10,
        )
        assert stats.requests == 10
        assert stats.admission_hit_rate == pytest.approx(0.8)
        assert "80.0% admitted" in stats.render()
        zero = AdaptiveStats(0, 0, 0, 0, 0, 0, 0, 0)
        assert zero.admission_hit_rate == 0.0


class TestFleetIntegration:
    def test_adaptive_service_drops_into_a_router(self):
        registry = MetricsRegistry()
        router = FleetRouter(default_policy="round-robin", registry=registry)
        for i in range(2):
            inner = SelectionService(
                _StubPolicy(), registry=registry, name=f"dev{i}"
            )
            router.add_device(
                f"dev{i}",
                AdaptiveSelectionService(inner, registry=registry),
                library=CONFIGS[:4],
            )
        decisions = []
        for _ in range(6):
            decision = router.select(SHAPE)
            decisions.append(decision.device_id)
            router.complete(decision.device_id)
        assert set(decisions) == {"dev0", "dev1"}

    def test_override_flows_through_the_router(self):
        registry = MetricsRegistry()
        router = FleetRouter(default_policy="round-robin", registry=registry)
        inner = SelectionService(_StubPolicy(), registry=registry, name="dev0")
        service = AdaptiveSelectionService(
            inner,
            config=AdaptiveConfig(
                trial_fraction=0.0,
                admission_threshold=1,
                min_trials=2,
                promote_margin=1.0,
            ),
            registry=registry,
        )
        router.add_device("dev0", service, library=CONFIGS[:4])
        router.select(SHAPE)  # admits (threshold 1)
        for _ in range(2):
            service.record(SHAPE, BASE, 1e-3)
        for _ in range(2):
            service.record(SHAPE, FAST, 1e-4)
        assert router.select(SHAPE).config == FAST
