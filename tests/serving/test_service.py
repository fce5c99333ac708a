"""SelectionService: caching, batching, observability, thread safety."""

import threading

import pytest

from repro.bench.runner import BenchmarkRunner
from repro.core.deploy import tune
from repro.core.pruning import TopNPruner
from repro.core.selection.classifiers import make_selector
from repro.core.selection.dynamic import DynamicTrialSelector
from repro.serving import SelectionService
from repro.sycl.device import Device
from repro.workloads.gemm import GemmShape


@pytest.fixture(scope="module")
def split(small_dataset):
    return small_dataset.split(test_size=0.3, random_state=0)


@pytest.fixture(scope="module")
def fitted_selector(split):
    train, _ = split
    pruned = TopNPruner().select(train, 4)
    return make_selector("DecisionTree", pruned, random_state=0).fit(train)


@pytest.fixture(scope="module")
def deployed(split):
    return tune(split[0], n_configs=4, random_state=0)


class TestSingleQuery:
    def test_matches_underlying_policy(self, fitted_selector):
        service = SelectionService(fitted_selector)
        shape = GemmShape(m=128, k=64, n=256)
        assert service.select(shape) == fitted_selector.select(shape)

    def test_cache_hits_never_change_answers(self, fitted_selector, split):
        service = SelectionService(fitted_selector)
        shapes = tuple(split[1].shapes)
        first = [service.select(s) for s in shapes]
        second = [service.select(s) for s in shapes]
        assert first == second
        stats = service.stats()
        assert stats.lookups == 2 * len(shapes)
        assert stats.cache_hits >= len(shapes)

    def test_stats_counts(self, fitted_selector):
        service = SelectionService(fitted_selector)
        shape = GemmShape(m=64, k=64, n=64)
        for _ in range(4):
            service.select(shape)
        stats = service.stats()
        assert stats.lookups == 4
        assert stats.cache_hits == 3
        assert stats.single_calls == 4
        assert stats.hit_rate == pytest.approx(0.75)
        assert stats.latency.count == 4
        assert stats.latency.mean > 0.0


class TestBatchQuery:
    def test_batch_agrees_with_policy_batch(self, fitted_selector, split):
        service = SelectionService(fitted_selector)
        shapes = tuple(split[1].shapes)
        assert service.select_batch(shapes) == fitted_selector.select_batch(
            shapes
        )

    def test_repeats_within_batch_hit_cache(self, fitted_selector):
        service = SelectionService(fitted_selector)
        shape = GemmShape(m=96, k=96, n=96)
        out = service.select_batch([shape] * 10)
        assert out == (service.select(shape),) * 10
        stats = service.stats()
        # 10 batched lookups: one miss, nine in-batch repeats, then one
        # single-query hit.
        assert stats.lookups == 11
        assert stats.cache_hits == 10

    def test_second_batch_fully_cached(self, fitted_selector, split):
        service = SelectionService(fitted_selector)
        shapes = tuple(split[1].shapes)
        first = service.select_batch(shapes)
        second = service.select_batch(shapes)
        assert first == second
        stats = service.stats()
        assert stats.batch_calls == 2
        assert stats.max_batch_size == len(shapes)
        assert stats.mean_batch_size == pytest.approx(len(shapes))

    def test_empty_batch(self, fitted_selector):
        service = SelectionService(fitted_selector)
        assert service.select_batch(()) == ()
        assert service.stats().batch_calls == 1

    def test_policy_without_select_batch(self, fitted_selector):
        class _SingleOnly:
            def __init__(self, inner):
                self._inner = inner
                self.calls = 0

            def select(self, shape):
                self.calls += 1
                return self._inner.select(shape)

        policy = _SingleOnly(fitted_selector)
        service = SelectionService(policy)
        shapes = [GemmShape(m=32 * i, k=64, n=64) for i in range(1, 5)]
        out = service.select_batch(shapes * 2)
        assert out[: len(shapes)] == out[len(shapes) :]
        assert policy.calls == len(shapes)  # repeats resolved from memo


class TestEvictionAndLifecycle:
    def test_lru_eviction_bounds_cache(self, fitted_selector):
        service = SelectionService(fitted_selector, capacity=3)
        shapes = [GemmShape(m=16 * i, k=32, n=32) for i in range(1, 7)]
        for shape in shapes:
            service.select(shape)
        stats = service.stats()
        assert stats.cache_size == 3
        assert stats.evictions == 3

    def test_evicted_entry_recomputes_same_answer(self, fitted_selector):
        service = SelectionService(fitted_selector, capacity=1)
        a = GemmShape(m=128, k=64, n=64)
        b = GemmShape(m=256, k=64, n=64)
        first = service.select(a)
        service.select(b)  # evicts a
        assert service.select(a) == first

    def test_clear_resets_counters(self, fitted_selector):
        service = SelectionService(fitted_selector)
        service.select(GemmShape(m=64, k=64, n=64))
        service.clear()
        stats = service.stats()
        assert stats.lookups == 0
        assert stats.cache_size == 0
        assert stats.latency.count == 0

    def test_invalid_arguments(self, fitted_selector):
        with pytest.raises(ValueError):
            SelectionService(fitted_selector, capacity=0)
        with pytest.raises(TypeError):
            SelectionService(object())


class TestPolicies:
    def test_wraps_deployed_selector(self, deployed, split):
        service = SelectionService(deployed)
        shapes = tuple(split[1].shapes[:8])
        assert service.select_batch(shapes) == deployed.select_batch(shapes)

    def test_wraps_dynamic_selector_and_memoises_sweeps(self, split):
        train, _ = split
        pruned = TopNPruner().select(train, 3)
        runner = BenchmarkRunner(Device.r9_nano(), configs=train.configs)
        dynamic = DynamicTrialSelector(runner, pruned, trial_iterations=1)
        service = SelectionService(dynamic)
        shape = GemmShape(m=128, k=128, n=128)
        for _ in range(5):
            service.select(shape)
        # The service memo absorbs repeats: the dynamic policy sweeps once.
        assert dynamic.stats.trial_sweeps == 1
        assert dynamic.stats.lookups == 1


class TestThreadSafety:
    def test_concurrent_selects_are_consistent(self, fitted_selector, split):
        service = SelectionService(fitted_selector)
        shapes = tuple(split[1].shapes)
        expected = fitted_selector.select_batch(shapes)
        errors = []

        def worker():
            try:
                for shape, want in zip(shapes, expected):
                    assert service.select(shape) == want
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = service.stats()
        assert stats.lookups == 8 * len(shapes)
        # Each unique shape misses exactly once; every other lookup hits.
        assert stats.cache_hits == stats.lookups - len(shapes)


class TestStatsRendering:
    def test_render_mentions_key_counters(self, fitted_selector):
        service = SelectionService(fitted_selector)
        service.select_batch([GemmShape(m=64, k=64, n=64)] * 3)
        text = service.stats().render()
        assert "lookups" in text
        assert "hit rate" in text
        assert "latency" in text
