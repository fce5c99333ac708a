"""Direct policies: single lookups skip the memo, and answer as it would.

A :class:`~repro.core.deploy.CompiledSelector` declares
``memoise = False``, so :class:`SelectionService` calls it directly on
single lookups instead of memoising it.  These differential tests serve
the same compiled tree twice, once as is and once behind a shim that
keeps the memo,
and require equal answers and equal counters on the streams the ledger
serves: Zipf traffic over the network shapes, random shapes cycled
through a small memo, and 64-shape batches, plus a policy that fails on
a schedule through a breaker trip, its probes and recovery.  The
adaptive wrapper hands a direct service the undegraded answer it
admitted a shape with, so warm admitted lookups skip the tree but are
still counted.
"""

import random

import pytest

from repro.loadgen.harness import synthetic_deployed
from repro.loadgen.workload import ShapeStream, network_shape_pool
from repro.adaptive.bandit import AdaptiveConfig
from repro.obs import MetricsRegistry
from repro.serving import AdaptiveSelectionService, SelectionService
from repro.sycl.exceptions import DeviceError
from repro.workloads.gemm import GemmShape

BATCH = 64


class _Memoised:
    """The same policy without the ``memoise = False`` declaration."""

    def __init__(self, policy):
        self.select = policy.select
        self.select_batch = policy.select_batch


class _Scheduled:
    """A direct policy over ``tree`` that raises for the shapes in ``failing``."""

    memoise = False

    def __init__(self, tree, failing):
        self._tree = tree
        self._failing = frozenset(failing)
        self.calls = 0

    def select(self, shape):
        self.calls += 1
        if shape in self._failing:
            raise DeviceError("scheduled backend error")
        return self._tree.select(shape)

    def select_batch(self, shapes):
        return tuple(map(self.select, shapes))


@pytest.fixture(scope="module")
def deployed():
    return synthetic_deployed(budget=8, seed=0)


@pytest.fixture(scope="module")
def tree(deployed):
    return deployed.compiled()


def random_shapes(n, seed):
    rng = random.Random(seed)
    return [
        GemmShape(
            m=rng.randint(1, 4096),
            k=rng.randint(1, 4096),
            n=rng.randint(1, 4096),
            batch=rng.choice((1, 1, 1, 4)),
        )
        for _ in range(n)
    ]


def pair(policy, **kwargs):
    """A service over ``policy`` and a memoised twin over the same calls."""
    direct = SelectionService(policy, registry=MetricsRegistry(), **kwargs)
    memo = SelectionService(_Memoised(policy), registry=MetricsRegistry(), **kwargs)
    return direct, memo


class TestDeclaration:
    def test_compiled_tree_goes_direct_everything_else_is_memoised(
        self, deployed, tree
    ):
        assert SelectionService(tree)._direct
        assert not SelectionService(_Memoised(tree))._direct
        assert not SelectionService(deployed)._direct

    def test_constant_tree_goes_direct(self):
        constant = synthetic_deployed(budget=1, seed=0).compiled()
        service = SelectionService(constant)
        shapes = random_shapes(50, seed=3)
        assert [service.select(s) for s in shapes] == [
            constant.select(s) for s in shapes
        ]
        stats = service.stats()
        assert (stats.lookups, stats.cache_hits, stats.cache_size) == (50, 0, 0)


class TestSameAnswers:
    def check(self, tree, shapes, capacity):
        direct, memo = pair(tree, capacity=capacity)
        want = [tree.select(s) for s in shapes]
        assert [direct.select(s) for s in shapes] == want
        assert [memo.select(s) for s in shapes] == want
        chunks = [tuple(shapes[i : i + BATCH]) for i in range(0, len(shapes), BATCH)]
        got_direct = [c for chunk in chunks for c in direct.select_batch(chunk)]
        got_memo = [c for chunk in chunks for c in memo.select_batch(chunk)]
        assert got_direct == got_memo == want
        a, b = direct.stats(), memo.stats()
        assert a.lookups == b.lookups == 2 * len(shapes)
        assert a.single_calls == b.single_calls == len(shapes)
        assert a.batch_calls == b.batch_calls == len(chunks)
        return a, b

    def test_zipf_stream_over_network_shapes(self, tree):
        shapes = ShapeStream(network_shape_pool(), skew=1.1, seed=0).take(8192)
        direct, memo = self.check(tree, shapes, capacity=4096)
        # The singles never touch the memo; the batches fill it and hit.
        assert direct.cache_hits < memo.cache_hits
        assert direct.cache_hits > 0

    def test_random_shapes_cycled_through_a_small_memo(self, tree):
        distinct = random_shapes(2048, seed=1)
        shapes = (distinct * 16)[:32_768]
        direct, memo = self.check(tree, shapes, capacity=16)
        assert memo.evictions > direct.evictions > 0

    def test_batches_fill_the_memo_singles_do_not(self, tree):
        pool = network_shape_pool()
        direct = SelectionService(tree, registry=MetricsRegistry())
        for shape in pool:
            direct.select(shape)
        assert direct.stats().cache_size == 0
        direct.select_batch(pool[:BATCH])
        assert direct.stats().cache_size == len(set(pool[:BATCH]))


class TestScheduledErrors:
    def test_trip_probes_and_recovery_match_the_memo(self, tree):
        shapes = list(dict.fromkeys(random_shapes(700, seed=2)))[:600]
        # Sporadic errors that never reach the threshold, then a run of
        # 60 that trips the breaker and fails its first probes.
        failing = set(shapes[37:300:41]) | set(shapes[200:260])
        policy = _Scheduled(tree, failing)
        memo_policy = _Scheduled(tree, failing)
        kwargs = dict(
            fallback=tree.select(shapes[-1]),
            breaker_threshold=5,
            breaker_probe_interval=4,
        )
        direct = SelectionService(policy, registry=MetricsRegistry(), **kwargs)
        memo = SelectionService(
            _Memoised(memo_policy), registry=MetricsRegistry(), **kwargs
        )
        assert direct._direct and not memo._direct
        for shape in shapes:
            assert direct.select(shape) == memo.select(shape)
            assert direct.breaker_open == memo.breaker_open
        assert policy.calls == memo_policy.calls < len(shapes)
        a, b = direct.stats(), memo.stats()
        for field in (
            "lookups",
            "single_calls",
            "policy_errors",
            "fallback_serves",
            "breaker_trips",
        ):
            assert getattr(a, field) == getattr(b, field), field
        assert a.breaker_trips == 1
        assert a.policy_errors > 5
        assert not a.breaker_open
        # Recovered: the tail is answered by the tree again.
        tail = shapes[-50:]
        assert [direct.select(s) for s in tail] == [tree.select(s) for s in tail]


class TestAdaptiveWarmPath:
    WARM_ONLY = AdaptiveConfig(trial_fraction=0.0, admission_threshold=1)

    def wrap(self, tree, failing=(), **kwargs):
        policy = _Scheduled(tree, failing)
        service = SelectionService(policy, registry=MetricsRegistry(), **kwargs)
        candidates = tuple(dict.fromkeys(map(tree.select, network_shape_pool())))
        adaptive = AdaptiveSelectionService(
            service, config=self.WARM_ONLY, candidates=candidates
        )
        return policy, service, adaptive

    def test_admitted_shapes_skip_the_tree_but_are_counted(self, tree):
        pool = network_shape_pool()[:20]
        policy, service, adaptive = self.wrap(tree)
        want = [tree.select(s) for s in pool]
        for _ in range(4):
            assert [adaptive.select(s) for s in pool] == want
        # Only the first, cold pass consulted the tree.
        assert policy.calls == len(pool)
        stats = service.stats()
        assert stats.lookups == stats.single_calls == stats.latency.count == 80
        assert stats.cache_hits == 0
        assert adaptive.adaptive_stats().admission_hits == 60

    @pytest.mark.parametrize("batch", [False, True])
    def test_a_degraded_answer_is_not_admitted(self, tree, batch):
        shape = network_shape_pool()[0]
        right = tree.select(shape)
        fallback = next(c for c in map(tree.select, network_shape_pool()) if c != right)
        policy, service, adaptive = self.wrap(
            tree, {shape}, breaker_threshold=1, fallback=fallback
        )
        serve = (lambda s: adaptive.select_batch([s])[0]) if batch else adaptive.select
        assert serve(shape) == fallback
        assert service.degraded_serves == 1
        assert adaptive.tracked() == {}
        policy._failing = frozenset()
        service.reset_breaker()
        assert serve(shape) == right
        assert adaptive.tracked()[shape.as_tuple()].base == right
        assert [adaptive.select(shape) for _ in range(3)] == [right] * 3
        # clear() zeroes fallback_serves, not degraded_serves.
        service.clear()
        assert service.stats().fallback_serves == 0
        assert service.degraded_serves == 1
