"""The lock-free hot path: snapshot hits, outside-lock policy calls.

These tests pin the serving-layer guarantees the load harness leans on:

* a *warm* hit never touches the service lock, so it completes even
  while another thread holds the lock or is stuck inside the policy;
* neither does a batch whose every key is warm; it counts exactly like
  the locked path and, like a single warm hit, refreshes no recency;
* concurrent misses for one shape consult the policy exactly once;
* a policy whose ``select_batch`` returns the wrong number of configs
  raises a clear contract error instead of mis-zipping answers;
* every in-flight latch is released on every owner exit, so parked
  waiters always wake, and an uncontended miss builds no
  ``threading.Event``;
* batch lookup latency is weighted by query count (``observe_n``);
* the snapshot dict mirrors LRU membership through inserts/evictions.
"""

import threading
import time

import pytest

from repro.kernels.params import config_space
from repro.obs import MetricsRegistry
from repro.serving import SelectionService
from repro.workloads.gemm import GemmShape

CONFIGS = config_space(tile_sizes=(1, 2), work_groups=((8, 8),))
ANSWER = CONFIGS[0]


def shape(i):
    return GemmShape(m=8 * (i + 1), k=8, n=8)


class _CountingPolicy:
    def __init__(self, answer=ANSWER):
        self.answer = answer
        self.calls = 0
        self.shapes = []
        self._lock = threading.Lock()

    def select(self, shape):
        with self._lock:
            self.calls += 1
            self.shapes.append(shape)
        return self.answer


class _GatedPolicy(_CountingPolicy):
    """Blocks inside select() until the test releases the gate."""

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.entered = threading.Event()

    def select(self, shape):
        self.entered.set()
        if not self.gate.wait(timeout=5.0):
            raise RuntimeError("test gate never opened")
        return super().select(shape)


class _ShortBatchPolicy(_CountingPolicy):
    """Violates the select_batch contract: always one config short."""

    def select_batch(self, shapes):
        return tuple(self.answer for _ in shapes)[:-1]


class _FailFirstPolicy(_GatedPolicy):
    """Blocks on the gate and raises on its first call only.

    Records the thread behind every call so a test can tell who
    consulted the policy.
    """

    def __init__(self):
        super().__init__()
        self.callers = []

    def select(self, shape):
        with self._lock:
            self.callers.append(threading.current_thread().name)
            first = len(self.callers) == 1
        if first:
            self.entered.set()
            if not self.gate.wait(timeout=5.0):
                raise RuntimeError("test gate never opened")
            raise RuntimeError("first call fails")
        return _CountingPolicy.select(self, shape)


class _GatedShortBatchPolicy(_ShortBatchPolicy):
    """Short-returns from select_batch once the test opens the gate."""

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.entered = threading.Event()

    def select_batch(self, shapes):
        self.entered.set()
        if not self.gate.wait(timeout=5.0):
            raise RuntimeError("test gate never opened")
        return super().select_batch(shapes)


class _WatchedInflight(dict):
    """An in-flight table that counts lookups of one key.

    A waiter finds the owner's latch here just before it parks on it,
    so the count tells a test when its waiters are about to park.
    """

    def __init__(self, key):
        super().__init__()
        self.key = key
        self.gets = 0
        self.cond = threading.Condition()

    def get(self, key, default=None):
        found = super().get(key, default)
        if key == self.key and found is not None:
            with self.cond:
                self.gets += 1
                self.cond.notify_all()
        return found

    def wait_for_gets(self, n, timeout=5.0):
        with self.cond:
            return self.cond.wait_for(lambda: self.gets >= n, timeout=timeout)


def _no_event(*args, **kwargs):
    raise AssertionError("an uncontended miss built a threading.Event")


def _run_while_locked(service, fn):
    """``fn()`` on a worker thread while this thread holds the service lock.

    Fails if the call blocks on the lock; returns what it returned.
    """
    got = []
    with service._lock:
        worker = threading.Thread(target=lambda: got.append(fn()), daemon=True)
        worker.start()
        worker.join(timeout=2.0)
        assert not worker.is_alive(), "call blocked on the service lock"
    return got[0]


class TestLockFreeHits:
    def test_warm_hit_completes_while_lock_is_held(self):
        service = SelectionService(_CountingPolicy())
        warm = shape(0)
        expected = service.select(warm)
        assert _run_while_locked(service, lambda: service.select(warm)) == expected

    def test_warm_hits_not_blocked_by_slow_miss(self):
        policy = _GatedPolicy()
        service = SelectionService(policy)
        warm = shape(0)
        policy.gate.set()
        service.select(warm)  # populate the snapshot
        policy.gate.clear()

        miss_thread = threading.Thread(
            target=lambda: service.select(shape(1)), daemon=True
        )
        miss_thread.start()
        assert policy.entered.wait(timeout=2.0)
        try:
            # The miss is parked inside the policy; warm traffic flows.
            start = time.perf_counter()
            for _ in range(100):
                assert service.select(warm) == ANSWER
            assert time.perf_counter() - start < 1.0
        finally:
            policy.gate.set()
            miss_thread.join(timeout=2.0)
        assert not miss_thread.is_alive()
        assert policy.calls == 2

    def test_concurrent_misses_consult_policy_once(self):
        policy = _GatedPolicy()
        service = SelectionService(policy)
        target = shape(3)
        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(service.select(target)),
                daemon=True,
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        assert policy.entered.wait(timeout=2.0)
        policy.gate.set()
        for t in threads:
            t.join(timeout=5.0)
        assert results == [ANSWER] * 8
        assert policy.calls == 1
        stats = service.stats()
        assert stats.lookups == 8
        assert stats.cache_hits == 7

    def test_inflight_table_drains(self):
        policy = _CountingPolicy()
        service = SelectionService(policy)
        service.select_batch([shape(i) for i in range(6)])
        service.select(shape(7))
        assert service._inflight == {}


class TestLockFreeBatch:
    def test_warm_batch_completes_while_lock_is_held(self):
        service = SelectionService(_CountingPolicy())
        batch = [shape(0), shape(1), shape(0)]
        expected = service.select_batch(batch)
        got = _run_while_locked(service, lambda: service.select_batch(batch))
        assert got == expected == (ANSWER,) * 3

    def test_warm_batch_with_repeats_counts_exactly(self):
        registry = MetricsRegistry()
        policy = _CountingPolicy()
        service = SelectionService(policy, registry=registry)
        for i in range(3):
            service.select(shape(i))
        registry.reset()  # zero the warm-up, keep the memo
        batch = [shape(0), shape(1), shape(0), shape(2), shape(1)]
        got = _run_while_locked(service, lambda: service.select_batch(batch))
        assert got == (ANSWER,) * 5
        assert policy.calls == 3
        stats = service.stats()
        assert stats.lookups == 5
        assert stats.cache_hits == 5
        assert stats.batch_calls == 1
        assert stats.single_calls == 0
        assert stats.max_batch_size == 5
        assert registry.counter("serving.batch_queries").value == 5
        assert registry.histogram("serving.lookup_seconds").count == 5
        assert registry.histogram("serving.call_seconds").count == 1

    def test_one_cold_key_consults_policy_once(self):
        policy = _CountingPolicy()
        service = SelectionService(policy)
        service.select_batch([shape(0), shape(1)])
        assert policy.calls == 2
        got = service.select_batch([shape(0), shape(2), shape(1), shape(2)])
        assert got == (ANSWER,) * 4
        assert policy.calls == 3
        assert policy.shapes[-1] == shape(2)
        stats = service.stats()
        assert stats.lookups == 6
        # Warm 0 and 1 plus the repeat of 2; only its first copy missed.
        assert stats.cache_hits == 3
        assert service._inflight == {}

    def test_empty_batch_counts_one_call_and_no_lookups(self):
        registry = MetricsRegistry()
        service = SelectionService(_CountingPolicy(), registry=registry)
        assert service.select_batch([]) == ()
        stats = service.stats()
        assert stats.batch_calls == 1
        assert stats.lookups == 0
        assert stats.cache_hits == 0
        assert registry.histogram("serving.lookup_seconds").count == 0

    def test_warm_batch_does_not_refresh_recency(self):
        service = SelectionService(_CountingPolicy(), capacity=2)
        a, b, c = shape(0), shape(1), shape(2)
        service.select(a)
        service.select(b)
        service.select_batch([a])  # all warm: a stays least recent
        service.select(c)
        assert set(service._cache) == {b.as_tuple(), c.as_tuple()}
        # A batch with a miss takes the lock and refreshes its hits.
        service.select_batch([b, a])
        assert set(service._cache) == {b.as_tuple(), a.as_tuple()}
        assert set(service._snapshot) == set(service._cache)


class TestInflightLatch:
    def test_waiters_wake_when_owner_policy_raises(self):
        policy = _FailFirstPolicy()
        service = SelectionService(policy)
        target = shape(2)
        inflight = _WatchedInflight(target.as_tuple())
        service._inflight = inflight
        owner_error = []
        answers = []

        def owner():
            try:
                service.select(target)
            except RuntimeError as exc:
                owner_error.append(exc)

        def waiter():
            answers.append(service.select(target))

        owner_thread = threading.Thread(target=owner, name="owner", daemon=True)
        owner_thread.start()
        assert policy.entered.wait(timeout=2.0)
        waiters = [
            threading.Thread(target=waiter, name=f"waiter-{i}", daemon=True)
            for i in range(4)
        ]
        for t in waiters:
            t.start()
        try:
            # Each waiter fetched the owner's latch; give them a moment
            # to park on it.
            assert inflight.wait_for_gets(4)
            time.sleep(0.05)
        finally:
            policy.gate.set()
        for t in [owner_thread, *waiters]:
            t.join(timeout=5.0)
            assert not t.is_alive(), f"{t.name} never woke"

        assert [str(exc) for exc in owner_error] == ["first call fails"]
        assert answers == [ANSWER] * 4
        assert len(policy.callers) == 2
        assert policy.callers[0] == "owner"
        assert policy.callers[1].startswith("waiter-")
        assert service._inflight == {}
        stats = service.stats()
        assert stats.lookups == 5
        assert stats.cache_hits == 3
        assert stats.policy_errors == 1

    def test_single_waiter_wakes_on_batch_contract_violation(self):
        policy = _GatedShortBatchPolicy()
        service = SelectionService(policy)
        target = shape(0)
        inflight = _WatchedInflight(target.as_tuple())
        service._inflight = inflight
        batch_error = []
        single = []

        def batch():
            try:
                service.select_batch([target, shape(1)])
            except ValueError as exc:
                batch_error.append(exc)

        batch_thread = threading.Thread(target=batch, daemon=True)
        batch_thread.start()
        assert policy.entered.wait(timeout=2.0)
        single_thread = threading.Thread(
            target=lambda: single.append(service.select(target)), daemon=True
        )
        single_thread.start()
        try:
            assert inflight.wait_for_gets(1)
            time.sleep(0.05)
        finally:
            policy.gate.set()
        batch_thread.join(timeout=5.0)
        single_thread.join(timeout=5.0)
        assert not single_thread.is_alive(), "parked select never woke"

        assert len(batch_error) == 1
        assert "_GatedShortBatchPolicy" in str(batch_error[0])
        # The waiter resolved the key itself, through the scalar path.
        assert single == [ANSWER]
        assert policy.calls == 1
        assert service._inflight == {}
        assert service._cache == {target.as_tuple(): ANSWER}

    @pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
    def test_uncontended_miss_builds_no_event(self, monkeypatch, batch):
        service = SelectionService(_CountingPolicy())
        # Event() builds a Condition through threading's module global,
        # so this catches an Event however the service imported it.
        monkeypatch.setattr(threading, "Event", _no_event)
        monkeypatch.setattr(threading, "Condition", _no_event)
        if batch:
            got = service.select_batch([shape(0), shape(1), shape(0)])
            assert got == (ANSWER,) * 3
        else:
            assert service.select(shape(0)) == ANSWER
        monkeypatch.undo()
        assert service._inflight == {}


class TestBatchContract:
    def test_short_batch_return_raises_naming_policy(self):
        service = SelectionService(_ShortBatchPolicy())
        shapes = [shape(i) for i in range(4)]
        with pytest.raises(ValueError, match="_ShortBatchPolicy"):
            service.select_batch(shapes)

    def test_short_batch_leaves_service_usable(self):
        policy = _ShortBatchPolicy()
        service = SelectionService(policy)
        with pytest.raises(ValueError):
            service.select_batch([shape(0), shape(1)])
        # No stuck in-flight registrations: the same shapes resolve via
        # the scalar path afterwards, from any thread.
        assert service._inflight == {}
        done = []
        worker = threading.Thread(
            target=lambda: done.append(service.select(shape(0))), daemon=True
        )
        worker.start()
        worker.join(timeout=2.0)
        assert done == [ANSWER]
        assert service.select(shape(1)) == ANSWER


class TestLatencyWeighting:
    def test_batch_lookup_histogram_weighted_by_query_count(self):
        registry = MetricsRegistry()
        service = SelectionService(_CountingPolicy(), registry=registry)
        shapes = [shape(i) for i in range(10)]
        service.select_batch(shapes)
        lookup = registry.histogram("serving.lookup_seconds")
        call = registry.histogram("serving.call_seconds")
        assert lookup.count == 10
        assert call.count == 1
        service.select_batch(shapes[:7])
        assert lookup.count == 17
        assert call.count == 2

    def test_single_select_one_observation_per_call(self):
        registry = MetricsRegistry()
        service = SelectionService(_CountingPolicy(), registry=registry)
        for i in range(5):
            service.select(shape(i % 2))
        assert registry.histogram("serving.lookup_seconds").count == 5
        assert registry.histogram("serving.call_seconds").count == 5


class TestSnapshotCoherence:
    def test_snapshot_mirrors_lru_membership_through_eviction(self):
        service = SelectionService(_CountingPolicy(), capacity=3)
        for i in range(8):
            service.select(shape(i))
            assert set(service._snapshot) == set(service._cache)
        assert len(service._cache) == 3
        assert service.stats().evictions == 5

    def test_clear_empties_snapshot(self):
        service = SelectionService(_CountingPolicy())
        for i in range(4):
            service.select(shape(i))
        service.clear()
        assert service._snapshot == {}
        assert service._cache == {}
        # Fresh traffic repopulates both.
        service.select(shape(0))
        assert set(service._snapshot) == set(service._cache)
