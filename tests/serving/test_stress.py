"""Concurrency stress: many threads hammering one SelectionService.

The service guards all state with one lock; these tests prove the
counters stay consistent and the policy is consulted at most once per
unique shape even under contention, including while the circuit breaker
is tripping and recovering.
"""

import random
import sys
import threading

import pytest

from repro.kernels.params import config_space
from repro.serving import SelectionService
from repro.sycl.exceptions import DeviceError
from repro.workloads.gemm import GemmShape

CONFIGS = config_space(tile_sizes=(1, 2), work_groups=((8, 8),))
N_THREADS = 8
ROUNDS = 40
SHAPES = tuple(GemmShape(m=8 * (i + 1), k=16, n=16) for i in range(16))
WIDE_SHAPES = tuple(GemmShape(m=8 * (i + 1), k=16, n=16) for i in range(64))


def expected(shape):
    """The config every test policy picks for ``shape``: differs per shape."""
    return CONFIGS[(shape.m // 8) % len(CONFIGS)]


class _CountingPolicy:
    """Thread-safe policy that records every consultation."""

    def __init__(self):
        self._lock = threading.Lock()
        self.calls = 0
        self.shapes_seen = set()

    def select(self, shape):
        with self._lock:
            self.calls += 1
            self.shapes_seen.add(shape)
        return expected(shape)

    def select_batch(self, shapes):
        return tuple(self.select(s) for s in shapes)


class _SometimesFailingPolicy(_CountingPolicy):
    """Every third consultation raises."""

    def select(self, shape):
        with self._lock:
            self.calls += 1
            self.shapes_seen.add(shape)
            fail = self.calls % 3 == 0
        if fail:
            raise DeviceError("intermittent backend error")
        return expected(shape)


class _DirectPolicy:
    """A policy the service calls directly; raises while ``down`` is set."""

    memoise = False
    down = False

    def select(self, shape):
        if self.down:
            raise DeviceError("backend down")
        return expected(shape)

    def select_batch(self, shapes):
        return tuple(map(self.select, shapes))


def hammer(worker, n_threads=N_THREADS):
    """Run ``worker(thread_index)`` on N threads; re-raise any error."""
    errors = []
    barrier = threading.Barrier(n_threads)

    def body(tid):
        try:
            barrier.wait()
            worker(tid)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=body, args=(tid,)) for tid in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


class TestConcurrentServing:
    def test_counters_consistent_under_mixed_load(self):
        policy = _CountingPolicy()
        service = SelectionService(policy)
        answers = [None] * N_THREADS

        def worker(tid):
            local = []
            for r in range(ROUNDS):
                s = SHAPES[(tid + r) % len(SHAPES)]
                local.append(service.select(s))
                if r % 5 == 0:
                    local.extend(service.select_batch(SHAPES[:4]))
                if r % 7 == 0:
                    service.stats()  # snapshots interleave with writes
            answers[tid] = local

        hammer(worker)
        stats = service.stats()
        expected_lookups = N_THREADS * (ROUNDS + 4 * len(range(0, ROUNDS, 5)))
        assert stats.lookups == expected_lookups
        assert stats.cache_hits + policy.calls == stats.lookups
        # Each unique shape consults the policy exactly once.
        assert policy.calls == len(SHAPES)
        assert policy.shapes_seen == set(SHAPES)
        assert stats.cache_size == len(SHAPES)
        assert stats.evictions == 0

    def test_every_thread_sees_identical_answers(self):
        policy = _CountingPolicy()
        service = SelectionService(policy)
        results = [None] * N_THREADS

        def worker(tid):
            results[tid] = tuple(service.select(s) for s in SHAPES)

        hammer(worker)
        assert len(set(results)) == 1
        want = tuple(expected(s) for s in SHAPES)
        assert results[0] == want

    def test_tiny_cache_evictions_stay_consistent(self):
        policy = _CountingPolicy()
        service = SelectionService(policy, capacity=2)

        def worker(tid):
            for r in range(ROUNDS):
                service.select(SHAPES[(tid * 3 + r) % len(SHAPES)])

        hammer(worker)
        stats = service.stats()
        assert stats.cache_size <= 2
        assert stats.lookups == N_THREADS * ROUNDS
        assert stats.cache_hits + policy.calls == stats.lookups
        assert stats.evictions == policy.calls - stats.cache_size

    def test_mixed_single_and_batch_misses_on_tiny_cache(self):
        # 64 shapes through 8 slots: nearly every lookup misses, so
        # owners, waiters and evictions interleave on both paths.
        policy = _CountingPolicy()
        service = SelectionService(policy, capacity=8)
        issued = [0] * N_THREADS
        wrong = []

        def worker(tid):
            rng = random.Random(tid)
            for r in range(ROUNDS):
                if r % 3 == 0:
                    batch = [rng.choice(WIDE_SHAPES) for _ in range(12)]
                    got = service.select_batch(batch)
                else:
                    batch = [rng.choice(WIDE_SHAPES)]
                    got = (service.select(batch[0]),)
                issued[tid] += len(batch)
                wrong.extend(s for s, c in zip(batch, got) if c != expected(s))

        hammer(worker)
        stats = service.stats()
        assert wrong == []
        assert stats.lookups == sum(issued)
        assert policy.calls == stats.lookups - stats.cache_hits
        assert stats.evictions == policy.calls - stats.cache_size
        assert stats.cache_size == 8

    def test_degradation_under_concurrent_failures(self):
        policy = _SometimesFailingPolicy()
        service = SelectionService(
            policy,
            fallback=CONFIGS[0],
            breaker_threshold=2,
            breaker_probe_interval=3,
        )

        def worker(tid):
            for r in range(ROUNDS):
                config = service.select(SHAPES[(tid + r) % len(SHAPES)])
                assert config in CONFIGS

        hammer(worker)
        stats = service.stats()
        assert stats.lookups == N_THREADS * ROUNDS
        # Every lookup was answered by exactly one of: cache, policy
        # success, or a degraded serve.
        policy_successes = policy.calls - stats.policy_errors
        assert (
            stats.cache_hits + policy_successes + stats.fallback_serves
            == stats.lookups
        )
        assert stats.policy_errors > 0

    def test_clear_during_traffic_never_corrupts(self):
        policy = _CountingPolicy()
        service = SelectionService(policy)

        def worker(tid):
            for r in range(ROUNDS):
                if tid == 0 and r % 10 == 0:
                    service.clear()
                else:
                    service.select(SHAPES[r % len(SHAPES)])

        hammer(worker)
        stats = service.stats()
        assert stats.cache_hits <= stats.lookups
        assert stats.cache_size <= len(SHAPES)
        # Service still serves correctly after the dust settles.
        assert service.select(SHAPES[0]) == expected(SHAPES[0])

    def test_warm_batches_race_clear_on_tiny_cache(self):
        # A hot pair fits the memo, so its batches are often all-warm
        # and take the lock-free path while clear() swaps the memo;
        # mixed batches and singles keep inserting and evicting.
        policy = _CountingPolicy()
        service = SelectionService(policy, capacity=4)
        hot = SHAPES[:2]
        wrong = []

        def check(batch, got):
            wrong.extend(s for s, c in zip(batch, got) if c != expected(s))

        def worker(tid):
            rng = random.Random(tid)
            for r in range(ROUNDS):
                if tid == 0 and r % 4 == 0:
                    service.clear()
                    continue
                kind = (tid + r) % 3
                if kind == 0:
                    batch = [rng.choice(hot) for _ in range(8)]
                    check(batch, service.select_batch(batch))
                elif kind == 1:
                    batch = [rng.choice(hot), rng.choice(WIDE_SHAPES), hot[0]]
                    check(batch, service.select_batch(batch))
                else:
                    single = rng.choice(WIDE_SHAPES[:6])
                    check([single], [service.select(single)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            hammer(worker)
        finally:
            sys.setswitchinterval(interval)
        stats = service.stats()
        assert wrong == []
        assert stats.cache_hits <= stats.lookups
        assert stats.cache_size <= 4

    def test_direct_lookups_race_clear_and_breaker_flips(self):
        # A direct policy's singles skip the memo and its lock; a
        # controller thread clears the service and trips and resets the
        # breaker underneath them.
        policy = _DirectPolicy()
        # Workers ask only for shapes the policy answers with CONFIGS[1:4].
        shapes = WIDE_SHAPES[0::8] + WIDE_SHAPES[1::8] + WIDE_SHAPES[2::8]
        fallback = CONFIGS[-1]
        service = SelectionService(
            policy, fallback=fallback, breaker_threshold=3, breaker_probe_interval=2
        )
        assert service._direct
        # A degraded answer is the fallback or a last-known-good one.
        degraded = {fallback} | {expected(s) for s in shapes}
        wrong = []
        # Answers other than the shape's own, per thread; each needs a
        # degraded serve, and degraded_serves survives clear().
        others = [0] * (N_THREADS + 1)
        done = threading.Event()

        def worker(tid):
            if tid == 0:
                for _ in range(50):
                    policy.down = True
                    while not service.breaker_open:
                        if service.select(SHAPES[0]) != expected(SHAPES[0]):
                            others[0] += 1
                    policy.down = False
                    service.reset_breaker()
                    service.clear()
                done.set()
                return
            rng = random.Random(tid)
            while not done.is_set():
                shape = rng.choice(shapes)
                config = service.select(shape)
                if config != expected(shape):
                    others[tid] += 1
                    if config not in degraded:
                        wrong.append((shape, config))

        def final_round(tid):
            for shape in shapes:
                config = service.select(shape)
                if config != expected(shape):
                    wrong.append((shape, config))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            hammer(worker, n_threads=N_THREADS + 1)
            assert sum(others) <= service.degraded_serves
            service.clear()
            # The policy is up and the breaker closed: every answer is
            # the shape's own.
            hammer(final_round)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        stats = service.stats()
        assert stats.lookups == stats.single_calls == N_THREADS * len(shapes)
        assert stats.cache_hits == 0
        assert stats.policy_errors == stats.fallback_serves == 0
        assert not stats.breaker_open
