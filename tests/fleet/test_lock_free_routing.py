"""The lock-free round-robin path of FleetRouter.select.

While every breaker is closed, a device-agnostic round-robin lookup
reads a cached ring of devices and counts itself with lock-free ticks
instead of ordering candidates under the router lock.  These tests pin
it to ``_candidates``: a router whose ring stays empty routes every
lookup the slow way, and must agree with the lock-free router on every
decision, counter and later placement, through breaker trips,
recoveries, service exceptions, batches and a device added mid-stream.
"""

from __future__ import annotations

import random
import sys
import threading

from repro.kernels.params import config_space
from repro.obs import MetricsRegistry
from repro.serving import FleetRouter, SelectionService
from repro.workloads.gemm import GemmShape

CONFIGS = tuple(config_space(tile_sizes=(1, 2), work_groups=((8, 8), (16, 16))))
SHAPES = tuple(
    GemmShape(m=16 * (i + 1), k=8 * (1 + i % 5), n=32) for i in range(24)
)


class _Switchable:
    """A policy the test kills and revives; answers depend on the shape."""

    def __init__(self):
        self.down = False

    def select(self, shape):
        if self.down:
            raise RuntimeError("device down")
        return CONFIGS[(shape.m + shape.k) % len(CONFIGS)]


class _CandidatesOnly(FleetRouter):
    """Reference router: its ring never fills, so every lookup is
    ordered by ``_candidates`` under the lock."""

    def _refresh_ring(self):
        pass


def _service(policy, *, fallback):
    # A small memo keeps lookups missing, so failing policies trip
    # breakers and recovered ones close them on the next probe.
    return SelectionService(
        policy,
        capacity=3,
        fallback=CONFIGS[0] if fallback else None,
        breaker_threshold=2,
        breaker_probe_interval=2,
        registry=MetricsRegistry(),
    )


def _counters(router):
    stats = router.stats()
    return (
        stats.dispatched,
        stats.outstanding,
        stats.targeted,
        stats.agnostic,
        stats.rerouted,
        stats.policy_counts,
        {
            did: (s.lookups, s.cache_hits, s.breaker_trips)
            for did, s in stats.devices.items()
        },
    )


class TestMatchesCandidates:
    def _fleet(self, router_cls):
        router = router_cls(registry=MetricsRegistry())
        policies = {}
        # "c" has no fallback and starts down: until it first answers,
        # its service raises and the router fails over.
        for did, fallback in (("a", True), ("b", True), ("c", False)):
            policies[did] = _Switchable()
            router.add_device(did, _service(policies[did], fallback=fallback))
        policies["c"].down = True
        return router, policies

    def test_decisions_counters_and_placements_agree(self):
        fast, fast_policies = self._fleet(FleetRouter)
        slow, slow_policies = self._fleet(_CandidatesOnly)
        rng = random.Random(16)
        lock_free = degraded = 0
        for step in range(600):
            if step == 300:
                for router, policies in ((fast, fast_policies), (slow, slow_policies)):
                    policies["d"] = _Switchable()
                    router.add_device("d", _service(policies["d"], fallback=True))
            roll = rng.random()
            did = rng.choice(sorted(fast_policies))
            if roll < 0.02:
                fast_policies[did].down = slow_policies[did].down = True
                continue
            if roll < 0.1:
                # An open breaker gets no routed traffic, so nothing
                # probes it: a revived device rejoins by a reset.
                fast_policies[did].down = slow_policies[did].down = False
                fast.reset_breaker(did)
                slow.reset_breaker(did)
                continue
            if fast._ring:
                lock_free += 1
            else:
                degraded += 1
            if roll < 0.15:
                shape = rng.choice(SHAPES)
                got = fast.select(shape, device_id=did)
                assert got == slow.select(shape, device_id=did)
                decisions = (got,)
            elif roll < 0.25:
                shapes = [rng.choice(SHAPES) for _ in range(rng.randint(1, 7))]
                policy = rng.choice((None, "round-robin"))
                got = fast.select_batch(shapes, policy=policy)
                assert got == slow.select_batch(shapes, policy=policy)
                decisions = got
            else:
                shape = rng.choice(SHAPES)
                policy = rng.choice((None, None, "round-robin"))
                got = fast.select(shape, policy=policy)
                assert got == slow.select(shape, policy=policy)
                decisions = (got,)
            for decision in decisions:
                if rng.random() < 0.7:
                    n = rng.choice((1, 1, 2))
                    fast.complete(decision.device_id, n)
                    slow.complete(decision.device_id, n)
            assert _counters(fast) == _counters(slow), step
        # The walk covered both regimes and real failovers.
        assert lock_free > 100 and degraded > 100
        assert fast.stats().rerouted > 0
        for shape in SHAPES:
            assert fast.select(shape) == slow.select(shape)
        assert _counters(fast) == _counters(slow)


class TestThreadedAccounting:
    N_THREADS = 8
    N_REQUESTS = 2_000

    def test_select_and_complete_counts_are_exact(self):
        router = FleetRouter(registry=MetricsRegistry())
        for did in ("a", "b", "c"):
            router.add_device(did, _service(_Switchable(), fallback=True))
        completed = [dict.fromkeys(("a", "b", "c"), 0) for _ in range(self.N_THREADS)]
        barrier = threading.Barrier(self.N_THREADS)
        errors = []

        def worker(tid):
            try:
                barrier.wait()
                for i in range(self.N_REQUESTS):
                    decision = router.select(SHAPES[(tid + i) % len(SHAPES)])
                    if i % 3:
                        router.complete(decision.device_id)
                        completed[tid][decision.device_id] += 1
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(tid,))
            for tid in range(self.N_THREADS)
        ]
        # Switch threads as often as the interpreter allows, so a
        # select or complete is interrupted mid-way as often as possible.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        total = self.N_THREADS * self.N_REQUESTS
        stats = router.stats()
        assert stats.agnostic == total
        assert stats.policy_counts == {"round-robin": total}
        assert sum(stats.dispatched.values()) == total
        for did, dispatched in stats.dispatched.items():
            done = sum(per_thread[did] for per_thread in completed)
            assert stats.outstanding[did] == dispatched - done


def test_over_completion_clamps_at_zero():
    router = FleetRouter(registry=MetricsRegistry())
    router.add_device("solo", _service(_Switchable(), fallback=True))
    router.select(SHAPES[0])
    router.complete("solo", n=5)
    assert router.stats().outstanding["solo"] == 0
    router.select(SHAPES[1])
    assert router.stats().outstanding["solo"] == 1
