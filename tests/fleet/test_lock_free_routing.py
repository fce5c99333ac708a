"""The ring paths of FleetRouter.select and FleetRouter.select_batch.

While every breaker is closed, a device-agnostic round-robin lookup
reads a cached ring of devices and counts itself with lock-free ticks
instead of ordering candidates under the router lock, and a batch
plans from that ring instead of scanning breakers.  These tests pin
both to ``_candidates``: a router whose ring stays empty routes every
lookup the slow way, and must agree with the ring router on every
decision, counter and later placement, through breaker trips,
recoveries, service exceptions, long batches and a device added
mid-stream.  They also pin the batch path's interned decisions.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import threading

from repro.kernels.params import config_space
from repro.obs import MetricsRegistry
from repro.serving import FleetRouter, RoutedDecision, SelectionService
from repro.serving.router import _INTERN_CAP
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


class _Broken:
    """A policy that always raises: with no fallback and no answer to
    fall back on, its service raises too."""

    def select(self, shape):
        raise RuntimeError("broken policy")


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

    def test_long_batches_and_a_raising_device_agree(self):
        # Batches of up to 70 shapes, longer than the fleet and full of
        # repeats.  "p" raises on every lookup without ever tripping its
        # breaker, so its share of a batch fails over while the ring is
        # still full.
        fleets = []
        for router_cls in (FleetRouter, _CandidatesOnly):
            router, policies = self._fleet(router_cls)
            router.add_device(
                "p",
                SelectionService(
                    _Broken(),
                    capacity=3,
                    breaker_threshold=10**9,
                    registry=MetricsRegistry(),
                ),
            )
            policies["c"].down = False
            fleets.append((router, policies))
        (fast, fast_policies), (slow, slow_policies) = fleets
        rng = random.Random(20)
        ring_reroutes = 0
        for step in range(300):
            roll = rng.random()
            did = rng.choice(sorted(fast_policies))
            if roll < 0.02:
                fast_policies[did].down = slow_policies[did].down = True
                continue
            if roll < 0.1:
                fast_policies[did].down = slow_policies[did].down = False
                fast.reset_breaker(did)
                slow.reset_breaker(did)
                continue
            shapes = [rng.choice(SHAPES) for _ in range(rng.randint(1, 70))]
            if roll < 0.2:
                kwargs = {"device_id": rng.choice((did, "p"))}
            else:
                kwargs = {"policy": rng.choice((None, "round-robin"))}
            ring_full = bool(fast._ring)
            rerouted = fast.stats().rerouted
            got = fast.select_batch(shapes, **kwargs)
            assert got == slow.select_batch(shapes, **kwargs), step
            if ring_full and "device_id" not in kwargs:
                ring_reroutes += fast.stats().rerouted > rerouted
            for decision in got:
                if rng.random() < 0.5:
                    fast.complete(decision.device_id)
                    slow.complete(decision.device_id)
            assert _counters(fast) == _counters(slow), step
        assert ring_reroutes > 100
        for shape in SHAPES:
            assert fast.select(shape) == slow.select(shape)
        assert fast.select_batch(SHAPES) == slow.select_batch(SHAPES)
        assert _counters(fast) == _counters(slow)

    def test_failing_share_lands_like_sequential_selects(self):
        # With the ring full, "p" raises on every lookup: each shape of
        # its share must fail over to where a lone select at the same
        # turn goes.
        routers = []
        for _ in range(2):
            router = FleetRouter(registry=MetricsRegistry())
            for did in ("a", "b", "c"):
                router.add_device(did, _service(_Switchable(), fallback=True))
            router.add_device(
                "p",
                SelectionService(
                    _Broken(), breaker_threshold=10**9, registry=MetricsRegistry()
                ),
            )
            routers.append(router)
        batched, sequential = routers
        rng = random.Random(7)
        for _ in range(20):
            shapes = [rng.choice(SHAPES) for _ in range(rng.randint(1, 70))]
            got = batched.select_batch(shapes)
            assert got == tuple(sequential.select(s) for s in shapes)
            # Router counters only: a batch's repeats are memo hits.
            assert _counters(batched)[:6] == _counters(sequential)[:6]
        assert batched._ring and batched.stats().rerouted > 0


class _Fresh:
    """A policy answering with a new, equal ``KernelConfig`` every call."""

    def select(self, shape):
        return dataclasses.replace(_Switchable().select(shape))


class _Constant:
    """A policy answering every shape with one config object."""

    def select(self, shape):
        return CONFIGS[1]


def _interned(router):
    """The ids of every decision the router's devices keep interned."""
    return {
        id(decision)
        for entry in router._devices.values()
        for decision in entry._decided.values()
    }


class TestInternedDecisions:
    """Batch decisions are shared per (device, config object)."""

    def test_fresh_configs_answer_equal_and_stay_under_the_cap(self):
        router = FleetRouter(registry=MetricsRegistry())
        router.add_device(
            "solo", SelectionService(_Fresh(), capacity=1, registry=MetricsRegistry())
        )
        shapes = [GemmShape(m=8 * (i + 1), k=8, n=8) for i in range(_INTERN_CAP + 44)]
        table = router._devices["solo"]._decided
        for _ in range(3):
            got = router.select_batch(shapes)
            assert got == tuple(
                RoutedDecision("solo", _Switchable().select(s), False) for s in shapes
            )
            assert 0 < len(table) <= _INTERN_CAP

    def test_devices_sharing_a_config_object_keep_their_ids(self):
        router = FleetRouter(registry=MetricsRegistry())
        policy = _Constant()
        for did in ("a", "b"):
            router.add_device(did, SelectionService(policy, registry=MetricsRegistry()))
        got = router.select_batch(SHAPES[:10])
        assert [d.device_id for d in got] == ["a", "b"] * 5
        assert all(d.config is CONFIGS[1] and not d.rerouted for d in got)
        assert got[0] is not got[1]

    def test_repeats_share_one_decision_across_batches(self):
        router = FleetRouter(registry=MetricsRegistry())
        for did in ("a", "b"):
            router.add_device(did, _service(_Switchable(), fallback=True))
        got = router.select_batch([SHAPES[0]] * 6)
        assert got[0] is got[2] is got[4]
        assert got[1] is got[3] is got[5]
        assert got[0] == ("a", _Switchable().select(SHAPES[0]), False)
        assert got[1] == ("b", _Switchable().select(SHAPES[0]), False)
        again = router.select_batch([SHAPES[0]] * 2)
        assert again[0] is got[0] and again[1] is got[1]
        assert {id(d) for d in got} <= _interned(router)

    def test_rerouted_decisions_are_never_interned(self):
        router = FleetRouter(registry=MetricsRegistry())
        router.add_device(
            "a",
            SelectionService(
                _Broken(), breaker_threshold=1, registry=MetricsRegistry()
            ),
        )
        router.add_device("b", _service(_Switchable(), fallback=True))
        # "a" raises inside the batch with the ring full; its share
        # fails over to "b" and trips its breaker.
        first = router.select_batch(SHAPES[:8])
        assert router.service("a").breaker_open
        # Targeted at the open breaker: every shape is a reroute.
        targeted = router.select_batch(SHAPES[:8], device_id="a")
        interned = _interned(router)
        rerouted = [d for d in first + targeted if d.rerouted]
        assert len(rerouted) == 4 + 8
        assert all(d.device_id == "b" for d in rerouted)
        assert not {id(d) for d in rerouted} & interned
        assert {id(d) for d in first if not d.rerouted} <= interned


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

    def test_ring_batches_race_breaker_trips_and_clear(self):
        # Workers mix ring-path batches and singles while a controller
        # trips and resets a failing device's breaker.  In phase 0 it
        # also clears the router; after one last clear, every shape
        # answered in phase 1 must be dispatched exactly once.
        router = FleetRouter(registry=MetricsRegistry())
        for did in ("a", "b"):
            router.add_device(did, _service(_Switchable(), fallback=False))
        victim = SelectionService(
            _Broken(), capacity=3, breaker_threshold=2, registry=MetricsRegistry()
        )
        router.add_device("victim", victim)
        n_workers = 6
        agnostic = [[0, 0] for _ in range(n_workers)]
        targeted = [0, 0]
        wrong = []
        errors = []
        finished = []  # one entry per worker and finished phase
        between = threading.Barrier(n_workers + 1, timeout=60)

        answer = _Switchable().select

        def check(shapes, decisions):
            wrong.extend(s for s, d in zip(shapes, decisions) if d.config != answer(s))

        def worker(tid):
            rng = random.Random(tid)
            try:
                for phase in (0, 1):
                    for i in range(150):
                        if i % 2:
                            size = rng.randint(1, 40)
                            batch = [rng.choice(SHAPES) for _ in range(size)]
                            check(batch, router.select_batch(batch))
                        else:
                            batch = [rng.choice(SHAPES)]
                            check(batch, (router.select(batch[0]),))
                        agnostic[tid][phase] += len(batch)
                    finished.append(tid)
                    if phase == 0:
                        between.wait()
                        between.wait()  # the controller clears in between
            except BaseException as exc:  # surfaced after join
                errors.append(exc)
                between.abort()

        def trip_and_reset(phase):
            for shape in SHAPES[:2]:
                decision = router.select(shape, device_id="victim")
                check([shape], [decision])
                targeted[phase] += 1
            assert victim.breaker_open
            router.reset_breaker("victim")

        def controller():
            try:
                for phase in (0, 1):
                    rounds = 0
                    while len(finished) < n_workers * (phase + 1) and not errors:
                        trip_and_reset(phase)
                        rounds += 1
                        if phase == 0 and rounds % 3 == 0:
                            router.clear()
                    if phase == 0:
                        between.wait()
                        router.clear()
                        between.wait()
            except BaseException as exc:  # surfaced after join
                errors.append(exc)
                between.abort()

        threads = [threading.Thread(target=controller)] + [
            threading.Thread(target=worker, args=(tid,)) for tid in range(n_workers)
        ]
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
        assert wrong == []
        stats = router.stats()
        answered = sum(per_worker[1] for per_worker in agnostic) + targeted[1]
        assert sum(stats.dispatched.values()) == answered
        assert stats.agnostic == answered - targeted[1]
        assert stats.targeted == targeted[1]
        assert stats.dispatched["victim"] == 0
        assert stats.rerouted >= targeted[1]


def test_over_completion_clamps_at_zero():
    router = FleetRouter(registry=MetricsRegistry())
    router.add_device("solo", _service(_Switchable(), fallback=True))
    router.select(SHAPES[0])
    router.complete("solo", n=5)
    assert router.stats().outstanding["solo"] == 0
    router.select(SHAPES[1])
    assert router.stats().outstanding["solo"] == 1
